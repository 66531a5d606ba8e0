"""
One optimized day
=================

Settle one day for a small battery the way a horizon run does: build the
day model, solve it, check the point against every row, read the schedule
(baseline power, stacked reserve bids, the state-of-energy path) and
charge the exact aging of that schedule to its profit.
"""

from __future__ import annotations

import numpy as np

from fcrsched import (
    BatterySpec,
    DayInputs,
    TimeGrid,
    energy_content,
    model_size,
    solve_day,
    solve_scipy,
    synth_frequency,
    synth_prices,
)
from fcrsched.milp import VALIDATION_TOL, step_soe

# Inputs: a 24-hour day at 15-minute resolution, synthetic frequency and
# prices, all three reserve markets allowed ("MULTI"). No aging
# linearizations are given, so degradation is charged after the fact rather
# than inside the objective: `solve_day` post-calculates it on the realized
# schedule at the battery's age, here 30 days.
grid = TimeGrid(day_index=0, steps_per_hour=4, hours=24)
spec = BatterySpec()
trace = synth_frequency(seed=11, grid=grid)
prices = synth_prices(seed=12, hours=grid.hours)

inputs = DayInputs(
    grid=grid,
    prices=prices,
    contents=energy_content(trace, grid),
    spec=spec,
    s0=0.5 * spec.capacity,
    case_id="MULTI",
)

size = model_size(inputs)
print(f"model: {size['n_vars']} variables "
      f"({size['n_binaries']} binary), {size['n_rows']} rows")

# `solve_day` is the one path from a day's inputs to a settled day, the one
# `run_case` takes for every day it solves. It raises SolverFailure when the
# solver does not end optimal or its point breaks a row of the model.
model, result, sol = solve_day(inputs, age_days=30.0, backend=solve_scipy,
                               time_limit_s=600.0, mip_gap=1e-6)
print(f"solved in {result.wall_time:.2f} s, objective "
      f"{sol.objective:,.2f} EUR\n")

# The hourly plan: negative baseline = discharging into the spot market.
# A solution stores the SoE at the end of each hour.
print("hour  baseline[MW]  bid N  bid DU  bid DD   SoE end[MWh]")
for h in range(grid.hours):
    net = sol.ch_bl[h] - sol.ds_bl[h]
    print(f"{h:4d}  {net:+12.2f}  {sol.bid_n[h]:5.2f}  {sol.bid_du[h]:6.2f}"
          f"  {sol.bid_dd[h]:6.2f}  {sol.soe[h]:13.3f}")

# A day's money is its stored decisions priced: each revenue and cost is
# an hourly decision times its price (`decision_prices`), and the profit
# charges the aging post-calculated on the stored schedule.
print(f"\nrevenue: spot {sol.r_da:,.2f}  FCR-N {sol.r_n:,.2f}  "
      f"FCR-D up {sol.r_du:,.2f}  FCR-D down {sol.r_dd:,.2f} EUR")
print(f"cost: charged energy {sol.c_da:,.2f} EUR, post-calculated aging "
      f"{sol.cal_cost:,.2f} calendar + {sol.cyc_cost:,.2f} cycle EUR "
      f"({sol.cal_pct + sol.cyc_pct:.4f} % of capacity)")
print(f"realized profit: {sol.profit:,.2f} EUR")

# The solver's SoE columns hold each hour's end. Inside an hour the model
# writes the window only at the steps where it can bind (the `soe_max` and
# `soe_min` rows). Rolling the start SoE forward through the stored hourly
# decisions rebuilds each step's SoE; its hour ends match the solver's
# columns.
soe = step_soe(sol, inputs)
solver_soe = result.x[[model.col(f"soe[h={h}]") for h in range(grid.hours)]]
drift = np.abs(soe[grid.steps_per_hour - 1::grid.steps_per_hour]
               - solver_soe).max()
assert drift <= VALIDATION_TOL, drift
window_rows = sum(name.startswith(("soe_max[", "soe_min["))
                  for name in model.row_names)
print(f"SoE over all {soe.size} steps: {soe.min():.3f}..{soe.max():.3f} MWh "
      f"in the window [{spec.soe_min:.1f}, {spec.soe_max:.1f}], guarded by "
      f"{window_rows} intra-hour rows; the roll-forward's hour ends are "
      f"within {drift:.1e} MWh of the solver's")
