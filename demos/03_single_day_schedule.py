"""
One optimized day
=================

Build the day model for a small battery, solve it, and read the schedule:
baseline power, stacked reserve bids, and the state-of-energy path.
"""

from __future__ import annotations

import numpy as np

from fcrsched import (
    BatterySpec,
    DayInputs,
    TimeGrid,
    build_day_model,
    energy_content,
    extract_day_solution,
    model_size,
    solve_scipy,
    synth_frequency,
    synth_prices,
)
from fcrsched.milp import VALIDATION_TOL, step_soe

# Inputs: a 24-hour day at 15-minute resolution, synthetic frequency and
# prices, all three reserve markets allowed ("MULTI"). No aging
# linearizations are given, so degradation is charged after the fact rather
# than inside the objective.
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

model = build_day_model(inputs)
result = solve_scipy(model, mip_gap=1e-6)
assert result.ok, result.status
sol = extract_day_solution(model, result, inputs)
print(f"solved in {result.wall_time:.2f} s, objective "
      f"{sol.objective:,.2f} EUR\n")

# The hourly plan: negative baseline = discharging into the spot market.
# A solution stores the SoE at the end of each hour.
print("hour  baseline[MW]  bid N  bid DU  bid DD   SoE end[MWh]")
for h in range(grid.hours):
    net = sol.ch_bl[h] - sol.ds_bl[h]
    print(f"{h:4d}  {net:+12.2f}  {sol.bid_n[h]:5.2f}  {sol.bid_du[h]:6.2f}"
          f"  {sol.bid_dd[h]:6.2f}  {sol.soe[h]:13.3f}")

print(f"\nrevenue: spot {sol.r_da:,.2f}  FCR-N {sol.r_n:,.2f}  "
      f"FCR-D up {sol.r_du:,.2f}  FCR-D down {sol.r_dd:,.2f} EUR")
print(f"cost: charged energy {sol.c_da:,.2f} EUR")

# The solver's SoE columns hold each hour's end. Inside an hour the model
# writes the window only at the steps where it can bind (the `soe_max` and
# `soe_min` rows). Rolling the start SoE forward through the stored hourly
# decisions rebuilds each step's SoE; its hour ends match the solver's
# columns.
soe = step_soe(sol, inputs.contents, spec)
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
