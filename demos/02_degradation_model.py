"""
Battery aging and its price tag
===============================

Calendar and cycle capacity loss, the battery's net present value, and the
piecewise-linear surrogates that let a MILP charge for aging.
"""

from __future__ import annotations

import numpy as np

from fcrsched import (
    BatterySpec,
    battery_npv,
    eur_per_pct,
    linearize_calendar,
    linearize_cycle,
)
from fcrsched.degradation import calendar_aging_step, cycle_aging_step

spec = BatterySpec()  # 1 MWh / 1 MW reference unit

# The NPV discounts replacement plus O&M over the battery's lifetime; one
# percent of capacity loss is then worth NPV / 20 (80% end-of-life floor).
scale = eur_per_pct(spec)
print(f"battery NPV: {battery_npv(spec):,.2f} EUR")
print(f"one percent of capacity: {scale:,.2f} EUR")

# Calendar aging grows with sqrt(age) and depends on the resting SoC; a
# 15-minute step costs more at high SoC and for a young battery. Every
# aging function reads capacity, temperature and coefficients from `spec`.
print("\nSoE [MWh]  cal loss %/step (age 30 d)  cost [EUR]")
for soe in (0.1, 0.3, 0.5, 0.7, 0.9):
    pct = calendar_aging_step(spec, soe, 30.0, 900.0)
    print(f"{soe:9.1f}  {pct:26.3e}  {scale * pct:10.4f}")

# Cycle aging is throughput times an exponential C-rate penalty.
print("\npower [MW]  cyc loss %/15min  cost [EUR]")
for p in (0.1, 0.5, 1.0):
    pct = cycle_aging_step(spec, p, 0.0, 900.0)
    print(f"{p:10.1f}  {pct:16.3e}  {scale * pct:10.4f}")

# The MILP needs linear costs. Calendar cost becomes three SoE secants,
# exact at the breakpoints; cycle cost becomes one EUR/MWh coefficient
# fitted over the working power range, with its fit error reported.
cal = linearize_calendar(spec, age_days=30.0, dt_seconds=900.0)
print("\ncalendar segments (per 15-min step):")
for seg in cal.segments:
    print(f"  SoE {seg.lo_mwh:.1f}..{seg.hi_mwh:.1f} MWh: "
          f"{seg.slope_eur_per_mwh:+.4f} EUR/MWh "
          f"+ {seg.intercept_eur:.4f} EUR "
          f"(max gap {seg.max_gap_eur:.2e} EUR)")

cyc = linearize_cycle(spec)
print(f"\ncycle coefficient: {cyc.k_cyc:.4f} EUR per MWh through the "
      f"converter\nfull-scale fit error: {100 * cyc.max_rel_err:.2f}% "
      f"(tolerance 10%)")

# Sanity: the secants agree with the nonlinear model at every breakpoint.
for frac in (0.0, 0.5, 0.7, 1.0):
    bp = frac * spec.capacity
    exact = scale * calendar_aging_step(spec, bp, 30.0, 900.0)
    assert abs(cal.cost_at(bp) - exact) <= 1e-12 * exact
print("\nbreakpoint exactness verified to 1e-12 relative")
