"""
Droop curves and energy content
===============================

How grid frequency turns into reserve activation, and how activation
integrates into the per-hour energy contents the optimizer consumes.
"""

from __future__ import annotations

import numpy as np

from fcrsched import (
    TimeGrid,
    energy_content,
    fcrd_down_fraction,
    fcrd_up_fraction,
    fcrn_fraction,
    synth_frequency,
)

# FCR-N responds linearly inside 50 +/- 0.1 Hz and saturates outside;
# FCR-D up ramps over 49.9 -> 49.5 Hz, FCR-D down mirrors it above 50.1 Hz.
# Positive fractions are charging (load convention).
print("freq [Hz]   FCR-N    FCR-D up  FCR-D down")
for f in (49.4, 49.7, 49.9, 49.95, 50.0, 50.05, 50.1, 50.3, 50.6):
    print(f"{f:9.2f}  {fcrn_fraction(f):+6.2f}  {fcrd_up_fraction(f):8.2f}"
          f"  {fcrd_down_fraction(f):10.2f}")

# A synthetic mean-reverting trace stands in for a measured one. The grid
# says how the samples map onto hours: here 4 hours at 15-minute steps.
grid = TimeGrid(day_index=0, steps_per_hour=4, hours=4)
trace = synth_frequency(seed=7, grid=grid)
print(f"\ntrace: {trace.values.size} samples, "
      f"{trace.values.min():.3f}..{trace.values.max():.3f} Hz")

# energy_content integrates the droop response per step and per hour.
# e_* arrays are MWh of activation energy per MW of bid; eh_* are their
# hourly sums (at most 1.0 h), which price the FCR-N activation energy in
# the objective's bid_n term.
cont = energy_content(trace, grid)
print("\nhour  eh_ur_n [h]  eh_dr_n [h]")
for h in range(grid.hours):
    print(f"{h:4d}  {cont.eh_ur_n[h]:11.6f}  {cont.eh_dr_n[h]:11.6f}")

# The hourly values are exactly the compensated sums of the per-step
# values, and a 1 MW FCR-N bid can never move more than 1 MWh in an hour.
import math

sph = grid.steps_per_hour
for h in range(grid.hours):
    assert cont.eh_ur_n[h] == math.fsum(cont.e_ur_n[h*sph:(h+1)*sph])
    assert 0.0 <= cont.eh_ur_n[h] <= 1.0
print("\nper-step up-regulation energy, hour 0:",
      np.array2string(cont.e_ur_n[:sph], precision=5))
