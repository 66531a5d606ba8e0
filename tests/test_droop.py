"""Activation curves and energy-content integration."""

from __future__ import annotations

import math

import numpy as np
import pytest

from fcrsched import (
    AlignmentError,
    FrequencyTrace,
    InvalidParameter,
    TimeGrid,
    energy_content,
    fcrd_down_fraction,
    fcrd_up_fraction,
    fcrn_fraction,
    synth_frequency,
)

# frozen 20-point table: frequency -> (signed N, D-up, D-down) fractions
DROOP_TABLE = [
    (48.9, -1.0, 1.0, 0.0),
    (49.0, -1.0, 1.0, 0.0),
    (49.5, -1.0, 1.0, 0.0),
    (49.6, -1.0, 0.75, 0.0),
    (49.7, -1.0, 0.5, 0.0),
    (49.8, -1.0, 0.25, 0.0),
    (49.9, -1.0, 0.0, 0.0),
    (49.925, -0.75, 0.0, 0.0),
    (49.95, -0.5, 0.0, 0.0),
    (49.975, -0.25, 0.0, 0.0),
    (50.0, 0.0, 0.0, 0.0),
    (50.025, 0.25, 0.0, 0.0),
    (50.05, 0.5, 0.0, 0.0),
    (50.075, 0.75, 0.0, 0.0),
    (50.1, 1.0, 0.0, 0.0),
    (50.2, 1.0, 0.0, 0.25),
    (50.3, 1.0, 0.0, 0.5),
    (50.4, 1.0, 0.0, 0.75),
    (50.5, 1.0, 0.0, 1.0),
    (50.9, 1.0, 0.0, 1.0),
]


def make_trace(values):
    arr = np.asarray(values, dtype=np.float64)
    return FrequencyTrace(values=arr, steps_per_day=arr.size)


@pytest.mark.parametrize("f,n,du,dd", DROOP_TABLE)
def test_droop_table(f, n, du, dd):
    assert fcrn_fraction(f) == pytest.approx(n, abs=1e-12)
    assert fcrd_up_fraction(f) == pytest.approx(du, abs=1e-12)
    assert fcrd_down_fraction(f) == pytest.approx(dd, abs=1e-12)


def test_breakpoints_are_exact():
    assert fcrn_fraction(49.9) == -1.0
    assert fcrn_fraction(50.1) == 1.0
    assert fcrn_fraction(50.0) == 0.0
    assert fcrd_up_fraction(49.9) == 0.0
    assert fcrd_up_fraction(49.5) == 1.0
    assert fcrd_down_fraction(50.1) == 0.0
    assert fcrd_down_fraction(50.5) == 1.0


def test_saturation_well_outside_band():
    for f in (40.0, 47.3, 52.8, 60.0):
        assert abs(fcrn_fraction(f)) == 1.0
        assert fcrd_up_fraction(f) in (0.0, 1.0)
        assert fcrd_down_fraction(f) in (0.0, 1.0)


def test_ranges_on_dense_sweep():
    for f in np.linspace(48.5, 51.5, 3001):
        n = fcrn_fraction(float(f))
        assert -1.0 <= n <= 1.0
        assert 0.0 <= fcrd_up_fraction(float(f)) <= 1.0
        assert 0.0 <= fcrd_down_fraction(float(f)) <= 1.0
        # the two disturbance products never activate together
        assert fcrd_up_fraction(float(f)) * fcrd_down_fraction(float(f)) == 0.0


def test_monotonicity():
    fs = np.linspace(49.3, 50.7, 1401)
    n = [fcrn_fraction(float(f)) for f in fs]
    du = [fcrd_up_fraction(float(f)) for f in fs]
    dd = [fcrd_down_fraction(float(f)) for f in fs]
    assert all(a <= b + 1e-15 for a, b in zip(n, n[1:]))
    assert all(a >= b - 1e-15 for a, b in zip(du, du[1:]))
    assert all(a <= b + 1e-15 for a, b in zip(dd, dd[1:]))


def test_non_finite_frequency_rejected():
    for f in (math.nan, math.inf, -math.inf):
        with pytest.raises(InvalidParameter):
            fcrn_fraction(f)
        with pytest.raises(InvalidParameter):
            fcrd_up_fraction(f)
        with pytest.raises(InvalidParameter):
            fcrd_down_fraction(f)


def test_vector_matches_scalar_bit_exactly():
    rng = np.random.default_rng(42)
    f = rng.uniform(49.2, 50.8, size=96)
    f[:20] = [row[0] for row in DROOP_TABLE]
    grid = TimeGrid(0, 4, 24)
    cont = energy_content(make_trace(f), grid)
    dt_h = grid.dt_hours
    for t, ft in enumerate(f):
        n = fcrn_fraction(float(ft))
        assert cont.frac_nd[t] - cont.frac_nu[t] == n
        assert cont.frac_du[t] == fcrd_up_fraction(float(ft))
        assert cont.frac_dd[t] == fcrd_down_fraction(float(ft))
        assert cont.e_ur_du[t] == cont.frac_du[t] * dt_h
        assert cont.e_dr_dd[t] == cont.frac_dd[t] * dt_h


def test_hourly_content_is_exact_fsum_of_steps():
    rng = np.random.default_rng(7)
    f = rng.normal(50.0, 0.08, size=6 * 3600 // 50)  # 6 h at 50 s steps
    grid = TimeGrid(0, 72, 6)
    cont = energy_content(make_trace(f), grid)
    for h in range(6):
        s = slice(h * grid.steps_per_hour, (h + 1) * grid.steps_per_hour)
        assert cont.eh_ur_n[h] == math.fsum(cont.e_ur_n[s])
        assert cont.eh_dr_n[h] == math.fsum(cont.e_dr_n[s])


def test_hourly_content_never_exceeds_one_hour():
    # adversarial trace: full saturation all hour on both sides
    grid = TimeGrid(0, 60, 2)
    f = np.concatenate([np.full(60, 49.85), np.full(60, 50.15)])
    cont = energy_content(make_trace(f), grid)
    assert cont.eh_ur_n[0] == 1.0 and cont.eh_dr_n[0] == 0.0
    assert cont.eh_dr_n[1] == 1.0 and cont.eh_ur_n[1] == 0.0


def test_random_traces_content_in_unit_interval():
    for seed in range(40):
        grid = TimeGrid(0, 6, 8)
        trace = synth_frequency(seed, grid)
        cont = energy_content(trace, grid)
        assert np.all(cont.eh_ur_n >= 0.0) and np.all(cont.eh_ur_n <= 1.0)
        assert np.all(cont.eh_dr_n >= 0.0) and np.all(cont.eh_dr_n <= 1.0)


def test_multi_day_trace_and_day_slice():
    grid = TimeGrid(0, 4, 24)
    trace = synth_frequency(3, grid, days=3)
    cont = energy_content(trace, grid)
    assert cont.n_steps == 3 * grid.n_steps
    # day 1 of the 3-day contents equals the contents of day 1's own trace,
    # the path a day's model inputs take
    day1 = energy_content(FrequencyTrace(trace.day_values(1), grid.n_steps),
                          grid)
    assert day1.n_steps == grid.n_steps
    np.testing.assert_array_equal(
        day1.e_ur_n, cont.e_ur_n[grid.n_steps:2 * grid.n_steps])
    np.testing.assert_array_equal(day1.eh_ur_n, cont.eh_ur_n[24:48])


def test_misaligned_trace_rejected():
    grid = TimeGrid(0, 4, 24)
    with pytest.raises(AlignmentError):
        energy_content(make_trace(np.full(10, 50.0)), grid)
