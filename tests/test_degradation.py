"""Aging model: quadratic spans, NPV, step laws, linearizations."""

from __future__ import annotations

import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest

from fcrsched import (
    AgingCoefficients,
    BatterySpec,
    FitToleranceExceeded,
    InvalidParameter,
    battery_npv,
    calendar_aging_step,
    cycle_aging_step,
    eur_per_pct,
    linearize_calendar,
    linearize_cycle,
    post_calculate_aging,
)

CO = AgingCoefficients()
SPEC = BatterySpec()
T_REF = 293.15


# hand-computed span values of the calendar quadratic (percent SoC scale)
@pytest.mark.parametrize("soc,expected", [
    (0.0, 1224.6),
    (30.0, 2925.6),
    (50.0, 2959.6),      # upper edge of the low span
    (60.0, 3511.0),
    (70.0, 6065.0),      # upper edge of the middle span
    (80.0, 5915.0),
    (100.0, 7085.0),
])
def test_calendar_prefactor_pinned(soc, expected):
    assert CO.g_of_soc(soc) == pytest.approx(expected, rel=1e-12)


def test_calendar_prefactor_span_selection():
    # just across the span edges the middle/high quadratics take over
    assert CO.g_of_soc(50.0) == pytest.approx(2959.6, rel=1e-12)
    assert CO.g_of_soc(50.000001) == pytest.approx(3017.0, rel=1e-5)
    assert CO.g_of_soc(70.000001) == pytest.approx(6110.0, rel=1e-5)


def test_calendar_prefactor_domain():
    with pytest.raises(InvalidParameter):
        CO.g_of_soc(-0.1)
    with pytest.raises(InvalidParameter):
        CO.g_of_soc(100.1)


def test_npv_matches_exact_rational_arithmetic():
    # independent recomputation with exact rationals
    growth = Fraction(105, 100) ** 10
    c_rep = Fraction(137_000)
    exact = (Fraction(1, 2) * c_rep / growth
             + Fraction(2740) * (growth - 1) / (Fraction(5, 100) * growth))
    npv = battery_npv(SPEC)
    assert npv == pytest.approx(float(exact), rel=1e-12)
    assert npv == pytest.approx(63_210.6115735084, rel=1e-12)


def test_npv_custom_alpha_and_validation():
    spec = BatterySpec(npv_alpha=0.08)
    growth = 1.05 ** 10
    want = 0.5 * 137_000 / growth + 2740 * (growth - 1) / (0.08 * growth)
    assert battery_npv(spec) == pytest.approx(want, rel=1e-12)
    with pytest.raises(InvalidParameter):
        battery_npv(BatterySpec(interest_rate=-0.01))


def test_eur_per_pct():
    assert eur_per_pct(SPEC) == pytest.approx(battery_npv(SPEC) / 20.0,
                                              rel=1e-15)
    spec = BatterySpec(eol_retained=0.9)
    assert eur_per_pct(spec) == pytest.approx(battery_npv(spec) / 10.0,
                                              rel=1e-15)


def test_arrhenius_factor_in_calendar_step():
    # G(50%) at reference temperature over dt from age 0:
    # increment = G * exp(-Ea/(R T)) * sqrt(dt_days)
    dt = 900.0
    inc = calendar_aging_step(SPEC, 0.5, 0.0, dt)
    arr = math.exp(-24_500.0 / (8.314 * T_REF))
    assert arr == pytest.approx(4.308581343169691e-05, rel=1e-12)
    assert inc == pytest.approx(2959.6 * arr * math.sqrt(dt / 86400.0),
                                rel=1e-12)


def test_calendar_step_telescopes_to_cumulative_law():
    dt = 450.0
    n = 192
    age0 = 12.5
    total = math.fsum(
        calendar_aging_step(SPEC, 0.3, age0 + t * dt / 86400.0, dt)
        for t in range(n))
    direct = (CO.g_of_soc(30.0) * math.exp(-CO.Ea / (CO.R_gas * T_REF))
              * (math.sqrt(age0 + n * dt / 86400.0) - math.sqrt(age0)))
    assert total == pytest.approx(direct, rel=1e-9)


def test_calendar_step_validation():
    with pytest.raises(InvalidParameter):
        calendar_aging_step(SPEC, -0.01, 0.0, 900)
    with pytest.raises(InvalidParameter):
        calendar_aging_step(SPEC, 1.01, 0.0, 900)
    with pytest.raises(InvalidParameter):
        calendar_aging_step(SPEC, 0.5, -1.0, 900)
    assert calendar_aging_step(SPEC, 0.5, 10.0, 0.0) == 0.0


def test_cycle_step_pinned_and_scaling():
    # 1 MW for one hour on the 1 MWh unit: C-rate 1, throughput 1
    pct = cycle_aging_step(SPEC, 1.0, 0.0, 3600)
    assert pct == pytest.approx(0.0008 * math.exp(0.3903), rel=1e-12)
    assert pct == pytest.approx(1.1819391636732719e-3, rel=1e-12)
    # throughput is linear in dt, cost symmetric in charge/discharge
    assert cycle_aging_step(SPEC, 0.0, 1.0, 3600) == pct
    assert cycle_aging_step(SPEC, 1.0, 0.0, 900) == pytest.approx(
        pct / 4.0, rel=1e-12)
    assert cycle_aging_step(SPEC, 0.0, 0.0, 3600) == 0.0


def test_cycle_step_rejects_simultaneous_flow():
    with pytest.raises(InvalidParameter):
        cycle_aging_step(SPEC, 0.5, 0.5, 3600)
    with pytest.raises(InvalidParameter):
        cycle_aging_step(SPEC, -0.1, 0.0, 3600)


def test_aging_coefficients_validation():
    with pytest.raises(InvalidParameter):
        AgingCoefficients(q_poly_at_temp=0.0)
    with pytest.raises(InvalidParameter):
        AgingCoefficients(a1=math.nan)


def test_calendar_linearization_exact_at_breakpoints():
    cal = linearize_calendar(SPEC, 30.0, 900)
    scale = eur_per_pct(SPEC)
    for b in (0.0, 0.5, 0.7, 1.0):
        nonlinear = scale * calendar_aging_step(SPEC, b, 30.0, 900)
        assert cal.cost_at(b) == pytest.approx(nonlinear, rel=1e-12)
    # segments join continuously
    for left, right in zip(cal.segments, cal.segments[1:]):
        assert left.cost_at(left.hi_mwh) == pytest.approx(
            right.cost_at(right.lo_mwh), rel=1e-12)


def test_calendar_linearization_gap_bound_holds():
    cal = linearize_calendar(SPEC, 30.0, 900)
    scale = eur_per_pct(SPEC)
    for seg in cal.segments:
        for s in np.linspace(seg.lo_mwh, seg.hi_mwh, 200):
            nonlinear = scale * calendar_aging_step(SPEC, float(s), 30.0, 900)
            assert abs(seg.cost_at(float(s)) - nonlinear) \
                <= seg.max_gap_eur + 1e-12


def test_cycle_linearization_pinned_fit():
    cyc = linearize_cycle(SPEC)
    assert cyc.k_cyc == pytest.approx(3.4075744785343587, rel=1e-9)
    assert cyc.max_rel_err == pytest.approx(0.08779964473754141, rel=1e-9)
    assert cyc.max_rel_err <= 0.10


def test_cycle_linearization_tolerance_enforced():
    # a steeper C-rate term misses the linear fit by 0.110, past the fixed
    # 10 % cap; the default q4 = 0.3903 misses by 0.0878
    steep = BatterySpec(aging=AgingCoefficients(q4=0.5))
    with pytest.raises(FitToleranceExceeded, match="0.110 exceeds 0.1"):
        linearize_cycle(steep)


def test_post_calculated_aging_matches_manual_loop():
    rng = np.random.default_rng(5)
    n = 16
    soe = rng.uniform(0.1, 0.9, n)
    p = rng.uniform(-1.0, 1.0, n)
    cal_eur, cyc_eur, cal_pct, cyc_pct = post_calculate_aging(
        soe, p, 900.0, SPEC, 40.0)
    want_cal = sum(
        calendar_aging_step(SPEC, float(soe[t]), 40.0 + t * 900.0 / 86400.0,
                            900.0) for t in range(n))
    want_cyc = sum(
        cycle_aging_step(SPEC, float(max(p[t], 0.0)), float(max(-p[t], 0.0)),
                         900.0) for t in range(n))
    scale = eur_per_pct(SPEC)
    assert cal_pct == pytest.approx(want_cal, rel=1e-12)
    assert cyc_pct == pytest.approx(want_cyc, rel=1e-12)
    assert cal_eur == pytest.approx(want_cal * scale, rel=1e-12)
    assert cyc_eur == pytest.approx(want_cyc * scale, rel=1e-12)


@pytest.mark.parametrize("frac", [0.5, 0.7])
def test_realized_calendar_cost_reads_noise_at_a_breakpoint_as_the_breakpoint(
        frac):
    # G jumps +1.9 % above 50 % SoC and +0.7 % above 70 %; the LP puts the
    # SoE on those breakpoints, so solver noise must not pick the upper span
    n = 96
    zeros = np.zeros(n)

    def cal_pct(soe: float) -> float:
        return post_calculate_aging(np.full(n, soe), zeros, 900.0, SPEC,
                                    40.0)[2]

    at = cal_pct(frac * SPEC.capacity)
    assert cal_pct(frac * SPEC.capacity + 1e-12) == at
    assert cal_pct(frac * SPEC.capacity - 1e-12) == at
    assert cal_pct(frac * SPEC.capacity + 1e-6) > 1.005 * at


def test_aging_reads_capacity_temperature_and_npv_from_the_spec():
    # every other aging test runs on the default spec, where a function that
    # read a default in place of the spec's field would still pass
    spec = BatterySpec(capacity=2.0, temperature=308.15, npv_alpha=0.04)
    at_ref = dataclasses.replace(spec, temperature=T_REF)
    growth = 1.05 ** 10
    npv = 0.5 * 137_000 * 2.0 / growth + 2740 * (growth - 1) / (0.04 * growth)
    scale = eur_per_pct(spec)
    assert scale == pytest.approx(npv / 20.0, rel=1e-12)

    cal = linearize_calendar(spec, 30.0, 900)
    for frac in (0.0, 0.5, 0.7, 1.0):
        b = frac * spec.capacity
        exact = scale * calendar_aging_step(spec, b, 30.0, 900)
        assert cal.cost_at(b) == pytest.approx(exact, rel=1e-12), frac

    # temperature enters the calendar law only through the Arrhenius factor
    ratio = (math.exp(-CO.Ea / (CO.R_gas * 308.15))
             / math.exp(-CO.Ea / (CO.R_gas * T_REF)))
    for seg, ref in zip(cal.segments,
                        linearize_calendar(at_ref, 30.0, 900).segments):
        assert seg.slope_eur_per_mwh == pytest.approx(
            ratio * ref.slope_eur_per_mwh, rel=1e-12)
    n = 96
    soe = np.full(n, 0.6 * spec.capacity)
    cal_eur, _, cal_pct, _ = post_calculate_aging(soe, np.zeros(n), 900.0,
                                                  spec, 40.0)
    _, _, ref_pct, _ = post_calculate_aging(soe, np.zeros(n), 900.0, at_ref,
                                            40.0)
    assert cal_pct == pytest.approx(ratio * ref_pct, rel=1e-12)
    assert cal_eur == pytest.approx(scale * cal_pct, rel=1e-12)

    # cycle aging reads q_poly_at_temp, evaluated by the user at the
    # operating temperature, and the C-rate on the spec's capacity
    assert linearize_cycle(spec).k_cyc == linearize_cycle(at_ref).k_cyc
    assert cycle_aging_step(spec, 1.0, 0.0, 3600) == pytest.approx(
        0.0008 * math.exp(0.3903 * 0.5) * 0.5, rel=1e-12)
