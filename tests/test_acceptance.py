"""End-to-end acceptance suite: one test per shipped guarantee.

Run with ``pytest -v tests/test_acceptance.py`` to get a single pass/fail
line per guarantee. Every tolerance asserted here is a contract of the
package, not an implementation detail; the brute-force optimizer and the
pinned numeric values live in this directory, independent of the library
code they check.

The final test needs a full year of real frequency and price data and is
skipped unless ``FCRSCHED_SE3_FREQ`` and ``FCRSCHED_SE3_PRICES`` point at
the two CSV files.
"""

from __future__ import annotations

import dataclasses
import math
import os
import time

import numpy as np
import pytest

from fcrsched import (
    BatterySpec,
    CASES,
    FrequencyTrace,
    RunConfig,
    TimeGrid,
    battery_npv,
    energy_content,
    fcrd_down_fraction,
    fcrd_up_fraction,
    fcrn_fraction,
    get_backend,
    linearize_calendar,
    linearize_cycle,
    load_bundle,
    run_case,
    synth_frequency,
)
from fcrsched.degradation import calendar_aging_step, eur_per_pct

from helpers import audit_solution, day_inputs, flat_prices, solve_day
from oracles import brute_force_day, discretization_bound
from test_droop import DROOP_TABLE
from test_solvers import STUB_CMD


# -- shared solved matrix: 2 seeds x 5 cases x 2 degradation modes ----------------

MATRIX_SEEDS = (3, 7)


@pytest.fixture(scope="module")
def solved_matrix():
    """Solve one 4-hour day per (seed, case, deg mode) plus two edge variants."""
    out = {}
    for seed in MATRIX_SEEDS:
        for case in CASES:
            for deg in (False, True):
                inputs = day_inputs(seed=seed, case=case, deg=deg)
                _, res, sol = solve_day(inputs)
                out[(seed, case, deg)] = (inputs, sol, res)
    zero_bl = day_inputs(seed=5, case="FCR_N", force_zero_baseline=True)
    _, res, sol = solve_day(zero_bl)
    out[("zero_bl", "FCR_N", False)] = (zero_bl, sol, res)
    pmin = day_inputs(seed=5, case="MULTI", spec=BatterySpec(p_min=0.2))
    _, res, sol = solve_day(pmin)
    out[("pmin", "MULTI", False)] = (pmin, sol, res)
    return out


# 1 -------------------------------------------------------------------------------


def test_droop_fractions_match_pinned_20_point_table_to_1e12():
    t0 = time.perf_counter()
    for f, n, du, dd in DROOP_TABLE:
        assert abs(fcrn_fraction(f) - n) <= 1e-12, f
        assert abs(fcrd_up_fraction(f) - du) <= 1e-12, f
        assert abs(fcrd_down_fraction(f) - dd) <= 1e-12, f
    # band edges are exact, not merely close
    assert fcrn_fraction(49.9) == -1.0 and fcrn_fraction(50.1) == 1.0
    assert fcrd_up_fraction(49.5) == 1.0 and fcrd_up_fraction(49.9) == 0.0
    assert fcrd_down_fraction(50.1) == 0.0 and fcrd_down_fraction(50.5) == 1.0
    assert time.perf_counter() - t0 < 1.0


# 2 -------------------------------------------------------------------------------


def test_hourly_energy_content_equals_step_sums_on_100_random_traces():
    t0 = time.perf_counter()
    geometries = [(4, 4), (1, 24), (15, 2), (60, 1), (2, 12), (4, 24)]
    for seed in range(100):
        sph, hours = geometries[seed % len(geometries)]
        grid = TimeGrid(0, sph, hours)
        trace = synth_frequency(seed, grid)
        cont = energy_content(trace, grid)
        for h in range(hours):
            s = slice(h * sph, (h + 1) * sph)
            assert cont.eh_ur_n[h] == math.fsum(cont.e_ur_n[s])
            assert cont.eh_dr_n[h] == math.fsum(cont.e_dr_n[s])
            assert 0.0 <= cont.eh_ur_n[h] <= 1.0
            assert 0.0 <= cont.eh_dr_n[h] <= 1.0
    assert time.perf_counter() - t0 < 10.0


# 3 -------------------------------------------------------------------------------


def test_soe_recursion_telescopes_within_1e9_mwh_on_every_solved_day(solved_matrix):
    for key, (inputs, sol, _) in solved_matrix.items():
        t0 = time.perf_counter()
        spec, grid, cont = inputs.spec, inputs.grid, inputs.contents
        flows = []
        for t in range(grid.n_steps):
            h = t // grid.steps_per_hour
            flows.append(
                (spec.eta_ch * sol.ch_bl[h] - sol.ds_bl[h] / spec.eta_ds)
                * grid.dt_hours
                + (cont.e_dr_n[t] - cont.e_ur_n[t]) * sol.bid_n[h]
                + cont.e_dr_dd[t] * sol.bid_dd[h]
                - cont.e_ur_du[t] * sol.bid_du[h])
        drift = abs((sol.soe[-1] - inputs.s0) - math.fsum(flows))
        assert drift <= 1e-9, (key, drift)
        assert time.perf_counter() - t0 < 1.0


# 4 -------------------------------------------------------------------------------


def test_requirement_and_endurance_reaudit_finds_zero_violations_at_1e6(solved_matrix):
    for key, (inputs, sol, _) in solved_matrix.items():
        worst = audit_solution(inputs, sol)
        assert max(worst.values()) <= 1e-6, (key, worst)


# 5 -------------------------------------------------------------------------------


def test_external_micro_and_brute_force_agree_on_4_hour_toy_day():
    t0 = time.perf_counter()
    inputs = day_inputs(seed=7, case="MULTI", hours=4, steps_per_hour=4)
    assert inputs.spec.capacity == 1.0

    brute = brute_force_day(inputs)
    bound = discretization_bound(inputs)

    model, _, _ = solve_day(inputs)
    micro = get_backend("micro")(model, time_limit_s=600.0, mip_gap=1e-9)
    external = get_backend("external:" + STUB_CMD)(
        model, time_limit_s=600.0, mip_gap=1e-9)
    assert micro.ok and external.ok

    rel = abs(micro.objective - external.objective) / max(
        1.0, abs(external.objective))
    assert rel <= 1e-6
    assert external.objective >= brute - 1e-9
    assert external.objective <= brute + bound
    assert time.perf_counter() - t0 < 300.0


# 6 -------------------------------------------------------------------------------


def test_multi_market_dominates_and_dropping_deg_term_never_hurts(solved_matrix):
    for seed in MATRIX_SEEDS:
        profits = {case: solved_matrix[(seed, case, False)][2].objective
                   for case in CASES}
        single_best = max(profits[c] for c in CASES if c != "MULTI")
        assert profits["MULTI"] >= single_best - 1e-6, (seed, profits)
        for case in CASES:
            with_deg = solved_matrix[(seed, case, True)][2].objective
            without = solved_matrix[(seed, case, False)][2].objective
            assert without >= with_deg - 1e-6, (seed, case)


# 7 -------------------------------------------------------------------------------


def test_zero_baseline_fcrn_bid_capped_by_endurance_at_0p4_mw():
    spec = BatterySpec()
    fat = flat_prices(4, fcr_n=500.0)

    # still 50 Hz: state never moves, so every hour starts at 0.5 MWh and
    # the one-hour endurance window allows exactly 0.4 MW
    inputs = day_inputs(case="FCR_N", s0=0.5, prices=fat,
                        force_zero_baseline=True)
    flat_trace = FrequencyTrace(np.full(inputs.grid.n_steps, 50.0),
                                inputs.grid.n_steps)
    inputs = dataclasses.replace(
        inputs, contents=energy_content(flat_trace, inputs.grid))
    _, _, sol = solve_day(inputs)
    np.testing.assert_allclose(sol.bid_n, 0.4, atol=1e-6)
    assert np.all(np.abs(sol.ch_bl) <= 1e-9)
    assert np.all(np.abs(sol.ds_bl) <= 1e-9)

    # moving state: the bid of each hour obeys the window of that hour's start
    for s0 in (0.3, 0.5, 0.7):
        inputs = day_inputs(seed=11, case="FCR_N", s0=s0, prices=fat,
                            force_zero_baseline=True)
        _, _, sol = solve_day(inputs)
        for h in range(inputs.grid.hours):
            start = s0 if h == 0 else sol.soe[h - 1]
            cap = min(start - spec.soe_min, spec.soe_max - start) / 1.0
            assert sol.bid_n[h] <= cap + 1e-6, (s0, h)


# 8 -------------------------------------------------------------------------------


def test_pricing_degradation_reduces_realized_aging_in_6_of_7_seeds(tmp_path):
    t0 = time.perf_counter()
    base = RunConfig(case_id="MULTI", days=tuple(range(7)), steps_per_hour=4,
                     hours_per_day=24, solver="scipy", mip_gap=1e-4,
                     outdir=str(tmp_path))
    wins = []
    for seed in range(1, 8):
        cfg = dataclasses.replace(base, outdir=str(tmp_path / f"seed{seed}"))
        bundle = load_bundle(cfg, synthetic_seed=seed)
        deg = run_case(bundle, degradation_in_objective=True).totals()
        nod = run_case(bundle, degradation_in_objective=False).totals()
        aging_deg = deg["cal_cost"] + deg["cyc_cost"]
        aging_nod = nod["cal_cost"] + nod["cyc_cost"]
        wins.append(aging_deg <= aging_nod)
    assert sum(wins) >= 6, wins
    assert time.perf_counter() - t0 < 1800.0


# 9 -------------------------------------------------------------------------------


def test_calendar_secants_exact_at_breakpoints_and_cycle_fit_within_10pct():
    spec = BatterySpec()
    scale = eur_per_pct(spec)

    cal = linearize_calendar(spec, 30.0, 900.0)
    for frac in (0.0, 0.5, 0.7, 1.0):
        bp = frac * spec.capacity
        exact = scale * calendar_aging_step(spec, bp, 30.0, 900.0)
        assert abs(cal.cost_at(bp) - exact) <= 1e-12 * exact, frac
    for a, b in zip(cal.segments, cal.segments[1:]):
        join = a.slope_eur_per_mwh * a.hi_mwh + a.intercept_eur
        other = b.slope_eur_per_mwh * b.lo_mwh + b.intercept_eur
        assert abs(join - other) <= 1e-12 * abs(join)

    cyc = linearize_cycle(spec)
    assert cyc.max_rel_err <= 0.10  # the linearizer's own report
    co = spec.aging
    c0 = scale * co.q_poly_at_temp * co.ah_scale / spec.capacity
    full = c0 * spec.p_max * math.exp(co.q4 * spec.p_max / spec.capacity)
    for n in (50, 2000):  # the fit grid, then a much denser independent one
        p = np.linspace(0.1 * spec.p_max, spec.p_max, n)
        nonlin = c0 * p * np.exp(co.q4 * p / spec.capacity)
        err = float(np.max(np.abs(cyc.k_cyc * p - nonlin)) / full)
        assert err <= 0.10
        if n == 50:
            assert err == pytest.approx(cyc.max_rel_err, rel=1e-12)


# 10 ------------------------------------------------------------------------------


def test_battery_npv_matches_independent_value_63210_eur_within_10():
    value = battery_npv(BatterySpec())
    assert abs(value - 63210.0) <= 10.0
    # exact figure from an independent high-precision evaluation
    assert value == pytest.approx(63210.6115735084, abs=1e-6)


# 11 ------------------------------------------------------------------------------

SE3_FREQ = os.environ.get("FCRSCHED_SE3_FREQ")
SE3_PRICES = os.environ.get("FCRSCHED_SE3_PRICES")


@pytest.mark.skipif(
    not (SE3_FREQ and SE3_PRICES),
    reason="set FCRSCHED_SE3_FREQ and FCRSCHED_SE3_PRICES to run the "
           "full-year dataset check")
def test_full_year_multi_run_dominated_by_du_dd_and_beats_single_markets(tmp_path):
    cfg = RunConfig(case_id="MULTI", degradation_in_objective=True,
                    days=tuple(range(365)), steps_per_hour=60,
                    hours_per_day=24, solver="scipy", mip_gap=1e-4,
                    outdir=str(tmp_path / "year"),
                    frequency_csv=SE3_FREQ, prices_csv=SE3_PRICES)
    bundle = load_bundle(cfg)
    multi = run_case(bundle)
    assert multi.n_days == 365

    mix = multi.market_mix()
    assert mix["DU+DD"] > 0.5 * sum(mix.values())

    multi_profit = multi.annualized()["profit"]
    for case in ("FCR_N", "FCR_DU", "FCR_DD"):
        single = run_case(bundle, case_id=case)
        assert multi_profit > single.annualized()["profit"], case
