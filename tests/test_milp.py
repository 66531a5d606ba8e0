"""Model assembly: registry, sizes, rows, validation, extraction."""

from __future__ import annotations

import math

import numpy as np
import pytest

from fcrsched import (
    BatterySpec,
    DayInputs,
    InfeasibleBounds,
    InvalidParameter,
    MilpModel,
    RegistryMiss,
    build_day_model,
    extract_day_solution,
    model_size,
    solve_scipy,
)
from fcrsched.milp import validate_solution

from helpers import audit_solution, day_inputs, flat_prices, solve_day


# -- MilpModel mechanics ----------------------------------------------------

def test_variable_registry_and_bounds():
    m = MilpModel("t")
    i = m.add_variable("x", 0.0, 2.0)
    j = m.add_variable("y[k=1]", -1.0, 1.0)
    assert (i, j) == (0, 1)
    assert m.col("y[k=1]") == 1
    assert m.has("x") and not m.has("z")
    with pytest.raises(RegistryMiss):
        m.col("z")
    with pytest.raises(InvalidParameter):
        m.add_variable("x", 0.0, 1.0)            # duplicate
    with pytest.raises(InfeasibleBounds):
        m.add_variable("w", 2.0, 1.0)            # lo > hi
    with pytest.raises(InfeasibleBounds):
        m.add_variable("w", 0.0, math.inf)       # non-finite
    with pytest.raises(InvalidParameter):
        m.add_variable("w", 0.0, 2.0, binary=True)


def test_constraints_and_objective():
    m = MilpModel("t")
    x = m.add_variable("x", 0.0, 4.0)
    y = m.add_variable("y", 0.0, 4.0)
    m.add_constraint("r1", [(x, 1.0), (y, 2.0)], "<=", 6.0)
    with pytest.raises(InvalidParameter):
        m.add_constraint("r1", [(x, 1.0)], "<=", 1.0)   # duplicate row name
    with pytest.raises(InvalidParameter):
        m.add_constraint("r2", [(x, 1.0)], "<", 1.0)    # bad sense
    with pytest.raises(InvalidParameter):
        m.add_constraint("r2", [(7, 1.0)], "<=", 1.0)   # unknown column
    m.set_objective_coeff(x, 1.0)
    m.set_objective_coeff(x, 0.5)                       # accumulates
    m.set_objective_coeff(y, 2.0)
    m.objective_const = 3.0
    pt = np.array([2.0, 1.0])
    assert m.objective_value(pt) == pytest.approx(1.5 * 2 + 2.0 + 3.0)
    np.testing.assert_array_equal(m.objective_vector(), [1.5, 2.0])


def test_triplets_give_coordinates_and_row_bounds():
    m = MilpModel("t")
    x = m.add_variable("x", 0.0, 4.0)
    y = m.add_variable("y", 0.0, 4.0)
    m.add_constraint("le", [(x, 1.0), (y, 2.0)], "<=", 6.0)
    m.add_constraint("ge", [(y, -0.0)], ">=", 1.0)
    m.add_constraint("eq", [(y, 3.0), (x, -1.0)], "==", 2.0)
    rows, cols, vals, lo, hi = m.triplets()
    np.testing.assert_array_equal(rows, [0, 0, 1, 2, 2])
    np.testing.assert_array_equal(cols, [x, y, y, y, x])
    np.testing.assert_array_equal(vals, [1.0, 2.0, -0.0, 3.0, -1.0])
    assert math.copysign(1.0, vals[2]) == -1.0      # sign kept for export
    np.testing.assert_array_equal(lo, [-np.inf, 1.0, 2.0])
    np.testing.assert_array_equal(hi, [6.0, np.inf, 2.0])
    empty = MilpModel("e").triplets()
    assert [a.size for a in empty] == [0, 0, 0, 0, 0]


# -- DayInputs validation -----------------------------------------------------

def test_day_inputs_validation():
    good = day_inputs(hours=2)
    with pytest.raises(InvalidParameter):
        day_inputs(hours=2, case="NOPE")
    with pytest.raises(InfeasibleBounds):
        day_inputs(hours=2, s0=0.05)     # below the SoE window
    with pytest.raises(InvalidParameter):
        DayInputs(grid=good.grid, prices=good.prices, contents=good.contents,
                  spec=good.spec, s0=good.s0, case_id="MULTI",
                  degradation_in_objective=True)  # needs linearizations


def test_day_inputs_misaligned_contents():
    a = day_inputs(hours=2)
    b = day_inputs(hours=4)
    with pytest.raises(InvalidParameter):
        DayInputs(grid=a.grid, prices=a.prices, contents=b.contents,
                  spec=a.spec, s0=a.s0, case_id="MULTI")


# -- size formula -----------------------------------------------------------

@pytest.mark.parametrize("case", ["WO_FCR", "FCR_N", "FCR_DU", "FCR_DD", "MULTI"])
@pytest.mark.parametrize("positive_p_min", [False, True])
@pytest.mark.parametrize("deg", [False, True])
def test_model_size_formula(case, positive_p_min, deg):
    spec = BatterySpec(p_min=0.05 if positive_p_min else 0.0)
    inp = day_inputs(case=case, hours=3, steps_per_hour=4, spec=spec, deg=deg)
    m = build_day_model(inp)
    assert m.has("b_ch[t=0]") == positive_p_min
    assert m.has("z_cal[h=2,k=0]") == deg
    size = model_size(inp)
    assert m.n_vars == size["n_vars"]
    assert m.n_binaries == size["n_binaries"]
    assert m.n_rows == size["n_rows"]


def test_model_size_with_p_min():
    spec = BatterySpec(p_min=0.05)
    inp = day_inputs(hours=2, spec=spec)
    m = build_day_model(inp)
    size = model_size(inp)
    assert (m.n_vars, m.n_rows, m.n_binaries) == (
        size["n_vars"], size["n_rows"], size["n_binaries"])


def test_registry_names_unique_and_resolvable():
    inp = day_inputs(hours=2, deg=True)
    m = build_day_model(inp)
    assert len(set(m.var_names)) == m.n_vars
    assert len({r[0] for r in m.rows}) == m.n_rows
    for name in ("ch_bl[h=0]", "bid_n[h=1]", "p_ch[t=7]", "soe[t=0]",
                 "z_cal[h=1,k=2]", "s_cal[h=1,k=0]"):
        assert m.has(name)


# -- solved-model semantics ---------------------------------------------------

def test_objective_decomposition_matches_solver():
    inp = day_inputs(seed=21, hours=3)
    model, res, sol = solve_day(inp)
    parts = sol.r_da + sol.r_fcr - sol.c_da - sol.c_deg_lin
    assert parts == pytest.approx(res.objective, abs=1e-6)
    assert sol.objective == pytest.approx(res.objective, abs=1e-12)


def test_audit_clean_on_solved_days():
    for seed in (1, 2, 3):
        for case in ("MULTI", "FCR_N", "WO_FCR"):
            inp = day_inputs(seed=seed, case=case, hours=3)
            _, _, sol = solve_day(inp)
            worst = audit_solution(inp, sol)
            assert max(worst.values()) <= 1e-6, worst


def test_validator_flags_injected_violation():
    inp = day_inputs(seed=4, hours=2)
    model, res, sol = solve_day(inp)
    x = res.x.copy()
    x[model.col("soe[t=0]")] += 0.5      # break the recursion and bounds
    report = validate_solution(model, x)
    assert not report.ok
    assert "soe_rec" in report.worst_by_family()
    assert report.max_violation >= 0.25
    x = res.x.copy()
    x[model.col("p_ch[t=0]")] = np.nan      # a non-finite value never passes
    assert validate_solution(model, x).worst_by_family()["bounds"] == math.inf


def test_relaxed_split_never_overlaps():
    inp = day_inputs(seed=5, hours=3)
    assert inp.spec.p_min == 0.0
    model, _, sol = solve_day(inp)
    assert not model.has("b_ch[t=0]")
    assert float(np.min(sol.p_ch)) >= 0.0
    assert float(np.min(sol.p_ds)) >= 0.0
    assert float(np.max(sol.p_ch * sol.p_ds)) == 0.0


def test_disallowed_markets_forced_to_zero():
    inp = day_inputs(seed=6, case="FCR_DU", hours=3)
    _, _, sol = solve_day(inp)
    assert np.all(sol.bid_n == 0.0)
    assert np.all(sol.bid_dd == 0.0)


def test_force_zero_baseline():
    inp = day_inputs(seed=7, hours=3, force_zero_baseline=True)
    _, _, sol = solve_day(inp)
    assert np.all(sol.ch_bl == 0.0) and np.all(sol.ds_bl == 0.0)


def test_min_bid_semantics():
    # fat reserve prices force bids; each nonzero bid respects the floor
    inp = day_inputs(seed=8, hours=3,
                     prices=flat_prices(3, fcr_n=60.0, fcr_du=50.0, fcr_dd=40.0))
    _, _, sol = solve_day(inp)
    assert np.any(sol.bid_n > 0) or np.any(sol.bid_du > 0) or np.any(sol.bid_dd > 0)
    for arr in (sol.bid_n, sol.bid_du, sol.bid_dd):
        nz = arr[arr > 1e-9]
        assert np.all(nz >= 0.1 - 1e-9)


def test_degradation_term_in_objective():
    inp = day_inputs(seed=9, hours=2, deg=True)
    model, res, sol = solve_day(inp)
    # recompute the linear degradation charge from the extracted arrays
    dt_h, sph = inp.grid.dt_hours, inp.grid.steps_per_hour
    cyc = inp.cyc_lin.k_cyc * dt_h * float(np.sum(sol.p_ch + sol.p_ds))
    hour_means = sol.soe.reshape(inp.grid.hours, sph).mean(axis=1)
    cal = sum(sph * inp.cal_lin.cost_at(float(s)) for s in hour_means)
    assert sol.c_deg_lin == pytest.approx(cyc + cal, abs=1e-6)
    assert sol.c_deg_lin >= 0.0


def test_calendar_pieces_select_correct_segment():
    inp = day_inputs(seed=10, hours=2, deg=True)
    model, res, sol = solve_day(inp)
    segs = inp.cal_lin.segments
    sph = inp.grid.steps_per_hour
    for h in range(inp.grid.hours):
        z = [res.x[model.col(f"z_cal[h={h},k={k}]")] for k in range(3)]
        s = [res.x[model.col(f"s_cal[h={h},k={k}]")] for k in range(3)]
        assert sum(z) == pytest.approx(1.0, abs=1e-6)
        mean_soe = float(np.mean(sol.soe[h * sph:(h + 1) * sph]))
        assert sum(s) == pytest.approx(mean_soe, abs=1e-6)
        k = int(np.argmax(z))
        assert segs[k].lo_mwh - 1e-6 <= s[k] <= segs[k].hi_mwh + 1e-6


def test_extract_roundtrip_to_dict():
    inp = day_inputs(seed=11, hours=2)
    _, _, sol = solve_day(inp)
    from fcrsched import DaySolution
    clone = DaySolution.from_dict(sol.to_dict())
    np.testing.assert_array_equal(clone.soe, sol.soe)
    np.testing.assert_array_equal(clone.bid_n, sol.bid_n)
    assert clone.objective == sol.objective
    assert clone.status == sol.status


def test_validate_rejects_wrong_length():
    inp = day_inputs(hours=2)
    m = build_day_model(inp)
    with pytest.raises(InvalidParameter):
        validate_solution(m, np.zeros(3))


@pytest.mark.parametrize("steps_per_hour, expected", [
    (4, (672, 192, 888)),
    (60, (4704, 192, 3576)),
])
def test_model_size_of_a_default_multi_deg_day(steps_per_hour, expected):
    # no per-step binaries for the default battery: 3H calendar binaries,
    # 2H baseline and 3H minimum-bid binaries at any resolution
    inp = day_inputs(hours=24, steps_per_hour=steps_per_hour, deg=True)
    size = model_size(inp)
    assert (size["n_vars"], size["n_binaries"], size["n_rows"]) == expected
