"""Model assembly: registry, sizes, rows, validation, extraction."""

from __future__ import annotations

import math

import numpy as np
import pytest

from fcrsched import (
    AgingCoefficients,
    BatterySpec,
    DayInputs,
    InfeasibleBounds,
    InvalidParameter,
    MilpModel,
    RegistryMiss,
    build_day_model,
    model_size,
)
from fcrsched.milp import validate_solution

from helpers import (
    audit_solution,
    day_inputs,
    flat_prices,
    hourly_cycle_bound,
    solve_day,
)
from reference_model import loop_day_model


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


def model_state(m: MilpModel):
    """Everything a family call may change, as plain values."""
    return (m.n_vars, m.n_rows, list(m.var_names), list(m.lb), list(m.ub),
            list(m.is_binary), {name: m.col(name) for name in m.var_names},
            list(m.row_names), list(m.row_senses), list(m.rhs),
            [a.tolist() for a in m.triplets()])


def small_model() -> MilpModel:
    m = MilpModel("t")
    m.add_variables(["x", "y"], 0.0, [2.0, 1.0])
    m.add_constraint("r1", [(0, 1.0), (1, 2.0)], "<=", 6.0)
    return m


# (family call, scalar call with the same fault or None, exception type)
FAMILY_FAULTS = {
    "duplicate_in_variable_family": (
        lambda m: m.add_variables(["a", "b", "a"], 0.0, 1.0),
        None, InvalidParameter),
    "duplicate_of_existing_variable": (
        lambda m: m.add_variables(["a", "x"], 0.0, 1.0),
        lambda m: m.add_variable("x", 0.0, 1.0), InvalidParameter),
    "non_finite_bound": (
        lambda m: m.add_variables(["a", "b"], 0.0, [1.0, math.inf]),
        lambda m: m.add_variable("b", 0.0, math.inf), InfeasibleBounds),
    "crossed_bounds": (
        lambda m: m.add_variables(["a", "b"], [0.0, 2.0], 1.0),
        lambda m: m.add_variable("b", 2.0, 1.0), InfeasibleBounds),
    "binary_outside_0_1": (
        lambda m: m.add_variables(["a", "b"], 0.0, [1.0, 2.0], binary=True),
        lambda m: m.add_variable("b", 0.0, 2.0, binary=True),
        InvalidParameter),
    "duplicate_in_row_family": (
        lambda m: m.add_constraints(["a", "b", "a"], [0, 1], [0, 1],
                                    [1.0, 1.0], "<=", 1.0),
        None, InvalidParameter),
    "duplicate_of_existing_row": (
        lambda m: m.add_constraints(["a", "r1"], [0, 1], [0, 1], [1.0, 1.0],
                                    "<=", 1.0),
        lambda m: m.add_constraint("r1", [(0, 1.0)], "<=", 1.0),
        InvalidParameter),
    "unknown_column": (
        lambda m: m.add_constraints(["a", "b"], [0, 1], [0, 7], [1.0, 1.0],
                                    "<=", 1.0),
        lambda m: m.add_constraint("b", [(7, 1.0)], "<=", 1.0),
        InvalidParameter),
    "bad_sense": (
        lambda m: m.add_constraints(["a", "b"], [0, 1], [0, 1], [1.0, 1.0],
                                    ["<=", "<"], 1.0),
        lambda m: m.add_constraint("b", [(0, 1.0)], "<", 1.0),
        InvalidParameter),
}


@pytest.mark.parametrize("fault", sorted(FAMILY_FAULTS))
def test_family_calls_refuse_like_scalar_ones_and_add_nothing(fault):
    family, scalar, exc = FAMILY_FAULTS[fault]
    m = small_model()
    before = model_state(m)
    with pytest.raises(exc):
        family(m)
    assert model_state(m) == before
    assert not m.has("a") and not m.has("b")
    if scalar is not None:
        with pytest.raises(exc):
            scalar(m)
        assert model_state(m) == before


def test_rows_view_equals_what_scalar_and_family_calls_added():
    m = MilpModel("t")
    x = m.add_variable("x", 0.0, 1.0)
    y, z = m.add_variables(["y", "z"], [0.0, -1.0], [1.0, 2.0],
                           binary=[True, False]).tolist()
    assert (m.var_names, m.lb, m.ub, m.is_binary) == (
        ["x", "y", "z"], [0.0, 0.0, -1.0], [1.0, 1.0, 2.0],
        [False, True, False])
    assert m.add_constraint("a", [(x, 1.0), (z, -2.0)], "<=", 3.0) == 0
    # entries may come in any row order; each row keeps the order it got
    assert m.add_constraints(["b", "c", "d"], [2, 0, 2, 0], [z, y, x, z],
                             [4.0, 5.0, -0.0, 6.0], [">=", "==", "<="],
                             [1.0, 2.0, 0.0]) == 1
    assert m.add_constraint("e", [], ">=", -1.0) == 4
    expected = (("a", [(x, 1.0), (z, -2.0)], "<=", 3.0),
                ("b", [(y, 5.0), (z, 6.0)], ">=", 1.0),
                ("c", [], "==", 2.0),
                ("d", [(z, 4.0), (x, -0.0)], "<=", 0.0),
                ("e", [], ">=", -1.0))
    assert m.rows == expected
    assert m.row_names == ["a", "b", "c", "d", "e"]
    # the view is rebuilt on each access: editing it leaves the model as is
    m.rows[0][1].append((y, 9.0))
    assert m.rows == expected
    rows, cols, vals, _, _ = m.triplets()
    np.testing.assert_array_equal(rows, [0, 0, 1, 1, 3, 3])
    assert math.copysign(1.0, vals[-1]) == -1.0
    with pytest.raises(ValueError):
        vals[0] = 2.0                        # the cached arrays are read-only
    m.add_constraint("f", [(y, 1.0)], "==", 1.0)
    assert m.triplets()[0].tolist() == [0, 0, 1, 1, 3, 3, 5]


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
    assert m.has("p_ch[t=0]") == positive_p_min
    assert ("pin[t=0]" in m.row_names) == positive_p_min
    assert m.has("cyc[h=2]") == (deg and not positive_p_min)
    assert m.has("d_cal[h=2,k=0]") == deg
    assert m.has("y_cal[h=2,j=2]") == deg
    size = model_size(inp)
    assert m.n_vars == size["n_vars"]
    assert m.n_binaries == size["n_binaries"]
    assert m.n_rows == size["n_rows"]


@pytest.mark.parametrize("case", ["MULTI", "FCR_N", "WO_FCR"])
@pytest.mark.parametrize("positive_p_min", [False, True])
@pytest.mark.parametrize("deg", [False, True])
def test_block_builder_matches_the_loop_reference(case, positive_p_min, deg):
    """Same columns, rows, entries and objective, in the same order and
    bit for bit, as the model built one row at a time."""
    spec = BatterySpec(p_min=0.05 if positive_p_min else 0.0)
    inp = day_inputs(case=case, hours=3, steps_per_hour=4, spec=spec,
                     deg=deg, s0=0.4, tax=2.0, grid_tariff=5.0)
    assert_same_model(build_day_model(inp), loop_day_model(inp))


def assert_same_model(got: MilpModel, ref: MilpModel) -> None:
    assert (got.name, got.var_names, got.lb, got.ub, got.is_binary) == \
        (ref.name, ref.var_names, ref.lb, ref.ub, ref.is_binary)
    assert (got.row_names, got.row_senses, got.rhs) == \
        (ref.row_names, ref.row_senses, ref.rhs)
    assert list(got.objective) == list(ref.objective)
    assert got.objective_const == ref.objective_const
    arrays = [(np.array(list(got.objective.values())),
               np.array(list(ref.objective.values())))]
    arrays += zip(got.triplets(), ref.triplets())
    for a, b in arrays:
        assert a.dtype == b.dtype
        np.testing.assert_array_equal(a, b)
        np.testing.assert_array_equal(np.signbit(a), np.signbit(b))


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
    for name in ("ch_bl[h=0]", "bid_n[h=1]", "cyc[h=1]", "soe[t=0]",
                 "d_cal[h=1,k=2]", "d_cal[h=1,k=0]", "y_cal[h=1,j=2]"):
        assert m.has(name)
    assert "cyc_def[h=1]" in m.row_names
    # the default secants fall only at the 0.7 breakpoint
    assert not m.has("y_cal[h=1,j=1]")
    # per-step powers, with their per-step cycle price, only for a battery
    # with a positive minimum power
    assert not m.has("p_ch[t=7]") and "pin[t=7]" not in m.row_names
    m = build_day_model(day_inputs(hours=2, deg=True,
                                   spec=BatterySpec(p_min=0.05)))
    for name in ("p_ch[t=7]", "p_ds[t=7]", "b_ch[t=7]", "soe[t=0]"):
        assert m.has(name)
    assert "pin[t=7]" in m.row_names
    assert not m.has("cyc[h=1]") and "cyc_def[h=1]" not in m.row_names


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
    x[model.col("ch_bl[h=0]")] = np.nan     # a non-finite value never passes
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
    cyc = inp.cyc_lin.k_cyc * dt_h * float(np.sum(
        hourly_cycle_bound(inp, sol)))
    hour_means = sol.soe.reshape(inp.grid.hours, sph).mean(axis=1)
    cal = sum(sph * inp.cal_lin.cost_at(float(s)) for s in hour_means)
    assert sol.c_deg_lin == pytest.approx(cyc + cal, abs=1e-6)
    assert sol.c_deg_lin >= 0.0


def opposed_excess(inp, sol) -> float:
    """Sum over the steps where the baseline and the activation point
    opposite ways of twice the smaller of the two magnitudes: by how much
    `|baseline| + |activation|` exceeds `|net|` there."""
    cont, hour = inp.contents, np.arange(inp.grid.n_steps) // \
        inp.grid.steps_per_hour
    base = (sol.ch_bl - sol.ds_bl)[hour]
    act = (sol.bid_n[hour] * (cont.frac_nd - cont.frac_nu)
           + sol.bid_dd[hour] * cont.frac_dd - sol.bid_du[hour] * cont.frac_du)
    return float(np.sum(np.where(base * act < 0.0,
                                 2.0 * np.minimum(abs(base), abs(act)), 0.0)))


def priced_cycle_cost(model, res, inp) -> float:
    cols = [model.col(f"cyc[h={h}]") for h in range(inp.grid.hours)]
    return -float(model.objective_vector()[cols] @ res.x[cols])


@pytest.mark.parametrize("case", ["MULTI", "FCR_N", "FCR_DU", "FCR_DD"])
@pytest.mark.parametrize("deg", [False, True])
def test_hourly_cycle_price_bounds_the_rebuilt_throughput(case, deg):
    inp = day_inputs(seed=1, case=case, hours=24, steps_per_hour=4, deg=deg)
    model, res, sol = solve_day(inp)
    # no per-step power column bounds the net power: req_up and req_dn do
    assert not model.has("p_ch[t=0]")
    assert float(np.max(np.abs(sol.p_ch - sol.p_ds))) <= inp.spec.p_max + 1e-9
    if deg:
        k = inp.cyc_lin.k_cyc * inp.grid.dt_hours
        bound = float(np.sum(hourly_cycle_bound(inp, sol)))
        throughput = float(np.sum(sol.p_ch + sol.p_ds))
        priced = priced_cycle_cost(model, res, inp)
        assert priced == pytest.approx(k * bound, rel=1e-9, abs=1e-9)
        assert priced >= k * throughput
        # the bound exceeds the throughput only where the baseline and the
        # activation oppose
        assert bound - throughput == pytest.approx(
            opposed_excess(inp, sol), abs=1e-9)


def test_hourly_cycle_price_is_strict_where_baseline_and_activation_oppose():
    # a high SoE, a 50 EUR/MWh spot price and a 60 EUR/MW FCR-N price: hour
    # 0 discharges its baseline and bids FCR-N, whose down activation in
    # three of the hour's steps charges
    inp = day_inputs(seed=1, case="FCR_N", hours=3, steps_per_hour=4,
                     deg=True, s0=0.9,
                     prices=flat_prices(3, spot=50.0, fcr_n=60.0))
    model, res, sol = solve_day(inp)
    assert sol.ds_bl[0] > 0.0 and sol.bid_n[0] > 0.0
    assert np.count_nonzero(inp.contents.frac_nd[:4]) == 3
    k = inp.cyc_lin.k_cyc * inp.grid.dt_hours
    bound = float(np.sum(hourly_cycle_bound(inp, sol)))
    throughput = float(np.sum(sol.p_ch + sol.p_ds))
    excess = opposed_excess(inp, sol)
    assert excess > 0.1
    assert bound - throughput == pytest.approx(excess, abs=1e-9)
    assert priced_cycle_cost(model, res, inp) == pytest.approx(
        k * bound, rel=1e-9, abs=1e-9)
    assert priced_cycle_cost(model, res, inp) > k * (throughput + 0.1)


def test_calendar_pieces_select_correct_segment():
    # hour means of 0.718, 0.5 and 0.232 MWh: the pick at 0.7 set once
    inp = day_inputs(seed=9, hours=3, deg=True, s0=0.9)
    model, res, sol = solve_day(inp)
    segs = inp.cal_lin.segments
    sph = inp.grid.steps_per_hour
    assert inp.cal_lin.falling_kinks == (2,)
    picks = set()
    for h in range(inp.grid.hours):
        d = [res.x[model.col(f"d_cal[h={h},k={k}]")] for k in range(3)]
        y = res.x[model.col(f"y_cal[h={h},j=2]")]
        mean_soe = float(np.mean(sol.soe[h * sph:(h + 1) * sph]))
        assert sum(d) == pytest.approx(mean_soe, abs=1e-6)
        # segments fill in order: full below the mean, empty above it
        for k, seg in enumerate(segs):
            fill = min(max(mean_soe - seg.lo_mwh, 0.0),
                       seg.hi_mwh - seg.lo_mwh)
            assert d[k] == pytest.approx(fill, abs=1e-6)
        assert y == pytest.approx(float(mean_soe > segs[2].lo_mwh), abs=1e-6)
        picks.add(round(y))
    assert picks == {0, 1}


# secants of the calendar pre-factor per span: (34.7, 155.3, 34.0) per
# percent by default; a larger c3 makes the last rise, the b3/c3 pair makes
# both fall (34.7, 22.0, 10.0)
KINK_PATTERNS = {
    "default_falls_at_0.7": (AgingCoefficients(), (2,)),
    "convex_at_both": (AgingCoefficients(c3=28035.0), ()),
    "falls_at_both": (AgingCoefficients(b3=28782.0, c3=18650.0), (1, 2)),
}


@pytest.mark.parametrize("pattern", sorted(KINK_PATTERNS))
def test_calendar_cost_exact_over_kink_patterns(pattern):
    aging, kinks = KINK_PATTERNS[pattern]
    # a 0.2 MW charger cannot bring hour 0's mean SoE below 0.7 from 0.9
    spec = BatterySpec(p_max=0.2, aging=aging)
    inp = day_inputs(seed=9, hours=3, deg=True, s0=0.9, spec=spec)
    assert inp.cal_lin.falling_kinks == kinks
    model, res, sol = solve_day(inp)
    assert_same_model(model, loop_day_model(inp))
    size = model_size(inp)
    assert (model.n_vars, model.n_binaries, model.n_rows) == (
        size["n_vars"], size["n_binaries"], size["n_rows"])
    assert sum(model.is_binary[model.col(f"y_cal[h=0,j={j}]")]
               for j in kinks) == len(kinks)
    assert size["n_binaries"] == model_size(day_inputs(
        seed=9, hours=3, s0=0.9, spec=spec))["n_binaries"] + 3 * len(kinks)
    dt_h, sph = inp.grid.dt_hours, inp.grid.steps_per_hour
    cyc = inp.cyc_lin.k_cyc * dt_h * float(np.sum(
        hourly_cycle_bound(inp, sol)))
    hour_means = sol.soe.reshape(inp.grid.hours, sph).mean(axis=1)
    assert hour_means.max() > inp.cal_lin.segments[2].lo_mwh
    cal = sum(sph * inp.cal_lin.cost_at(float(s)) for s in hour_means)
    assert sol.c_deg_lin == pytest.approx(cyc + cal, abs=1e-6)
    parts = sol.r_da + sol.r_fcr - sol.c_da - sol.c_deg_lin
    assert parts == pytest.approx(res.objective, abs=1e-6)


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
    (4, (456, 144, 720)),
    (60, (1800, 144, 2064)),
])
def test_model_size_of_a_default_multi_deg_day(steps_per_hour, expected):
    # no per-step powers or binaries for the default battery, so soe and
    # its recursion are the only per-step families: H calendar binaries at
    # the one falling kink, 2H baseline and 3H minimum-bid binaries at any
    # resolution
    inp = day_inputs(hours=24, steps_per_hour=steps_per_hour, deg=True)
    size = model_size(inp)
    assert (size["n_vars"], size["n_binaries"], size["n_rows"]) == expected
