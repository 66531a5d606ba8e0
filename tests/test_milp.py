"""Model assembly: registry, sizes, rows, validation, extraction."""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest

from fcrsched import (
    CASES,
    AgingCoefficients,
    BatterySpec,
    DayInputs,
    FrequencyTrace,
    InfeasibleBounds,
    InvalidParameter,
    MilpModel,
    RegistryMiss,
    TimeGrid,
    build_day_model,
    energy_content,
    extract_day_solution,
    model_size,
    solve_scipy,
    synth_frequency,
)
from fcrsched.milp import (
    VALIDATION_TOL,
    soe_step_deltas,
    soe_window_steps,
    step_net_power,
    step_soe,
    validate_solution,
)
from fcrsched.orchestrate import settle_day

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
    deg = day_inputs(hours=2, deg=True)
    for lin in ({"cal_lin": deg.cal_lin}, {"cyc_lin": deg.cyc_lin}):
        with pytest.raises(InvalidParameter):   # needs both linearizations
            DayInputs(grid=good.grid, prices=good.prices,
                      contents=good.contents, spec=good.spec, s0=good.s0,
                      case_id="MULTI", **lin)


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
    assert ("st_ch[t=0]" in m.row_names) == positive_p_min
    # realized power is never a column, and cycle aging is priced per hour
    assert not m.has("p_ch[t=0]") and not m.has("p_ds[t=0]")
    assert not any(name.startswith(("pin[", "st_up_", "st_lo_"))
                   for name in m.row_names)
    assert m.has("cyc[h=2]") == deg
    assert ("cyc_def[h=2]" in m.row_names) == deg
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
    fcrd = with_fcrd_activation(inp)
    assert_same_model(build_day_model(fcrd), loop_day_model(fcrd))


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


def with_fcrd_activation(inp: DayInputs) -> DayInputs:
    """`inp` on its synthetic trace, except that every third step sits at
    49.8 Hz (FCR-D up active) and every third step after it at 50.2 Hz
    (FCR-D down active)."""
    grid = inp.grid
    f = 50.0 + 0.01 * np.sin(np.arange(grid.n_steps))
    f[::3] = 49.8
    f[1::3] = 50.2
    trace = FrequencyTrace(f, grid.n_steps)
    return dataclasses.replace(inp, contents=energy_content(trace, grid))


def entries_by_row(m: MilpModel) -> dict[str, dict[int, float]]:
    rows, cols, vals, _, _ = m.triplets()
    out: dict[str, dict[int, float]] = {name: {} for name in m.row_names}
    for r, c, v in zip(rows.tolist(), cols.tolist(), vals.tolist()):
        out[m.row_names[r]][c] = v
    return out


@pytest.mark.parametrize("case", ["WO_FCR", "FCR_N", "FCR_DU", "FCR_DD", "MULTI"])
@pytest.mark.parametrize("positive_p_min", [False, True])
@pytest.mark.parametrize("deg", [False, True])
def test_day_model_holds_no_zero_entries(case, positive_p_min, deg):
    spec = BatterySpec(p_min=0.05 if positive_p_min else 0.0)
    synthetic = day_inputs(case=case, hours=3, steps_per_hour=4, spec=spec,
                           deg=deg)
    fcrd = with_fcrd_activation(synthetic)
    # the synthetic trace never activates FCR-D, the other one sometimes
    assert not synthetic.contents.e_dr_dd.any()
    assert not synthetic.contents.e_ur_du.any()
    for inp in (synthetic, fcrd):
        m = build_day_model(inp)
        assert m.triplets()[2].all()
        rows = entries_by_row(m)
        assert all(rows.values())
        # FCR-D bids enter the SoE after a step (its window row, or the
        # hour's recursion at the hour's last step) only where they have
        # activated since the hour began
        cont, sph = inp.contents, inp.grid.steps_per_hour

        def soe_row(t: int) -> str:
            return (f"soe_rec[h={t // sph}]" if t % sph == sph - 1
                    else f"soe_max[t={t}]")

        steps = [t for t in range(inp.grid.n_steps) if soe_row(t) in rows]
        if inp is fcrd:     # every step of an hour with FCR-D has its row
            assert steps == list(range(inp.grid.n_steps))
            assert all(f"soe_min[t={t}]" in rows for t in steps
                       if t % sph != sph - 1)
        for family, energy in (("bid_dd", cont.e_dr_dd),
                               ("bid_du", cont.e_ur_du)):
            so_far = energy.reshape(-1, sph).cumsum(axis=1).ravel()
            kept = [t for t in steps
                    if m.col(f"{family}[h={t // sph}]") in rows[soe_row(t)]]
            assert kept == [t for t in steps if so_far[t] != 0.0]
    assert 0 < np.count_nonzero(fcrd.contents.e_dr_dd) < fcrd.grid.n_steps
    assert 0 < np.count_nonzero(fcrd.contents.e_ur_du) < fcrd.grid.n_steps


@pytest.mark.parametrize("steps_per_hour", [4, 60])
def test_cal_link_is_the_hour_mean_of_the_soe_recursion(steps_per_hour):
    """For any hourly decisions, the SoE mean a `cal_link` row gives its
    calendar fills equals the mean of the SoE the recursion rolls forward."""
    inp = with_fcrd_activation(day_inputs(
        hours=3, steps_per_hour=steps_per_hour, deg=True, s0=0.4))
    grid = inp.grid
    m = build_day_model(inp)
    rng = np.random.default_rng(5)
    deltas = soe_step_deltas(inp.contents, inp.spec, grid.dt_hours)
    hour = np.arange(grid.n_steps) // steps_per_hour
    x = np.zeros(m.n_vars)
    soe = inp.s0 + np.zeros(grid.n_steps)
    for family, delta in deltas.items():
        values = rng.uniform(0.0, 1.0, grid.hours)
        x[[m.col(f"{family}[h={h}]") for h in range(grid.hours)]] = values
        soe += np.cumsum(delta * values[hour])
    x[[m.col(f"soe[h={h}]") for h in range(grid.hours)]] = \
        soe[steps_per_hour - 1::steps_per_hour]
    # with every fill at zero, a row's fills must sum to rhs - A @ x
    rows, cols, vals, _, _ = m.triplets()
    lhs = np.bincount(rows, weights=vals * x[cols], minlength=m.n_rows)
    for h in range(grid.hours):
        r = m.row_names.index(f"cal_link[h={h}]")
        mean = float(np.mean(soe[h * steps_per_hour:(h + 1) * steps_per_hour]))
        assert m.rhs[r] - lhs[r] == pytest.approx(mean, rel=1e-12, abs=0.0)


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
    for name in ("ch_bl[h=0]", "bid_n[h=1]", "cyc[h=1]", "soe[h=1]",
                 "d_cal[h=1,k=2]", "d_cal[h=1,k=0]", "y_cal[h=1,j=2]"):
        assert m.has(name)
    assert "cyc_def[h=1]" in m.row_names
    # the default secants fall only at the 0.7 breakpoint
    assert not m.has("y_cal[h=1,j=1]")
    # per-step charge/discharge binaries and their power bounds only for a
    # battery with a positive minimum power; its cycle price stays hourly
    assert not m.has("b_ch[t=7]") and "st_ch[t=7]" not in m.row_names
    m = build_day_model(day_inputs(hours=2, deg=True,
                                   spec=BatterySpec(p_min=0.05)))
    for name in ("b_ch[t=7]", "b_ds[t=7]", "soe[h=1]", "cyc[h=1]"):
        assert m.has(name)
    for name in ("st_ch[t=7]", "st_ds[t=7]", "st_excl[t=7]", "cyc_def[h=1]"):
        assert name in m.row_names
    assert not m.has("p_ch[t=7]") and "pin[t=7]" not in m.row_names


# -- solved-model semantics ---------------------------------------------------

def test_objective_decomposition_matches_solver():
    # every case in both modes: each money part, the stored decisions
    # priced, is its family's share of the solver's objective, and the
    # parts less the priced aging are that objective
    for case in CASES:
        for deg in (False, True):
            inp = day_inputs(seed=21, case=case, hours=4, deg=deg)
            model, res, sol = solve_day(inp)
            earned = model.objective_vector() * res.x
            for part, family, sign in (
                    ("r_da", "ds_bl", 1.0), ("c_da", "ch_bl", -1.0),
                    ("r_n", "bid_n", 1.0), ("r_du", "bid_du", 1.0),
                    ("r_dd", "bid_dd", 1.0)):
                share = math.fsum(earned[model.col(f"{family}[h={h}]")]
                                  for h in range(inp.grid.hours))
                assert getattr(sol, part) == pytest.approx(
                    sign * share, rel=1e-9), (case, deg, part)
            parts = sol.r_da + sol.r_fcr - sol.c_da - sol.c_deg_lin
            assert parts == pytest.approx(res.objective, rel=1e-9), (case,
                                                                      deg)
            assert sol.objective == pytest.approx(res.objective, abs=1e-12)
            assert (sol.c_deg_lin == 0.0) == (not deg)


def test_audit_clean_on_solved_days():
    for seed in (1, 2, 3):
        for case in ("MULTI", "FCR_N", "WO_FCR"):
            inp = day_inputs(seed=seed, case=case, hours=3)
            _, _, sol = solve_day(inp)
            worst = audit_solution(inp, sol)
            assert max(worst.values()) <= 1e-6, worst
            assert worst["soe_hour_end"] <= 1e-9, worst


def test_validator_flags_injected_violation():
    inp = day_inputs(seed=4, hours=2)
    model, res, sol = solve_day(inp)
    x = res.x.copy()
    x[model.col("soe[h=0]")] += 0.5      # break the recursion and bounds
    report = validate_solution(model, x)
    assert not report.ok
    assert "soe_rec" in report.worst_by_family()
    assert max(report.worst_by_family().values()) >= 0.25
    x = res.x.copy()
    x[model.col("ch_bl[h=0]")] = np.nan     # a non-finite value never passes
    assert validate_solution(model, x).worst_by_family()["bounds"] == math.inf


def test_relaxed_split_never_overlaps():
    inp = day_inputs(seed=5, hours=3)
    assert inp.spec.p_min == 0.0
    model, _, sol = solve_day(inp)
    assert not model.has("b_ch[t=0]")
    # each step charges, discharges or idles: solver noise below 1e-9 MW
    # reads as idle
    net = step_net_power(sol, inp.contents)
    assert np.all((net == 0.0) | (np.abs(net) >= 1e-9))


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


def solved_step_soe(model, x, inp) -> np.ndarray:
    """The per-step SoE of a point of the model: each hour's start (its
    `soe[h-1]` column, s0 in hour 0) plus the hour's decisions at their
    deltas summed from the hour's start."""
    grid = inp.grid
    sph = grid.steps_per_hour
    hour = np.arange(grid.n_steps) // sph
    ends = x[[model.col(f"soe[h={h}]") for h in range(grid.hours)]]
    soe = np.concatenate(([inp.s0], ends[:-1]))[hour]
    for family, delta in soe_step_deltas(inp.contents, inp.spec,
                                         grid.dt_hours).items():
        within = delta.reshape(grid.hours, sph).cumsum(axis=1).ravel()
        values = x[[model.col(f"{family}[h={h}]") for h in range(grid.hours)]]
        soe = soe + within * values[hour]
    return soe


def test_degradation_term_in_objective():
    inp = day_inputs(seed=9, hours=2, deg=True)
    model, res, sol = solve_day(inp)
    # recompute the linear degradation charge from the extracted arrays
    dt_h, sph = inp.grid.dt_hours, inp.grid.steps_per_hour
    cyc = inp.cyc_lin.k_cyc * dt_h * float(np.sum(
        hourly_cycle_bound(inp, sol)))
    hour_means = solved_step_soe(model, res.x, inp).reshape(
        inp.grid.hours, sph).mean(axis=1)
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


@pytest.mark.parametrize("case, p_min", [
    ("MULTI", 0.0), ("FCR_N", 0.0), ("FCR_DU", 0.0), ("FCR_DD", 0.0),
    ("MULTI", 0.05)], ids=["MULTI", "FCR_N", "FCR_DU", "FCR_DD", "MULTI_p_min"])
@pytest.mark.parametrize("deg", [False, True])
def test_hourly_cycle_price_bounds_the_rebuilt_throughput(case, p_min, deg):
    inp = day_inputs(seed=1, case=case, hours=24, steps_per_hour=4, deg=deg,
                     spec=BatterySpec(p_min=p_min))
    model, res, sol = solve_day(inp)
    # no per-step power column bounds the net power: req_up and req_dn do
    assert not model.has("p_ch[t=0]")
    net = step_net_power(sol, inp.contents)
    assert float(np.max(np.abs(net))) <= inp.spec.p_max + 1e-9
    if deg:
        k = inp.cyc_lin.k_cyc * inp.grid.dt_hours
        bound = float(np.sum(hourly_cycle_bound(inp, sol)))
        throughput = float(np.sum(np.abs(net)))
        priced = priced_cycle_cost(model, res, inp)
        assert priced == pytest.approx(k * bound, rel=1e-9, abs=1e-9)
        assert priced >= k * throughput - 4 * math.ulp(k * throughput)
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
    throughput = float(np.sum(np.abs(step_net_power(sol, inp.contents))))
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
    soe = step_soe(sol, inp)
    picks = set()
    for h in range(inp.grid.hours):
        d = [res.x[model.col(f"d_cal[h={h},k={k}]")] for k in range(3)]
        y = res.x[model.col(f"y_cal[h={h},j=2]")]
        mean_soe = float(np.mean(soe[h * sph:(h + 1) * sph]))
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
    hour_means = step_soe(sol, inp).reshape(
        inp.grid.hours, sph).mean(axis=1)
    assert hour_means.max() > inp.cal_lin.segments[2].lo_mwh
    cal = sum(sph * inp.cal_lin.cost_at(float(s)) for s in hour_means)
    assert sol.c_deg_lin == pytest.approx(cyc + cal, abs=1e-6)
    parts = sol.r_da + sol.r_fcr - sol.c_da - sol.c_deg_lin
    assert parts == pytest.approx(res.objective, abs=1e-6)


def test_extract_roundtrip_to_dict():
    inp = day_inputs(seed=11, hours=2, steps_per_hour=4)
    _, _, sol = solve_day(inp)
    from fcrsched import DaySolution
    # every stored array is hourly
    arrays = {k: len(v) for k, v in sol.to_dict().items()
              if isinstance(v, list)}
    assert arrays == dict.fromkeys(
        ("ch_bl", "ds_bl", "bid_n", "bid_du", "bid_dd", "soe"), 2)
    clone = DaySolution.from_dict(sol.to_dict())
    np.testing.assert_array_equal(clone.soe, sol.soe)
    np.testing.assert_array_equal(clone.bid_n, sol.bid_n)
    assert clone.objective == sol.objective
    assert clone.status == sol.status


@pytest.mark.parametrize("deg", [False, True], ids=["nodeg", "deg"])
def test_step_soe_is_the_solved_soe_columns(deg):
    inp = day_inputs(seed=3, hours=24, steps_per_hour=4, deg=deg)
    model, res, sol = solve_day(inp)
    rebuilt = step_soe(sol, inp)
    columns = solved_step_soe(model, res.x, inp)
    assert rebuilt.shape == (inp.grid.n_steps,)
    np.testing.assert_allclose(rebuilt, columns, rtol=0.0, atol=1e-9)
    # the hour ends are the solver's `soe[h]` columns
    np.testing.assert_allclose(
        columns[3::4], res.x[[model.col(f"soe[h={h}]")
                              for h in range(inp.grid.hours)]],
        rtol=0.0, atol=1e-9)
    # the stored SoE is the roll-forward's hour ends
    np.testing.assert_array_equal(sol.soe, rebuilt[3::4])


def test_extracted_soe_rolls_the_clamped_decisions_forward():
    # a solver value a little below 0, as HiGHS once left a `ds_bl`:
    # extraction clamps it to 0, while the solver's `soe[h]` columns roll
    # forward from the raw value; the stored SoE must be the clamped
    # decisions' own roll-forward
    inp = day_inputs(seed=3, hours=4, steps_per_hour=4, s0=0.5)
    model, res, _ = solve_day(inp)
    grid, spec, cont = inp.grid, inp.spec, inp.contents
    sph = grid.steps_per_hour
    x = res.x.copy()
    h = next(h for h in range(grid.hours)
             if x[model.col(f"ds_bl[h={h}]")] == 0.0)
    x[model.col(f"ds_bl[h={h}]")] = -3.3e-7
    per_step = 3.3e-7 * grid.dt_hours / spec.eta_ds
    for later in range(h, grid.hours):
        x[model.col(f"soe[h={later}]")] += per_step * sph
    assert validate_solution(model, x).ok
    sol = settle_day(extract_day_solution(
        model, dataclasses.replace(res, x=x), inp), inp, 30.0)
    assert sol.ds_bl[h] == 0.0
    hour = np.arange(grid.n_steps) // sph
    flows = ((spec.eta_ch * sol.ch_bl[hour] - sol.ds_bl[hour] / spec.eta_ds)
             * grid.dt_hours
             + (cont.e_dr_n - cont.e_ur_n) * sol.bid_n[hour]
             + cont.e_dr_dd * sol.bid_dd[hour]
             - cont.e_ur_du * sol.bid_du[hour])
    # acceptance test 3's telescoping identity and the re-audit's hour ends
    assert abs((sol.soe[-1] - inp.s0) - math.fsum(flows)) <= 1e-9
    assert audit_solution(inp, sol)["soe_hour_end"] <= 1e-9


def test_settled_money_is_the_clamped_decisions_priced():
    # a solver value a little below 0, within VALIDATION_TOL: the day
    # stores the decision as 0 and earns what that 0 earns, not what the
    # solver's point would
    inp = day_inputs(seed=3, hours=4, s0=BatterySpec().soe_min)
    model, res, _ = solve_day(inp)
    grid, spec = inp.grid, inp.spec
    x = res.x.copy()
    col = model.col("ds_bl[h=0]")
    assert x[col] == 0.0        # nothing to discharge at the SoE floor
    x[col] = -5e-7
    for h in range(grid.hours):
        x[model.col(f"soe[h={h}]")] += \
            5e-7 * grid.dt_hours / spec.eta_ds * grid.steps_per_hour
    assert validate_solution(model, x).ok
    sol = settle_day(extract_day_solution(
        model, dataclasses.replace(res, x=x), inp), inp, 30.0)
    assert sol.ds_bl[0] == 0.0
    sale = inp.prices.spot + inp.prices.tax
    assert sol.r_da == pytest.approx(math.fsum(sale * sol.ds_bl),
                                     rel=0.0, abs=1e-12)
    raw = math.fsum(sale[h] * x[model.col(f"ds_bl[h={h}]")]
                    for h in range(grid.hours))
    assert abs(sol.r_da - raw) > 1e-6
    assert sol.profit == pytest.approx(
        sol.r_da + sol.r_fcr - sol.c_da - sol.cal_cost - sol.cyc_cost,
        rel=0.0, abs=1e-12)


def test_validate_rejects_wrong_length():
    inp = day_inputs(hours=2)
    m = build_day_model(inp)
    with pytest.raises(InvalidParameter):
        validate_solution(m, np.zeros(3))


@pytest.mark.parametrize("steps_per_hour, expected", [
    (4, (384, 144, 704)),
    (60, (384, 144, 854)),
])
def test_model_size_of_a_default_multi_deg_day(steps_per_hour, expected):
    # no per-step column for the default battery, so the columns do not
    # depend on the resolution: H calendar binaries at the one falling
    # kink, 2H baseline and 3H minimum-bid binaries. The only rows that do
    # are the SoE window's, 56 of 2·3·24 interior steps at spH=4 and 206
    # of 2·59·24 at spH=60 on seed 1's day 0
    inp = day_inputs(seed=1, hours=24, steps_per_hour=steps_per_hour,
                     deg=True)
    size = model_size(inp)
    assert (size["n_vars"], size["n_binaries"], size["n_rows"]) == expected


# -- intra-hour SoE window ---------------------------------------------------

def window_row_steps(m: MilpModel, family: str) -> set[int]:
    """The steps t of a model's `family[t=...]` rows."""
    return {int(name[len(family) + 3:-1]) for name in m.row_names
            if name.startswith(family + "[")}


@pytest.mark.parametrize("steps_per_hour", [4, 60])
def test_kept_window_rows_bound_every_step_of_the_roll_forward(
        steps_per_hour):
    """For random hourly decisions >= 0 and start SoEs, each hour's highest
    and lowest step of the unclipped roll-forward is at a step with a
    `soe_max` / `soe_min` row, at the hour's end or at its start. So when
    every kept row and the hour-end bounds hold, every step is inside the
    window, also in the hours with FCR-D activation."""
    inp = day_inputs(seed=2, hours=6, steps_per_hour=steps_per_hour)
    grid, spec = inp.grid, inp.spec
    sph = grid.steps_per_hour
    f = synth_frequency(seed=2, grid=grid).values.copy()
    f[sph:2 * sph:3] = 49.8          # FCR-D up in hour 1
    f[4 * sph + 1:5 * sph:2] = 50.2  # FCR-D down in hour 4
    inp = dataclasses.replace(inp, contents=energy_content(
        FrequencyTrace(f, grid.n_steps), grid))
    cont = inp.contents
    fcrd = (cont.e_dr_dd + cont.e_ur_du).reshape(grid.hours, sph).any(axis=1)
    assert fcrd.tolist() == [False, True, False, False, True, False]
    m = build_day_model(inp)
    top, bottom = window_row_steps(m, "soe_max"), window_row_steps(m, "soe_min")
    assert (sorted(top), sorted(bottom)) == soe_window_steps(cont)
    interior = [t for t in range(grid.n_steps) if t % sph != sph - 1]
    for h in (1, 4):
        assert set(interior[h * (sph - 1):(h + 1) * (sph - 1)]) <= top & bottom
    if sph == 60:       # the hulls keep a few steps of the other hours
        assert len(top | bottom) < len(interior) // 2
    deltas = soe_step_deltas(cont, spec, grid.dt_hours)
    hour = np.arange(grid.n_steps) // sph
    caps = {"ch_bl": 1.0, "ds_bl": 1.0, "bid_n": 1.0, "bid_dd": 2.0,
            "bid_du": 2.0}
    rng = np.random.default_rng(27)
    for _ in range(200):
        s0 = rng.uniform(spec.soe_min, spec.soe_max)
        flow = sum(d * rng.uniform(0.0, caps[f], grid.hours)[hour]
                   for f, d in deltas.items())
        soe = s0 + np.cumsum(flow)
        for h in range(grid.hours):
            steps = range(h * sph, (h + 1) * sph)
            start = s0 if h == 0 else soe[h * sph - 1]
            hi = max([start, soe[steps[-1]]] + [soe[t] for t in steps
                                                 if t in top])
            lo = min([start, soe[steps[-1]]] + [soe[t] for t in steps
                                                 if t in bottom])
            assert soe[steps].max() <= hi + 1e-12
            assert soe[steps].min() >= lo - 1e-12


def test_a_front_loaded_activation_binds_mid_hour_and_every_step_row_is_implied(
        monkeypatch):
    # FCR-N up activates fully in hour 0's first two steps only. From the
    # window's bottom, a charging baseline must carry the bid through
    # them, so the SoE after step 1 sits at soe_min, the one row the hull
    # keeps in hour 0
    grid = TimeGrid(day_index=0, steps_per_hour=4, hours=2)
    f = np.full(grid.n_steps, 50.0)
    f[:2] = 49.9
    contents = energy_content(FrequencyTrace(f, grid.n_steps), grid)
    spec = BatterySpec()
    inp = DayInputs(grid=grid, prices=flat_prices(2, fcr_n=100.0),
                    contents=contents, spec=spec, s0=spec.soe_min,
                    case_id="FCR_N")
    assert soe_window_steps(contents) == ([], [1])
    model, res, sol = solve_day(inp)
    assert sol.bid_n[0] > 0.1 and sol.ch_bl[0] > 0.0
    soe = step_soe(sol, inp)
    assert soe[1] == pytest.approx(spec.soe_min, abs=1e-9)
    assert soe[3] > spec.soe_min + 0.1
    # the window rows of every step, appended, change no optimum
    full = build_day_model(inp)
    deltas = soe_step_deltas(contents, spec, grid.dt_hours)
    sph = grid.steps_per_hour
    for t in range(grid.n_steps):
        h, k = divmod(t, sph)
        if k == sph - 1:
            continue
        terms = [(full.col(f"soe[h={h - 1}]"), 1.0)] if h else []
        terms += [(full.col(f"{fam}[h={h}]"), float(d[h * sph:t + 1].sum()))
                  for fam, d in deltas.items()]
        terms = [(c, v) for c, v in terms if v != 0.0]
        const = inp.s0 if h == 0 else 0.0
        full.add_constraint(f"every_max[t={t}]", terms, "<=",
                            spec.soe_max - const)
        full.add_constraint(f"every_min[t={t}]", terms, ">=",
                            spec.soe_min - const)
    every = solve_scipy(full, mip_gap=1e-9)
    assert every.ok and validate_solution(full, every.x).ok
    assert abs(every.objective - res.objective) \
        <= 1e-9 * abs(res.objective)
    # and the kept row is needed: without it the bid grows
    monkeypatch.setattr("fcrsched.milp.soe_window_steps",
                        lambda contents: ([], []))
    loose = solve_scipy(build_day_model(inp), mip_gap=1e-9)
    assert loose.ok and loose.objective > res.objective + 0.01


def test_a_minute_resolution_multi_deg_day_stays_in_the_window():
    inp = day_inputs(seed=1, hours=24, steps_per_hour=60, deg=True)
    model = build_day_model(inp)
    res = solve_scipy(model, mip_gap=1e-4)
    assert res.ok and validate_solution(model, res.x).ok
    sol = settle_day(extract_day_solution(model, res, inp), inp, 30.0)
    worst = audit_solution(inp, sol)
    assert worst["soe_window"] <= 1e-9, worst
    assert max(worst.values()) <= VALIDATION_TOL, worst


# -- lazily enforced binaries ------------------------------------------------

@pytest.mark.parametrize("case", ["WO_FCR", "FCR_N", "FCR_DU", "FCR_DD", "MULTI"])
@pytest.mark.parametrize("deg", [False, True])
def test_lazy_binaries_agree_with_the_full_solve(case, deg):
    # seed 1 at 15-minute steps, days 0 and 1: the lazily enforced solve
    # is within mip_gap of the same model solved with every binary enforced
    from fcrsched import RunConfig, load_bundle, solve_scipy
    from fcrsched.orchestrate import day_inputs as horizon_day_inputs

    mip_gap = 1e-6
    cfg = RunConfig(case_id=case, steps_per_hour=4, days=(0, 1))
    bundle = load_bundle(cfg, synthetic_seed=1)
    for day in cfg.days:
        m = build_day_model(horizon_day_inputs(
            bundle, day, cfg.initial_soe, cfg.start_age_days + day, case, deg))
        assert m.relax_binaries_first
        lazy = solve_scipy(m, mip_gap=mip_gap)
        assert lazy.ok and validate_solution(m, lazy.x).ok
        assert lazy.gap <= mip_gap
        m.relax_binaries_first = False
        full = solve_scipy(m, mip_gap=mip_gap)
        assert full.ok and full.rounds == 1
        assert abs(lazy.objective - full.objective) \
            <= mip_gap * abs(full.objective) + 1e-9


def test_positive_p_min_day_model_is_one_full_solve(monkeypatch):
    import scipy.optimize

    from fcrsched import solve_scipy

    m = build_day_model(day_inputs(seed=2, case="MULTI", deg=True,
                                   spec=BatterySpec(p_min=0.05)))
    assert not m.relax_binaries_first
    real = scipy.optimize.milp
    calls = []

    def recording(*args, integrality=None, **kwargs):
        calls.append(np.array(integrality))
        return real(*args, integrality=integrality, **kwargs)

    monkeypatch.setattr("scipy.optimize.milp", recording)
    res = solve_scipy(m)
    assert res.ok and res.rounds == len(calls) == 1
    # the model's columns, then the objective constant's, which is continuous
    assert m.objective_const != 0.0
    assert calls[0][:m.n_vars].astype(bool).tolist() == m.is_binary
    assert calls[0][m.n_vars:].tolist() == [0]
