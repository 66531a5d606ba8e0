"""Horizon orchestration: carry-over, checkpoints, resume, aggregation."""

from __future__ import annotations

import ast
import dataclasses
import json
import math
import os
from types import SimpleNamespace

import numpy as np
import pytest

from fcrsched import (
    CASES,
    DataBundle,
    DaySolution,
    HorizonResult,
    MIX_LABELS,
    RunConfig,
    classify_market_mix,
    load_bundle,
    load_horizon,
    run_case,
    run_matrix,
    solve_scipy,
    synth_frequency,
    synth_prices,
)
from fcrsched.errors import (
    AlignmentError,
    ConfigError,
    DataError,
    InvalidParameter,
    MissingFile,
    SolverFailure,
)
from fcrsched import orchestrate
from fcrsched.milp import DayPlan, step_net_power
from fcrsched.orchestrate import calendar_age, settle_day
from fcrsched.solvers import SolveResult

from helpers import audit_solution, toy_config


def counting_backend(calls: list):
    """A scipy-backed solver callable that records every invocation."""

    def backend(model, time_limit_s=600.0, mip_gap=1e-6):
        calls.append(model)
        return solve_scipy(model, time_limit_s=time_limit_s, mip_gap=mip_gap)

    return backend


def patch_backend(monkeypatch, backend):
    monkeypatch.setattr("fcrsched.orchestrate.get_backend", lambda name: backend)


# -- single-case runs ----------------------------------------------------------


def test_run_case_profit_and_totals(tmp_path):
    cfg = toy_config(tmp_path, days=(0, 1))
    res = run_case(load_bundle(cfg, synthetic_seed=7), resume=False)

    assert res.case_id == "MULTI"
    assert res.degmode == "nodeg"
    assert res.n_days == 2
    for sol in res.days:
        # post-calculated aging must be attached and priced into profit
        assert math.isfinite(sol.cal_cost) and sol.cal_cost > 0.0
        assert math.isfinite(sol.cyc_cost) and sol.cyc_cost >= 0.0
        expected = sol.r_da + sol.r_fcr - sol.c_da - sol.cal_cost - sol.cyc_cost
        assert sol.profit == pytest.approx(expected, abs=1e-12)

    tot = res.totals()
    for key in ("r_da", "r_fcr", "c_da", "cal_cost", "cyc_cost", "profit"):
        assert tot[key] == pytest.approx(
            sum(getattr(s, key) for s in res.days), abs=1e-12)
    assert tot["aging_pct"] == pytest.approx(tot["cal_pct"] + tot["cyc_pct"])

    ann = res.annualized()
    for key, val in tot.items():
        assert ann[key] == pytest.approx(val * 365.0 / 2.0)
    assert res.aging_pct_per_year == pytest.approx(ann["aging_pct"])


def test_run_case_carries_final_soe_forward(tmp_path):
    cfg = toy_config(tmp_path, days=(0, 1, 2))
    res = run_case(load_bundle(cfg, synthetic_seed=7), resume=False)
    assert res.days[0].s0 == pytest.approx(cfg.initial_soe, abs=1e-12)
    for prev, nxt in zip(res.days, res.days[1:]):
        assert nxt.s0 == float(prev.soe[-1])


def test_run_case_solutions_pass_physical_audit(tmp_path):
    cfg = toy_config(tmp_path, days=(0, 1))
    bundle = load_bundle(cfg, synthetic_seed=7)
    res = run_case(bundle, resume=False)
    s0 = cfg.initial_soe
    for k, sol in enumerate(res.days):
        inputs = orchestrate.day_inputs(
            bundle, k, s0, calendar_age(cfg, k), cfg.case_id,
            cfg.degradation_in_objective)
        worst = audit_solution(inputs, sol)
        assert max(worst.values()) <= 1e-6, worst
        assert worst["soe_hour_end"] <= 1e-9, worst
        s0 = float(sol.soe[-1])


def test_run_case_degradation_mode(tmp_path):
    cfg = toy_config(tmp_path, degradation_in_objective=True, days=(0, 1),
                     relinearize_daily=True, start_age_days=10.0)
    res = run_case(load_bundle(cfg, synthetic_seed=7), resume=False)
    assert res.degmode == "deg"
    for sol in res.days:
        assert sol.c_deg_lin >= 0.0
        assert math.isfinite(sol.profit)


def test_run_case_rejects_unknown_case(tmp_path):
    cfg = toy_config(tmp_path)
    with pytest.raises(InvalidParameter):
        run_case(load_bundle(cfg, synthetic_seed=7), case_id="BOGUS")


def test_run_case_writes_horizon_summary(tmp_path):
    cfg = toy_config(tmp_path)
    res = run_case(load_bundle(cfg, synthetic_seed=7), resume=False)
    path = os.path.join(str(tmp_path), "MULTI_nodeg", "horizon.json")
    with open(path) as fh:
        payload = json.load(fh)
    assert payload["case_id"] == "MULTI"
    assert payload["config_hash"] == cfg.config_hash()
    assert payload["totals"]["profit"] == pytest.approx(res.totals()["profit"])
    assert set(payload["market_mix"]) == set(MIX_LABELS)
    assert payload["days"] == [0]


# -- checkpointing and resume --------------------------------------------------


def test_resume_reuses_checkpoints(tmp_path, monkeypatch):
    cfg = toy_config(tmp_path, days=(0, 1))
    bundle = load_bundle(cfg, synthetic_seed=7)
    calls: list = []
    patch_backend(monkeypatch, counting_backend(calls))

    first = run_case(bundle)
    assert len(calls) == 2

    second = run_case(bundle)
    assert len(calls) == 2  # nothing re-solved
    assert second.totals() == pytest.approx(first.totals())
    for a, b in zip(first.days, second.days):
        np.testing.assert_allclose(a.soe, b.soe)
        assert a.objective == pytest.approx(b.objective)


def test_day_solution_keeps_highs_node_count(tmp_path, monkeypatch):
    cfg = toy_config(tmp_path, degradation_in_objective=True)
    results: list = []

    def recording_backend(model, time_limit_s=600.0, mip_gap=1e-6):
        results.append(solve_scipy(model, time_limit_s=time_limit_s,
                                   mip_gap=mip_gap))
        return results[-1]

    patch_backend(monkeypatch, recording_backend)
    sol = run_case(load_bundle(cfg, synthetic_seed=7)).days[0]
    assert sol.nodes == results[0].nodes
    assert sol.rounds == results[0].rounds >= 1
    ckpt = tmp_path / "MULTI_deg" / "day_0000.json"
    payload = json.loads(ckpt.read_text())
    assert payload["solution"]["nodes"] == sol.nodes
    assert payload["solution"]["rounds"] == sol.rounds
    # a checkpoint written before the field existed still loads
    del payload["solution"]["nodes"]
    assert DaySolution.from_dict(payload["solution"]).nodes == 0
    del payload["solution"]["rounds"]
    assert DaySolution.from_dict(payload["solution"]).rounds == 0


def test_resume_solves_only_missing_days(tmp_path, monkeypatch):
    cfg = toy_config(tmp_path, days=(0, 1, 2))
    bundle = load_bundle(cfg, synthetic_seed=7)
    calls: list = []
    patch_backend(monkeypatch, counting_backend(calls))

    run_case(bundle)
    assert len(calls) == 3
    os.remove(os.path.join(str(tmp_path), "MULTI_nodeg", "day_0001.json"))
    run_case(bundle)
    assert len(calls) == 4  # only the deleted day was recomputed


def test_horizon_summary_counts_solver_work_of_this_call(tmp_path,
                                                       monkeypatch):
    cfg = toy_config(tmp_path, days=(0, 1, 2))
    bundle = load_bundle(cfg, synthetic_seed=7)

    def fixed_cost_backend(model, time_limit_s=600.0, mip_gap=1e-6):
        res = solve_scipy(model, time_limit_s=time_limit_s, mip_gap=mip_gap)
        return dataclasses.replace(res, wall_time=1.25, nodes=3, rounds=2)

    patch_backend(monkeypatch, fixed_cost_backend)
    path = os.path.join(str(tmp_path), "MULTI_nodeg", "horizon.json")

    def summary():
        with open(path) as fh:
            payload = json.load(fh)
        return (payload["solver_s"], payload["nodes"], payload["rounds"],
                payload["reused_days"])

    run_case(bundle)                                    # fresh
    assert summary() == (3.75, 9, 6, 0)
    os.remove(os.path.join(str(tmp_path), "MULTI_nodeg", "day_0001.json"))
    run_case(bundle)                                    # resumed
    assert summary() == (1.25, 3, 2, 2)
    run_case(bundle)                                    # nothing to solve
    assert summary() == (0, 0, 0, 3)


def test_resume_disabled_recomputes_everything(tmp_path, monkeypatch):
    cfg = toy_config(tmp_path, days=(0, 1))
    bundle = load_bundle(cfg, synthetic_seed=7)
    calls: list = []
    patch_backend(monkeypatch, counting_backend(calls))
    run_case(bundle)
    run_case(bundle, resume=False)
    assert len(calls) == 4


def test_checkpoint_stale_when_data_changes(tmp_path, monkeypatch):
    cfg = toy_config(tmp_path)
    calls: list = []
    patch_backend(monkeypatch, counting_backend(calls))
    run_case(load_bundle(cfg, synthetic_seed=7))
    assert len(calls) == 1
    # same config, different synthetic data: the checkpoint must not be trusted
    run_case(load_bundle(cfg, synthetic_seed=11))
    assert len(calls) == 2


def test_checkpoint_stale_when_config_changes(tmp_path, monkeypatch):
    calls: list = []
    patch_backend(monkeypatch, counting_backend(calls))
    run_case(load_bundle(toy_config(tmp_path), synthetic_seed=7))
    assert len(calls) == 1
    # tax enters both the config hash and the price data
    run_case(load_bundle(toy_config(tmp_path, tax=1.5), synthetic_seed=7))
    assert len(calls) == 2


def test_checkpoint_stale_when_carry_over_drifts(tmp_path, monkeypatch):
    cfg = toy_config(tmp_path, days=(0, 1))
    bundle = load_bundle(cfg, synthetic_seed=7)
    calls: list = []
    patch_backend(monkeypatch, counting_backend(calls))
    run_case(bundle)
    assert len(calls) == 2

    # tamper with day 0's final state: day 1's stored s0 no longer matches
    path = os.path.join(str(tmp_path), "MULTI_nodeg", "day_0000.json")
    with open(path) as fh:
        payload = json.load(fh)
    payload["solution"]["soe"][-1] += 0.01
    with open(path, "w") as fh:
        json.dump(payload, fh)

    res = run_case(bundle)
    assert len(calls) == 3  # day 0 reused (hashes match), day 1 re-solved
    assert res.days[1].s0 == pytest.approx(payload["solution"]["soe"][-1])


def test_corrupt_checkpoint_is_recomputed(tmp_path, monkeypatch):
    cfg = toy_config(tmp_path)
    bundle = load_bundle(cfg, synthetic_seed=7)
    calls: list = []
    patch_backend(monkeypatch, counting_backend(calls))
    run_case(bundle)
    path = os.path.join(str(tmp_path), "MULTI_nodeg", "day_0000.json")
    for text in ("{not json", "[]"):
        with open(path, "w") as fh:
            fh.write(text)
        run_case(bundle)
    assert len(calls) == 3


# valid JSON with matching hashes whose solution does not rebuild a day
CHECKPOINT_DAMAGE = {
    "solution_missing": lambda payload: payload.pop("solution"),
    "field_missing": lambda payload: payload["solution"].pop("soe"),
    "unknown_key": lambda payload: payload["solution"].update(extra=1.0),
    "soe_empty": lambda payload: payload["solution"].update(soe=[]),
    # the format that stored the SoE of every step, T = 4 hours x 4 steps
    "soe_per_step": lambda payload: payload["solution"].update(
        soe=np.repeat(payload["solution"]["soe"], 4).tolist()),
}


def edit_checkpoint(path: str, edit) -> None:
    """Apply `edit` to the checkpoint's payload in place."""
    with open(path) as fh:
        payload = json.load(fh)
    edit(payload)
    with open(path, "w") as fh:
        json.dump(payload, fh)


@pytest.mark.parametrize("kind", sorted(CHECKPOINT_DAMAGE))
def test_damaged_checkpoint_is_resolved_on_resume_and_refused_by_load(
        tmp_path, monkeypatch, kind):
    cfg = toy_config(tmp_path, case_id="WO_FCR", days=(0, 1))
    bundle = load_bundle(cfg, synthetic_seed=7)
    calls: list = []
    patch_backend(monkeypatch, counting_backend(calls))
    first = run_case(bundle)
    path = os.path.join(str(tmp_path), "WO_FCR_nodeg", "day_0000.json")
    edit_checkpoint(path, CHECKPOINT_DAMAGE[kind])

    with pytest.raises(DataError, match=r"day_0000\.json.* day 0 is damaged"):
        load_horizon(cfg, "WO_FCR", False)
    second = run_case(bundle)
    assert len(calls) == 3          # day 0 re-solved, day 1 reused
    assert second.totals() == pytest.approx(first.totals())
    assert load_horizon(cfg, "WO_FCR", False).totals() == pytest.approx(
        first.totals())


def test_checkpoint_with_stored_step_powers_is_solved_again(tmp_path,
                                                            monkeypatch):
    """Day solutions once stored each step's charge and discharge power as
    `p_ch` and `p_ds`. A checkpoint that still holds them is recomputed
    once: `run_case` solves its day again and rewrites it without them,
    and `load_horizon` refuses it."""
    cfg = toy_config(tmp_path, degradation_in_objective=True)
    bundle = load_bundle(cfg, synthetic_seed=7)
    calls: list = []
    patch_backend(monkeypatch, counting_backend(calls))
    first = run_case(bundle)
    run_dir = os.path.join(str(tmp_path), "MULTI_deg")
    path = os.path.join(run_dir, "day_0000.json")
    with open(path) as fh:
        assert set(json.load(fh)["solution"]) == {
            f.name for f in dataclasses.fields(DaySolution)}
    inputs = orchestrate.day_inputs(bundle, 0, cfg.initial_soe,
                                    calendar_age(cfg, 0), "MULTI", True)
    net = step_net_power(first.days[0], inputs.contents)
    edit_checkpoint(path, lambda payload: payload["solution"].update(
        p_ch=np.maximum(net, 0.0).tolist(),
        p_ds=np.maximum(-net, 0.0).tolist()))

    with pytest.raises(DataError, match=r"day_0000\.json.* day 0 is damaged"):
        load_horizon(cfg, "MULTI", True)
    second = run_case(bundle)
    assert len(calls) == 2
    with open(os.path.join(run_dir, "horizon.json")) as fh:
        assert json.load(fh)["reused_days"] == 0
    with open(path) as fh:
        solution = json.load(fh)["solution"]
    assert "p_ch" not in solution and "p_ds" not in solution
    assert second.totals()["profit"] == first.totals()["profit"]
    assert load_horizon(cfg, "MULTI", True).totals() == second.totals()


def test_solver_failure_keeps_completed_days(tmp_path, monkeypatch):
    cfg = toy_config(tmp_path, days=(0, 1))
    bundle = load_bundle(cfg, synthetic_seed=7)
    solved = 0

    def flaky(model, time_limit_s=600.0, mip_gap=1e-6):
        nonlocal solved
        if solved >= 1:
            return SolveResult(status="Infeasible", x=None, objective=None,
                               gap=math.inf, wall_time=0.0, backend="fake",
                               message="no feasible point")
        solved += 1
        return solve_scipy(model, mip_gap=mip_gap)

    patch_backend(monkeypatch, flaky)
    with pytest.raises(SolverFailure) as exc:
        run_case(bundle)
    assert exc.value.day == 1
    assert "Infeasible" in str(exc.value)

    run_dir = os.path.join(str(tmp_path), "MULTI_nodeg")
    assert os.path.exists(os.path.join(run_dir, "day_0000.json"))
    assert not os.path.exists(os.path.join(run_dir, "day_0001.json"))
    with open(os.path.join(run_dir, "failure.json")) as fh:
        failure = json.load(fh)
    assert failure["day"] == 1
    assert failure["status"] == "Infeasible"
    assert "no feasible point" in failure["message"]


def test_invalid_optimum_is_recorded_with_its_worst_row_family(tmp_path,
                                                                monkeypatch):
    cfg = toy_config(tmp_path)
    bundle = load_bundle(cfg, synthetic_seed=7)

    def breaks_soe_rec(model, time_limit_s=600.0, mip_gap=1e-6):
        # the optimum with hour 0's end SoE moved 0.01 MWh inside its window
        res = solve_scipy(model, mip_gap=mip_gap)
        x = res.x.copy()
        col = model.col("soe[h=0]")
        x[col] += -0.01 if x[col] > 0.5 else 0.01
        return dataclasses.replace(res, x=x)

    patch_backend(monkeypatch, breaks_soe_rec)
    with pytest.raises(SolverFailure) as exc:
        run_case(bundle)
    assert exc.value.day == 0
    assert exc.value.status == "InvalidSolution"
    assert "solution violates" in str(exc.value)

    run_dir = os.path.join(str(tmp_path), "MULTI_nodeg")
    assert not os.path.exists(os.path.join(run_dir, "day_0000.json"))
    with open(os.path.join(run_dir, "failure.json")) as fh:
        failure = json.load(fh)
    assert failure["day"] == 0
    assert failure["status"] == "InvalidSolution"
    worst = ast.literal_eval(failure["message"])
    assert failure["message"] == exc.value.detail
    assert "bounds" not in worst
    # the moved column breaks its own recursion row by exactly the move,
    # and no row by more
    assert worst["soe_rec"] == pytest.approx(0.01, rel=1e-9)
    assert max(worst.values()) == pytest.approx(0.01, rel=1e-9)


def test_completed_rerun_removes_stale_failure(tmp_path, monkeypatch):
    cfg = toy_config(tmp_path, case_id="FCR_N", days=(0, 1))
    bundle = load_bundle(cfg, synthetic_seed=7)

    def times_out_on_day_1(model, time_limit_s=600.0, mip_gap=1e-6):
        if model.name.startswith("day1_"):
            return SolveResult(status="TimeLimit", x=None, objective=None,
                               gap=math.inf, wall_time=0.0, backend="fake",
                               message="time limit reached")
        return solve_scipy(model, mip_gap=mip_gap)

    patch_backend(monkeypatch, times_out_on_day_1)
    with pytest.raises(SolverFailure):
        run_case(bundle)
    run_dir = os.path.join(str(tmp_path), "FCR_N_nodeg")
    assert os.path.exists(os.path.join(run_dir, "failure.json"))

    patch_backend(monkeypatch, counting_backend([]))
    run_case(bundle)
    assert os.path.exists(os.path.join(run_dir, "horizon.json"))
    assert not os.path.exists(os.path.join(run_dir, "failure.json"))


def test_reused_days_are_neither_post_calculated_nor_rewritten(tmp_path,
                                                                monkeypatch):
    cfg = toy_config(tmp_path, days=(0, 1), degradation_in_objective=True)
    bundle = load_bundle(cfg, synthetic_seed=7)
    first = run_case(bundle)

    calls: list = []
    for name in ("post_calculate_aging", "_write_checkpoint"):
        real = getattr(orchestrate, name)
        monkeypatch.setattr(
            orchestrate, name,
            lambda *args, _name=name, _real=real: calls.append(_name)
            or _real(*args))
    second = run_case(bundle)
    assert calls == []
    assert second.totals() == first.totals()


@pytest.mark.parametrize("deg", [False, True], ids=["nodeg", "deg"])
def test_every_checkpoint_is_its_stored_decisions_settled(tmp_path, deg):
    # the money, SoE, aging and profit a checkpoint holds are what settling
    # its stored decisions again on the day's inputs gives, bit for bit
    cfg = toy_config(tmp_path, days=(0, 1), degradation_in_objective=deg)
    bundle = load_bundle(cfg, synthetic_seed=7)
    run_case(bundle)
    s0 = cfg.initial_soe
    for k, day in enumerate(cfg.days):
        path = tmp_path / f"MULTI_{'deg' if deg else 'nodeg'}" / \
            f"day_{day:04d}.json"
        stored = DaySolution.from_dict(json.loads(path.read_text())["solution"])
        inputs = orchestrate.day_inputs(bundle, day, s0, calendar_age(cfg, k),
                                        "MULTI", deg)
        plan = DayPlan(**{f: getattr(stored, f) for f in DayPlan._fields})
        again = settle_day(plan, inputs, cfg.start_age_days + float(k))
        assert again.to_dict() == stored.to_dict()
        s0 = float(stored.soe[-1])


# -- load_horizon ----------------------------------------------------------------


def test_load_horizon_roundtrip(tmp_path):
    cfg = toy_config(tmp_path, days=(0, 1))
    res = run_case(load_bundle(cfg, synthetic_seed=7), resume=False)
    loaded = load_horizon(cfg, "MULTI", False)
    assert loaded.n_days == res.n_days
    assert loaded.totals() == pytest.approx(res.totals())
    for a, b in zip(res.days, loaded.days):
        np.testing.assert_allclose(a.soe, b.soe)
        np.testing.assert_allclose(a.bid_n, b.bid_n)
        assert a.profit == pytest.approx(b.profit)


def test_load_horizon_opens_each_checkpoint_once(tmp_path, monkeypatch):
    cfg = toy_config(tmp_path, days=(0, 1))
    run_case(load_bundle(cfg, synthetic_seed=7), resume=False)
    opened: list = []
    monkeypatch.setattr(orchestrate, "open", lambda path, *a, **kw:
                        opened.append(os.path.basename(path))
                        or open(path, *a, **kw), raising=False)
    load_horizon(cfg, "MULTI", False)
    assert opened == ["day_0000.json", "day_0001.json"]


def test_load_horizon_missing_day(tmp_path):
    cfg = toy_config(tmp_path, days=(0, 1))
    run_case(load_bundle(cfg, synthetic_seed=7), resume=False)
    os.remove(os.path.join(str(tmp_path), "MULTI_nodeg", "day_0001.json"))
    with pytest.raises(MissingFile, match="never solved"):
        load_horizon(cfg, "MULTI", False)


def test_load_horizon_rejects_foreign_config(tmp_path):
    cfg = toy_config(tmp_path)
    run_case(load_bundle(cfg, synthetic_seed=7), resume=False)
    other = toy_config(tmp_path, mip_gap=1e-4)
    with pytest.raises(ConfigError, match="different configuration"):
        load_horizon(other, "MULTI", False)


def test_load_horizon_rejects_days_from_another_data_set(tmp_path, monkeypatch):
    """A rerun on other data that stops after day 0 leaves days 1-2 of the
    first data set behind; they must not be reported with the new day 0."""
    cfg = toy_config(tmp_path, days=(0, 1, 2))
    run_case(load_bundle(cfg, synthetic_seed=7))
    calls: list = []

    def interrupted(model, time_limit_s=600.0, mip_gap=1e-6):
        calls.append(model)
        if len(calls) > 1:
            raise RuntimeError("interrupted")
        return solve_scipy(model, time_limit_s=time_limit_s, mip_gap=mip_gap)

    patch_backend(monkeypatch, interrupted)
    with pytest.raises(RuntimeError, match="interrupted"):
        run_case(load_bundle(cfg, synthetic_seed=9))
    with pytest.raises(ConfigError, match="day 1"):
        load_horizon(cfg, "MULTI", False)


def test_load_horizon_names_the_other_configuration_hash(tmp_path):
    cfg = toy_config(tmp_path, case_id="WO_FCR")
    run_case(load_bundle(cfg, synthetic_seed=7))
    other = toy_config(tmp_path, case_id="WO_FCR", mip_gap=1e-4)
    with pytest.raises(ConfigError) as err:
        load_horizon(other, "WO_FCR", False)
    assert str(err.value).endswith(
        f"day_0000.json: day 0 was produced under a different configuration "
        f"(configuration hash {cfg.config_hash()}, not "
        f"{other.config_hash()})")


def test_load_horizon_names_the_other_data_hash(tmp_path):
    cfg = toy_config(tmp_path, case_id="WO_FCR", days=(0, 1))
    bundle = load_bundle(cfg, synthetic_seed=7)
    run_case(bundle)
    edit_checkpoint(os.path.join(str(tmp_path), "WO_FCR_nodeg",
                                 "day_0001.json"),
                    lambda p: p.update(data_hash="0123456789abcdef"))
    with pytest.raises(ConfigError) as err:
        load_horizon(cfg, "WO_FCR", False)
    assert str(err.value).endswith(
        f"day_0001.json: day 1 was solved on a different data set than "
        f"day 0 (data hash 0123456789abcdef, not {bundle.data_hash()})")


def test_load_horizon_names_the_other_starting_soe(tmp_path):
    cfg = toy_config(tmp_path, case_id="WO_FCR")
    run_case(load_bundle(cfg, synthetic_seed=7))
    edit_checkpoint(os.path.join(str(tmp_path), "WO_FCR_nodeg",
                                 "day_0000.json"),
                    lambda p: p["solution"].update(s0=0.3))
    with pytest.raises(ConfigError) as err:
        load_horizon(cfg, "WO_FCR", False)
    assert str(err.value).endswith(
        f"day_0000.json: day 0 started from SoE 0.3, but the configured "
        f"initial SoE is {cfg.initial_soe!r}")


@pytest.mark.parametrize("text", ["{not json", "[]"])
def test_load_horizon_refuses_unreadable_checkpoint(tmp_path, text):
    cfg = toy_config(tmp_path)
    run_case(load_bundle(cfg, synthetic_seed=7), resume=False)
    path = os.path.join(str(tmp_path), "MULTI_nodeg", "day_0000.json")
    with open(path, "w") as fh:
        fh.write(text)
    with pytest.raises(DataError, match=r"day_0000\.json: not a JSON"):
        load_horizon(cfg, "MULTI", False)


def test_load_horizon_never_run(tmp_path):
    with pytest.raises(MissingFile):
        load_horizon(toy_config(tmp_path), "MULTI", False)


# -- run_matrix ------------------------------------------------------------------


def test_run_matrix_keys_and_reuse(tmp_path, monkeypatch):
    cfg = toy_config(tmp_path, hours_per_day=2, steps_per_hour=2)
    bundle = load_bundle(cfg, synthetic_seed=7)
    calls: list = []
    patch_backend(monkeypatch, counting_backend(calls))
    out = run_matrix(bundle, cases=("WO_FCR", "FCR_N"), modes=(False,))
    assert set(out) == {("WO_FCR", "nodeg"), ("FCR_N", "nodeg")}
    assert len(calls) == 2
    for (case, mode), res in out.items():
        assert res.case_id == case
        assert res.degmode == mode
        assert res.n_days == 1
    # a second sweep comes entirely from checkpoints
    run_matrix(bundle, cases=("WO_FCR", "FCR_N"), modes=(False,))
    assert len(calls) == 2
    # and so does one under another default case and mode
    other = dataclasses.replace(cfg, case_id="FCR_DD",
                                degradation_in_objective=True)
    run_matrix(load_bundle(other, synthetic_seed=7),
               cases=("WO_FCR", "FCR_N"), modes=(False,))
    assert len(calls) == 2


def test_run_matrix_default_grid_covers_all_cases():
    import inspect

    sig = inspect.signature(run_matrix)
    assert sig.parameters["cases"].default == CASES
    assert sig.parameters["modes"].default == (True, False)


# -- market mix classification ---------------------------------------------------


def fake_day(bids_by_hour):
    """bids_by_hour: list of (n, du, dd) triples."""
    n, du, dd = (np.array([b[i] for b in bids_by_hour], dtype=float)
                 for i in range(3))
    return SimpleNamespace(hours=len(bids_by_hour), bid_n=n, bid_du=du,
                           bid_dd=dd)


def test_classify_market_mix_all_labels():
    day = fake_day([
        (0.0, 0.0, 0.0),   # None
        (0.5, 0.0, 0.0),   # N
        (0.0, 0.5, 0.0),   # DU
        (0.0, 0.0, 0.5),   # DD
        (0.5, 0.5, 0.0),   # N+DU
        (0.5, 0.0, 0.5),   # N+DD
        (0.0, 0.5, 0.5),   # DU+DD
        (0.5, 0.5, 0.5),   # All
    ])
    counts = classify_market_mix([day])
    assert counts == {label: 1 for label in MIX_LABELS}
    assert tuple(counts) == MIX_LABELS  # stable label order


def test_classify_market_mix_tolerance():
    # bids at or below 1e-9 MW are solver noise, not activity
    assert classify_market_mix([fake_day([(5e-10, 0.0, 0.0)])])["None"] == 1
    assert classify_market_mix([fake_day([(2e-9, 0.0, 0.0)])])["N"] == 1


def test_classify_market_mix_accumulates_across_days():
    daya = fake_day([(1.0, 0.0, 0.0)] * 3)
    dayb = fake_day([(1.0, 0.0, 0.0), (0.0, 0.0, 0.0)])
    counts = classify_market_mix([daya, dayb])
    assert counts["N"] == 4
    assert counts["None"] == 1
    assert sum(counts.values()) == 5


# -- HorizonResult arithmetic -----------------------------------------------------


def pinned_solution(day_index, profit, cal_pct, cyc_pct, bid_n_val):
    z = np.zeros(4)
    return DaySolution(
        day_index=day_index, steps_per_hour=1, hours=4, dt_seconds=3600.0,
        s0=0.5, ch_bl=z, ds_bl=z, bid_n=np.full(4, bid_n_val), bid_du=z,
        bid_dd=z, soe=np.full(4, 0.5),
        r_da=10.0, r_n=5.0, r_du=2.0, r_dd=1.0, c_da=4.0, c_deg_lin=0.5,
        objective=13.5, cal_cost=1.0, cyc_cost=0.5, cal_pct=cal_pct,
        cyc_pct=cyc_pct, profit=profit)


def test_horizon_result_pinned_aggregates(tmp_path):
    cfg = toy_config(tmp_path)
    days = (pinned_solution(0, 12.5, 0.002, 0.001, 0.3),
            pinned_solution(1, 12.5, 0.002, 0.001, 0.0))
    res = HorizonResult(case_id="MULTI", degradation_in_objective=False,
                        config=cfg, days=days)
    tot = res.totals()
    assert tot["profit"] == pytest.approx(25.0)
    assert tot["r_fcr"] == pytest.approx(16.0)  # 2 * (5 + 2 + 1)
    assert tot["aging_pct"] == pytest.approx(0.006)
    assert res.annualized()["profit"] == pytest.approx(25.0 * 365.0 / 2.0)
    assert res.aging_pct_per_year == pytest.approx(0.006 * 365.0 / 2.0)
    # 20 percentage points of headroom at the annualized aging rate
    expected_life = (1.0 - cfg.battery.eol_retained) * 100.0 / (0.006 * 182.5)
    assert res.lifetime_years == pytest.approx(expected_life)

    series = res.bid_series("N")
    np.testing.assert_allclose(series, [0.3] * 4 + [0.0] * 4)
    assert res.bid_series("DU").shape == (8,)
    mix = res.market_mix()
    assert mix["N"] == 4
    assert mix["None"] == 4


def test_horizon_result_zero_aging_means_infinite_life(tmp_path):
    cfg = toy_config(tmp_path)
    res = HorizonResult(case_id="MULTI", degradation_in_objective=False,
                        config=cfg,
                        days=(pinned_solution(0, 1.0, 0.0, 0.0, 0.0),))
    assert res.lifetime_years == math.inf


def test_horizon_result_empty_cannot_annualize(tmp_path):
    cfg = toy_config(tmp_path)
    res = HorizonResult(case_id="MULTI", degradation_in_objective=False,
                        config=cfg, days=())
    assert res.n_days == 0
    assert res.bid_series("N").shape == (0,)
    with pytest.raises(InvalidParameter):
        res.annualized()


# -- bundles -----------------------------------------------------------------------


def test_load_bundle_synthetic_seeds(tmp_path):
    cfg = toy_config(tmp_path, days=(0, 1))
    bundle = load_bundle(cfg, synthetic_seed=42)
    grid = cfg.grid_for(0)
    expect_freq = synth_frequency(42, grid, days=2)
    expect_prices = synth_prices(43, 2 * cfg.hours_per_day,
                                 grid_tariff=cfg.grid_tariff, tax=cfg.tax)
    np.testing.assert_array_equal(bundle.frequency.values, expect_freq.values)
    np.testing.assert_array_equal(bundle.prices.spot, expect_prices.spot)
    np.testing.assert_array_equal(bundle.prices.fcr_n, expect_prices.fcr_n)


def test_load_bundle_requires_some_source(tmp_path):
    cfg = toy_config(tmp_path)
    with pytest.raises(ConfigError, match="no frequency_csv"):
        load_bundle(cfg)


def test_data_bundle_alignment_checks(tmp_path):
    cfg = toy_config(tmp_path, days=(0, 1))
    grid = cfg.grid_for(0)
    freq2 = synth_frequency(1, grid, days=2)
    prices2 = synth_prices(2, 2 * cfg.hours_per_day)

    with pytest.raises(AlignmentError, match="days"):
        DataBundle(frequency=synth_frequency(1, grid, days=1),
                   prices=prices2, config=cfg)
    with pytest.raises(AlignmentError, match="hours"):
        DataBundle(frequency=freq2,
                   prices=synth_prices(2, cfg.hours_per_day), config=cfg)
    wrong_grid = RunConfig(**{**cfg.to_dict(), "steps_per_hour": 8,
                              "battery": cfg.battery})
    with pytest.raises(AlignmentError, match="steps"):
        DataBundle(frequency=freq2, prices=prices2, config=wrong_grid)


def test_data_hash_tracks_content(tmp_path):
    cfg = toy_config(tmp_path)
    a = load_bundle(cfg, synthetic_seed=7)
    b = load_bundle(cfg, synthetic_seed=7)
    c = load_bundle(cfg, synthetic_seed=8)
    assert a.data_hash() == b.data_hash()
    assert a.data_hash() != c.data_hash()

    prices = b.prices
    spot = prices.spot.copy()
    spot[0] += 1e-9
    tweaked = DataBundle(
        frequency=b.frequency,
        prices=type(prices)(spot=spot, fcr_n=prices.fcr_n,
                            fcr_du=prices.fcr_du, fcr_dd=prices.fcr_dd,
                            up_reg=prices.up_reg, down_reg=prices.down_reg,
                            grid_tariff=prices.grid_tariff, tax=prices.tax),
        config=cfg)
    assert tweaked.data_hash() != a.data_hash()
