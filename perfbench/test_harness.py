"""Toy-size smoke test of the benchmark harness.

    python3 -m pytest -q perfbench/test_harness.py
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def bench(*args: str, cwd: str = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170)


def last_json(proc: subprocess.CompletedProcess) -> dict:
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload,trace,names", [
    ("toy_solve", "0", run.END_TO_END),
    ("toy_solve", "1", run.PER_LAYER_UNITS),
    ("toy_export", "1", run.PER_LAYER_UNITS),
])
def test_toy_run_prints_every_metric(workload, trace, names):
    proc = bench("--workload", workload, "--seed", "3", "--seconds", "1",
                 "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    out = last_json(proc)
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] is True
    assert out["attempted"] >= 1 and out["failed"] == 0
    assert set(out["metrics"]) == set(names)
    for name, metric in out["metrics"].items():
        assert metric["unit"] == names[name]
        assert isinstance(metric["value"], (int, float))
    if trace == "0":
        assert all(m["value"] > 0 for m in out["metrics"].values())


def test_metric_names_match_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="ascii") as fh:
        spec = json.load(fh)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} \
        == run.PER_LAYER_UNITS
    assert set(run.BENCHMARKED) == {w["name"] for w in spec["workloads"]}


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = bench("--workload", "q15_week", "--seed", "1", "--seconds", "1",
                 "--trace", "0", cwd=str(tmp_path))
    assert proc.returncode != 0
    assert "{" not in proc.stdout


def test_solver_failure_counts_the_rest_of_the_horizon(tmp_path, monkeypatch):
    import fcrsched

    w = workloads.WORKLOADS["toy_solve"]
    bundle = fcrsched.load_bundle(w.config(str(tmp_path)),
                                  synthetic_seed=workloads.REFERENCE_SEED)

    def fail_on_day_1(*args, **kwargs):
        raise fcrsched.SolverFailure(1, "TimeLimit")

    monkeypatch.setattr(fcrsched, "run_case", fail_on_day_1)
    result = workloads.Run()
    loaded = {}
    for deg in w.modes:
        workloads.solve_unit(w, bundle, str(tmp_path / "unit"), result, deg,
                             loaded)
    assert result.attempted == 2 * w.days
    assert result.failed == 2 * (w.days - 1)
    assert result.errors == []


def test_carry_over_check_catches_a_broken_chain(tmp_path):
    import dataclasses

    import fcrsched

    w = workloads.WORKLOADS["toy_solve"]
    cfg = w.config(str(tmp_path))
    res = fcrsched.run_case(fcrsched.load_bundle(cfg, synthetic_seed=1),
                            resume=False)
    good = workloads.Run()
    workloads.check_horizon(good, res, cfg)
    assert good.errors == []

    days = list(res.days)
    days[1] = dataclasses.replace(days[1], s0=days[1].s0 + 1e-3)
    bad = workloads.Run()
    workloads.check_horizon(bad, dataclasses.replace(res, days=tuple(days)),
                            cfg)
    assert any("previous final SoE" in e for e in bad.errors)


def test_self_time_and_day_spans():
    # run_case [0, 10] with children build [1, 3] and post_calc [3, 4],
    # post_calc [6, 7]; build has a child highs [1.5, 2.5].
    recorded = [
        ["orchestrate.run_case", 0.0, 10.0, -1, None],
        ["milp.build", 1.0, 3.0, 0, 0],
        ["solvers.highs", 1.5, 2.5, 1, 0],
        ["degradation.post_calc", 3.0, 4.0, 0, 0],
        ["degradation.post_calc", 6.0, 7.0, 0, 1],
    ]
    own = spans.self_times(recorded)
    assert own["orchestrate.run_case"] == pytest.approx(6.0)
    assert own["milp.build"] == pytest.approx(1.0)
    assert spans.day_spans(recorded) == pytest.approx([4.0, 3.0])


def test_tracer_patches_and_restores_every_binding():
    import fcrsched
    import fcrsched.orchestrate

    before = fcrsched.orchestrate.build_day_model
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert fcrsched.orchestrate.build_day_model is not before
        assert fcrsched.build_day_model is fcrsched.orchestrate.build_day_model
    finally:
        tracer.uninstall()
    assert fcrsched.orchestrate.build_day_model is before
    assert fcrsched.build_day_model is before


def test_pass_time_sums_the_mean_of_each_part():
    # deg units 4 s and 6 s, one nodeg unit 3 s: a pass takes 5 + 3 s.
    assert run.pass_time([4.0, 3.0, 6.0], ["deg", "nodeg", "deg"]) \
        == pytest.approx(8.0)

