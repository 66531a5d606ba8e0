"""fcrsched benchmark: horizon wall time, set-up time and memory.

    python3 perfbench/run.py --workload q15_week --seed 1 --seconds 55 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 55 --trace 0

Run from the root of a source checkout (the package is imported from
``src/``). Each workload runs in its own child process
(perfbench/workloads.py) whose standard output goes to a file, so solver
output can never mix into the figures printed here. Before the measured
child, set-up-only children are started; ``setup_s`` is the median time
from child start to input data ready. ``--trace 1`` reports per-layer
numbers from spans recorded around calls into the package instead of the
end-to-end metrics.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The exit code is 1
when a correctness check failed and 2 when the benchmark could not run.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".perfbench_work")
sys.path.insert(0, HERE)

from workloads import WORKLOADS  # noqa: E402

BENCHMARKED = ("q15_week", "m1_export")
SETUP_SAMPLES = 5          # set-up-only children plus the measured one
CHILD_TIMEOUT_S = 150.0

END_TO_END = {"horizon_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
PER_LAYER_UNITS = {
    "ingest.load_bundle_s": "s",
    "droop.energy_content_s": "s",
    "degradation.linearize_s": "s",
    "degradation.post_calc_s": "s",
    "milp.build_s": "s",
    "milp.validate_s": "s",
    "milp.extract_s": "s",
    "milp.n_vars": "count",
    "milp.n_binaries": "count",
    "milp.n_rows": "count",
    "solvers.highs_s": "s",
    "solvers.highs_nodes": "count",
    "solvers.highs_gap_max": "ratio",
    "solvers.highs_stray_lines": "count",
    "solvers.assemble_s": "s",
    "solvers.export_mps_s": "s",
    "solvers.export_lp_s": "s",
    "solvers.parse_mps_s": "s",
    "solvers.parse_lp_s": "s",
    "solvers.model_bytes": "bytes",
    "cli.self_s": "s",
    "orchestrate.self_s": "s",
    "orchestrate.day_s_p50": "s",
    "orchestrate.day_s_max": "s",
    "orchestrate.load_horizon_s": "s",
    "orchestrate.profit_deg_eur": "EUR",
    "orchestrate.profit_nodeg_eur": "EUR",
    "report.write_report_s": "s",
    "process.cpu_s": "s",
    "trace.overhead_s": "s",
}


class HarnessError(Exception):
    """The benchmark could not run (not a wrong result of the program)."""


def start_child(workload: str, seed: int, seconds: float, trace: int,
                out: str, setup_only: bool, timeout: float):
    """Start one child and wait until its set-up is done.

    Returns the process and the seconds from start to the child's ready
    byte on a pipe of its own.
    """
    os.makedirs(out, exist_ok=True)
    rfd, wfd = os.pipe()
    argv = [sys.executable, os.path.join(HERE, "workloads.py"),
            "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace), "--out", out,
            "--ready-fd", str(wfd)]
    if setup_only:
        argv.append("--setup-only")
    with open(os.path.join(out, "stdout.txt"), "wb") as so, \
            open(os.path.join(out, "stderr.txt"), "wb") as se:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, stdout=so, stderr=se,
                                stdin=subprocess.DEVNULL, pass_fds=(wfd,))
    os.close(wfd)
    try:
        readable, _, _ = select.select([rfd], [], [], max(1.0, timeout))
        ready = os.read(rfd, 1) if readable else b""
    finally:
        os.close(rfd)
    setup = time.perf_counter() - t0
    if ready != b"R":
        finish(proc, out, 0.0 if not readable else timeout)
        raise HarnessError(f"{workload}: no set-up within {timeout:.0f} s")
    return proc, setup


def finish(proc, out: str, timeout: float) -> None:
    try:
        code = proc.wait(timeout=max(1.0, timeout))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise HarnessError(f"child timed out after {timeout:.0f} s") from None
    if code != 0:
        with open(os.path.join(out, "stderr.txt"), encoding="utf-8",
                  errors="replace") as fh:
            tail = fh.read()[-2000:]
        raise HarnessError(f"child exited with {code}:\n{tail}")


def run_workload(workload: str, seed: int, seconds: float, trace: int):
    """Run one workload; returns (correct, attempted, failed, metrics, info)."""
    deadline = time.perf_counter() + CHILD_TIMEOUT_S
    out = os.path.join(WORK, f"{workload}-seed{seed}-trace{trace}")
    shutil.rmtree(out, ignore_errors=True)
    setups = []
    for i in range(SETUP_SAMPLES - 1):
        probe_out = os.path.join(out, f"setup_{i}")
        proc, setup = start_child(workload, seed, seconds, 0, probe_out, True,
                                  deadline - time.perf_counter())
        finish(proc, probe_out, deadline - time.perf_counter())
        setups.append(setup)
    proc, setup = start_child(workload, seed, seconds, trace, out, False,
                              deadline - time.perf_counter())
    setups.append(setup)
    finish(proc, out, deadline - time.perf_counter())
    with open(os.path.join(out, "result.json"), encoding="ascii") as fh:
        res = json.load(fh)
    with open(os.path.join(out, "stdout.txt"), "rb") as fh:
        stray = sum(1 for line in fh if line.strip())

    n_units = len(res["unit_s"])
    if trace:
        values = dict(res["layers"])
        values["solvers.highs_stray_lines"] = stray / res["passes"]
        values["process.cpu_s"] = res["cpu_s"]
        values["orchestrate.profit_deg_eur"] = res["profits"].get("deg", 0.0)
        values["orchestrate.profit_nodeg_eur"] = res["profits"].get("nodeg",
                                                                    0.0)
        metrics = {k: {"value": values[k], "unit": u}
                   for k, u in PER_LAYER_UNITS.items()}
    else:
        values = {"horizon_s": pass_time(res["unit_s"], res["unit_part"]),
                  "setup_s": statistics.median(setups),
                  "peak_rss_mb": res["peak_rss_mb"]}
        metrics = {k: {"value": values[k], "unit": u}
                   for k, u in END_TO_END.items()}
    info = {"units": n_units, "stray_lines": stray, "errors": res["errors"],
            "profits": res["profits"]}
    return (not res["errors"], res["attempted"], res["failed"], metrics, info)


def pass_time(unit_s: list[float], unit_part: list[str]) -> float:
    """Time of one pass: the sum over its parts of their mean unit time.

    The mean, not the median: this host's speed alternates between regimes
    of 10-20 s, and the median of a two-mode mixture jumps from one mode to
    the other between runs.
    """
    by_part: dict[str, list[float]] = {}
    for seconds, part in zip(unit_s, unit_part):
        by_part.setdefault(part, []).append(seconds)
    return sum(statistics.fmean(v) for v in by_part.values())


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=sorted(WORKLOADS) + ["all"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    if not os.path.isfile(os.path.join(ROOT, "src", "fcrsched",
                                       "__init__.py")):
        print(f"error: {ROOT} holds no fcrsched sources (src/fcrsched); "
              "run from the root of a source checkout", file=sys.stderr)
        return 2

    names = BENCHMARKED if args.workload == "all" else (args.workload,)
    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in names:
        try:
            ok, att, fail, mets, info = run_workload(
                name, args.seed, args.seconds, args.trace)
        except HarnessError as exc:
            print(f"error: {name}: {exc}", file=sys.stderr)
            return 2
        correct &= ok
        attempted += att
        failed += fail
        for err in info["errors"]:
            print(f"FAILED CHECK {name}: {err}", file=sys.stderr)
        print(f"# {name}: {info['units']} unit(s), {att} operations, "
              f"{fail} failed, {info['stray_lines']} stray solver lines")
        for mode, profit in info["profits"].items():
            print(f"# {name}: realized profit {mode} {profit:.4f} EUR")
        for key, m in mets.items():
            print(f"{name} {key} {m['value']:.6g} {m['unit']}")
            metrics[key if len(names) == 1 else f"{name}.{key}"] = m
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
