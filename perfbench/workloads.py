"""Benchmark workloads; run as a child process by perfbench/run.py.

Each workload is a closed loop with one caller: the next horizon day (or
the next model export) starts only when the previous one has returned.
One *unit* is the horizon of one degradation mode of a solve workload (the
unit of the last mode also writes the report), or one day's export. The
units of all modes make one *pass* of the workload. The child repeats
units, cycling through the modes, until the ``--seconds`` budget is used,
and reports every unit's wall time and mode.

The child writes nothing to its standard output. Whatever reaches file
descriptor 1 is printed by HiGHS from inside scipy, and the parent counts
it. Results go to ``<out>/result.json``; the traced run also writes
``<out>/spans.json``.

    python3 perfbench/workloads.py --workload q15_week --seed 1 \\
        --seconds 55 --trace 0 --out .perfbench_work/x --ready-fd 3
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import io
import json
import math
import os
import resource
import shutil
import statistics
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# Market and frequency data of the solve workloads. HiGHS time on this model
# depends strongly on the day's data: across synthetic seeds 1-6 the
# q15_week horizon took 31-54 s (see README.md). The solve workloads
# therefore solve one fixed reference data set, the one the ROADMAP
# baselines were measured on, and the run seed only feeds m1_export, whose
# cost is set by the model's size alone.
REFERENCE_SEED = 1


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    kind: str                   # "solve" or "export"
    case_id: str
    steps_per_hour: int
    days: int
    modes: tuple[bool, ...]     # degradation_in_objective per horizon
    report: bool = False
    mip_gap: float = 1e-4
    time_limit_s: float = 60.0
    hours_per_day: int = 24     # changed only by the toy workloads

    @property
    def parts(self) -> tuple[str, ...]:
        """Labels of the units that together make one pass."""
        if self.kind == "export":
            return ("export",)
        return tuple("deg" if deg else "nodeg" for deg in self.modes)

    def config(self, outdir: str):
        from fcrsched import RunConfig
        return RunConfig(case_id=self.case_id, days=tuple(range(self.days)),
                         steps_per_hour=self.steps_per_hour,
                         hours_per_day=self.hours_per_day,
                         degradation_in_objective=self.modes[0],
                         mip_gap=self.mip_gap, time_limit_s=self.time_limit_s,
                         solver="scipy", outdir=outdir)


WORKLOADS = {w.name: w for w in (
    Workload("q15_week", "solve", "MULTI", 4, 7, (True, False), report=True),
    Workload("m1_fcrdd_day", "solve", "FCR_DD", 60, 1, (True, False)),
    # One unit exports one day; units cycle through the days.
    Workload("m1_export", "export", "MULTI", 60, 3, (True,)),
    # Toy sizes for the harness smoke test; not part of BENCHMARK.json.
    Workload("toy_solve", "solve", "MULTI", 4, 2, (True, False), report=True,
             hours_per_day=4),
    Workload("toy_export", "export", "MULTI", 4, 2, (True,), hours_per_day=4),
)}

# Spans that must see calls when a workload of the kind runs; a refactor
# that moves a call site out of reach of the tracer fails the traced run.
EXPECTED_SPANS = {
    "solve": ("ingest.load_bundle", "orchestrate.run_case",
              "droop.energy_content", "degradation.linearize",
              "degradation.post_calc", "milp.build", "milp.validate",
              "milp.extract", "solvers.solve_scipy", "solvers.highs"),
    "export": ("ingest.load_bundle", "cli.main", "droop.energy_content",
               "degradation.linearize", "milp.build", "solvers.export_mps",
               "solvers.export_lp", "solvers.parse_mps", "solvers.parse_lp"),
}
REPORT_SPANS = ("orchestrate.load_horizon", "report.write_report")


class Run:
    """Outcome of one child run: unit times, operation counts, errors."""

    def __init__(self):
        self.unit_s: list[float] = []
        self.unit_part: list[str] = []
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.profits: dict[str, list[float]] = {}

    def check(self, ok: bool, message: str) -> None:
        if not ok:
            self.errors.append(message)


# -- solve workloads -------------------------------------------------------------

def check_horizon(run: Run, res, cfg) -> None:
    """Every day Optimal, SoE carried over exactly, profits finite."""
    tag = f"{res.case_id}/{res.degmode}"
    run.check(len(res.days) == len(cfg.days),
              f"{tag}: {len(res.days)} of {len(cfg.days)} days returned")
    s0 = cfg.initial_soe
    for sol in res.days:
        run.check(sol.status == "Optimal",
                  f"{tag} day {sol.day_index}: status {sol.status}")
        run.check(sol.s0 == s0, f"{tag} day {sol.day_index}: s0 {sol.s0} "
                                f"!= previous final SoE {s0}")
        run.check(math.isfinite(sol.profit),
                  f"{tag} day {sol.day_index}: profit {sol.profit}")
        s0 = float(sol.soe[-1])


def solve_unit(w: Workload, bundle, outdir: str, run: Run, deg: bool,
               loaded: dict) -> float:
    """Solve the horizon in one degradation mode; reload it and report.

    ``loaded`` keeps the latest reloaded horizon of each mode. The unit of
    the workload's last mode writes the report over all of them, so a deg
    unit and the nodeg unit after it make up the whole study flow.
    """
    import fcrsched

    cfg = dataclasses.replace(bundle.config, outdir=outdir)
    bundle = dataclasses.replace(bundle, config=cfg)
    report_dir = os.path.join(outdir, "report")
    run.attempted += len(cfg.days)
    t0 = time.perf_counter()
    try:
        res = fcrsched.run_case(bundle, degradation_in_objective=deg,
                                resume=False)
    except fcrsched.SolverFailure as exc:
        # The failed day and every later day of the horizon count.
        run.failed += len(cfg.days) - cfg.days.index(exc.day)
        loaded.pop(deg, None)
        return time.perf_counter() - t0
    back = None
    reported = False
    if w.report:
        back = loaded[deg] = fcrsched.load_horizon(cfg, res.case_id, deg)
        if deg == w.modes[-1] and len(loaded) == len(w.modes):
            fcrsched.write_report({(h.case_id, h.degmode): h
                                   for h in loaded.values()},
                                  report_dir, bundle)
            reported = True
    wall = time.perf_counter() - t0

    check_horizon(run, res, cfg)
    run.profits.setdefault(res.degmode, []).append(res.totals()["profit"])
    if back is not None:
        run.check([s.profit for s in back.days]
                  == [s.profit for s in res.days],
                  f"{res.degmode}: checkpoints reload other profits")
    if reported:
        run.check(os.path.exists(os.path.join(report_dir, "manifest.json")),
                  "report manifest missing")
    return wall


# -- export workload ------------------------------------------------------------

def same_model(a, b) -> bool:
    def rows(m):
        return {n: (sorted(co), s, r) for n, co, s, r in m.rows}

    return (a.var_names == b.var_names and a.lb == b.lb and a.ub == b.ub
            and a.is_binary == b.is_binary and a.objective == b.objective
            and a.objective_const == b.objective_const and rows(a) == rows(b))


def export_unit(day: int, seed: int, cfg_path: str, outdir: str,
                run: Run) -> float:
    """Export one day to MPS and LP through the CLI and parse both back."""
    import fcrsched
    import fcrsched.cli

    os.makedirs(outdir, exist_ok=True)
    run.attempted += 1
    paths = {fmt: os.path.join(outdir, f"day_{day:04d}.{fmt}")
             for fmt in ("mps", "lp")}
    printed = io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(printed):
        codes = [fcrsched.cli.main(
            ["export-model", "--config", cfg_path, "--day", str(day),
             "--format", fmt, "--synthetic-seed", str(seed), "--out", path])
            for fmt, path in paths.items()]
    if codes != [0, 0]:
        run.failed += 1
        return time.perf_counter() - t0
    from_mps = fcrsched.parse_mps(paths["mps"])
    from_lp = fcrsched.parse_lp(paths["lp"])
    wall = time.perf_counter() - t0
    run.check(same_model(from_mps, from_lp),
              f"day {day}: MPS and LP parse back to different models")
    size = (f"({from_mps.n_vars} variables, {from_mps.n_binaries} "
            f"binaries, {from_mps.n_rows} rows)")
    run.check(printed.getvalue().count(size) == 2,
              f"day {day}: parsed size {size} differs from the exported "
              f"one: {printed.getvalue()!r}")
    return wall


# -- the child process ---------------------------------------------------------

def setup(w: Workload, seed: int, out: str):
    """Imports and input data: everything before the first timed unit."""
    import fcrsched
    if w.kind == "solve":
        import scipy.optimize  # noqa: F401  imported lazily by the solve path
    else:
        import fcrsched.cli  # noqa: F401

    cfg = w.config(os.path.join(out, "unit"))
    data_seed = REFERENCE_SEED if w.kind == "solve" else seed
    bundle = fcrsched.load_bundle(cfg, synthetic_seed=data_seed)
    cfg_path = None
    if w.kind == "export":
        cfg_path = os.path.join(out, "config.json")
        with open(cfg_path, "w", encoding="ascii") as fh:
            json.dump(cfg.to_dict(), fh)
    return bundle, cfg_path


def cpu_s() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", required=True)
    p.add_argument("--ready-fd", type=int, required=True)
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args(argv)
    w = WORKLOADS[args.workload]
    os.makedirs(args.out, exist_ok=True)

    sys.path.insert(0, os.path.join(ROOT, "src"))
    tracer = None
    if args.trace:
        import fcrsched.cli  # noqa: F401  every namespace the tracer patches
        import scipy.optimize  # noqa: F401
        from spans import Tracer
        tracer = Tracer()
        tracer.install()
    bundle, cfg_path = setup(w, args.seed, args.out)
    os.write(args.ready_fd, b"R")
    os.close(args.ready_fd)
    if args.setup_only:
        return 0

    run = Run()
    parts = w.parts
    loaded: dict[bool, object] = {}
    cpu0 = cpu_s()
    start = time.perf_counter()
    while True:
        i = len(run.unit_s)
        outdir = os.path.join(args.out, f"unit_{i}")
        if w.kind == "solve":
            deg = w.modes[i % len(w.modes)]
            wall = solve_unit(w, bundle, outdir, run, deg, loaded)
        else:
            wall = export_unit(i % w.days, args.seed, cfg_path, outdir, run)
        run.unit_s.append(wall)
        run.unit_part.append(parts[i % len(parts)])
        shutil.rmtree(outdir, ignore_errors=True)
        elapsed = time.perf_counter() - start
        # Every part is timed at least once. The traced run ends on a whole
        # pass, so that its per-pass layer figures weigh every mode alike.
        n = len(run.unit_s)
        if n < len(parts) or (args.trace and n % len(parts)):
            continue
        # The next unit runs if it would end nearer the budget than the
        # last one did, judged by the earlier units of its mode: a long
        # unit neither leaves most of the budget unused nor overruns it
        # by more than half of itself.
        upcoming = parts[n % len(parts)]
        expected = statistics.fmean(t for t, part in zip(run.unit_s,
                                                         run.unit_part)
                                    if part == upcoming)
        if elapsed + expected / 2 > args.seconds:
            break
    passes = len(run.unit_s) / len(parts)
    cpu = cpu_s() - cpu0

    for mode, values in run.profits.items():
        run.check(len(set(values)) == 1,
                  f"{mode}: realized profit differs between repeats {values}")
    result = {
        "unit_s": run.unit_s,
        "unit_part": run.unit_part,
        "passes": passes,
        "attempted": run.attempted,
        "failed": run.failed,
        "errors": run.errors,
        "profits": {mode: v[0] for mode, v in sorted(run.profits.items())},
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
        "cpu_s": cpu / passes,
    }
    if tracer is not None:
        tracer.uninstall()
        tracer.dump(os.path.join(args.out, "spans.json"))
        result["layers"] = layer_metrics(w, tracer, passes, run)
    with open(os.path.join(args.out, "result.json"), "w",
              encoding="ascii") as fh:
        json.dump(result, fh)
        fh.write("\n")
    return 0


def layer_metrics(w: Workload, tracer, passes: float, run: Run) -> dict:
    """Per-layer numbers of the traced run, per pass of the workload."""
    from spans import (call_counts, day_spans, self_times, total_times,
                       wrapper_cost_s)

    spans = tracer.spans
    calls = call_counts(spans)
    total = total_times(spans)
    own = self_times(spans)
    expected = EXPECTED_SPANS[w.kind] + (REPORT_SPANS if w.report else ())
    for name in expected:
        run.check(calls.get(name, 0) > 0,
                  f"trace coverage: no calls at {name} on {w.name}")

    def per_pass(value: float) -> float:
        return value / passes

    loads = [e - s for n, s, e, _, _ in spans if n == "ingest.load_bundle"]
    days = day_spans(spans)
    counts = tracer.counts
    out = {
        "ingest.load_bundle_s": statistics.median(loads) if loads else 0.0,
        "droop.energy_content_s": per_pass(total.get("droop.energy_content", 0.0)),
        "degradation.linearize_s": per_pass(total.get("degradation.linearize", 0.0)),
        "degradation.post_calc_s": per_pass(total.get("degradation.post_calc", 0.0)),
        "milp.build_s": per_pass(total.get("milp.build", 0.0)),
        "milp.validate_s": per_pass(total.get("milp.validate", 0.0)),
        "milp.extract_s": per_pass(total.get("milp.extract", 0.0)),
        "milp.n_vars": counts.get("milp.n_vars", 0.0),
        "milp.n_binaries": counts.get("milp.n_binaries", 0.0),
        "milp.n_rows": counts.get("milp.n_rows", 0.0),
        "solvers.highs_s": per_pass(total.get("solvers.highs", 0.0)),
        "solvers.highs_nodes": per_pass(counts.get("solvers.highs_nodes", 0.0)),
        "solvers.highs_gap_max": counts.get("solvers.highs_gap_max", 0.0),
        "solvers.assemble_s": per_pass(own.get("solvers.solve_scipy", 0.0)),
        "solvers.export_mps_s": per_pass(total.get("solvers.export_mps", 0.0)),
        "solvers.export_lp_s": per_pass(total.get("solvers.export_lp", 0.0)),
        "solvers.parse_mps_s": per_pass(total.get("solvers.parse_mps", 0.0)),
        "solvers.parse_lp_s": per_pass(total.get("solvers.parse_lp", 0.0)),
        "solvers.model_bytes": per_pass(counts.get("solvers.model_bytes", 0.0)),
        "cli.self_s": per_pass(own.get("cli.main", 0.0)),
        "orchestrate.self_s": per_pass(own.get("orchestrate.run_case", 0.0)),
        "orchestrate.day_s_p50": statistics.median(days) if days else 0.0,
        "orchestrate.day_s_max": max(days) if days else 0.0,
        "orchestrate.load_horizon_s": per_pass(
            total.get("orchestrate.load_horizon", 0.0)),
        "report.write_report_s": per_pass(total.get("report.write_report", 0.0)),
        "trace.overhead_s": per_pass(len(spans) * wrapper_cost_s()),
    }
    return out



if __name__ == "__main__":
    sys.exit(main())
