"""Span tracing around calls into fcrsched's public functions.

The benchmark never edits the package. `Tracer.install` replaces each
target function, in every ``fcrsched`` module namespace that binds it, by a
wrapper that records one span per call: name, start, end, parent span and
the day being worked on. Counts (HiGHS nodes, model size, exported bytes)
are taken at the same call boundaries. Spans stay in memory until
`Tracer.dump` writes them at the end of the run.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import statistics
import sys
import time

# (defining module, function, span name). A span name is the layer, a dot,
# and the boundary; time metrics are named after it.
TARGETS = (
    ("fcrsched.orchestrate", "load_bundle", "ingest.load_bundle"),
    ("fcrsched.orchestrate", "run_case", "orchestrate.run_case"),
    ("fcrsched.orchestrate", "load_horizon", "orchestrate.load_horizon"),
    ("fcrsched.droop", "energy_content", "droop.energy_content"),
    ("fcrsched.degradation", "linearize_calendar", "degradation.linearize"),
    ("fcrsched.degradation", "linearize_cycle", "degradation.linearize"),
    ("fcrsched.degradation", "post_calculate_aging", "degradation.post_calc"),
    ("fcrsched.milp", "build_day_model", "milp.build"),
    ("fcrsched.milp", "validate_solution", "milp.validate"),
    ("fcrsched.milp", "extract_day_solution", "milp.extract"),
    ("fcrsched.solvers", "solve_scipy", "solvers.solve_scipy"),
    ("scipy.optimize", "milp", "solvers.highs"),
    ("fcrsched.solvers", "export_model", "solvers.export"),
    ("fcrsched.solvers", "parse_mps", "solvers.parse_mps"),
    ("fcrsched.solvers", "parse_lp", "solvers.parse_lp"),
    ("fcrsched.report", "write_report", "report.write_report"),
    ("fcrsched.cli", "main", "cli.main"),
)


class Tracer:
    """Collects spans and boundary counts for one benchmark run."""

    def __init__(self):
        # span: [name, start, end, parent index or -1, day or None]
        self.spans: list[list] = []
        self.counts: dict[str, float] = {}
        self.day: int | None = None
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------------

    def begin(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, self.day])
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def end(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def add(self, key: str, value: float) -> None:
        self.counts[key] = self.counts.get(key, 0.0) + value

    def peak(self, key: str, value: float) -> None:
        self.counts[key] = max(self.counts.get(key, value), value)

    def wrap(self, name: str, fn):
        on_call = _HOOKS.get(name)
        after = _AFTER.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_name = name
            if on_call is not None:
                span_name = on_call(self, args, kwargs) or name
            idx = self.begin(span_name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.end(idx)
            if after is not None:
                after(self, args, kwargs, out)
            return out

        return traced

    # -- patching --------------------------------------------------------------

    def install(self) -> None:
        """Wrap every target in each already-imported namespace binding it."""
        namespaces = [m for n, m in sorted(sys.modules.items())
                      if m is not None and (n == "fcrsched"
                                            or n.startswith("fcrsched."))]
        for modname, attr, name in TARGETS:
            home = importlib.import_module(modname)
            original = getattr(home, attr)
            wrapped = self.wrap(name, original)
            for ns in [home] + namespaces:
                for key, val in list(vars(ns).items()):
                    if val is original:
                        self._undo.append((ns, key, val))
                        setattr(ns, key, wrapped)

    def uninstall(self) -> None:
        for ns, key, val in reversed(self._undo):
            setattr(ns, key, val)
        self._undo.clear()

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="ascii") as fh:
            json.dump({"spans": self.spans, "counts": self.counts}, fh)
            fh.write("\n")


# -- boundary hooks ------------------------------------------------------------

def _arg(args, kwargs, pos: int, key: str, default=None):
    if key in kwargs:
        return kwargs[key]
    return args[pos] if len(args) > pos else default


def _on_energy_content(tr: Tracer, args, kwargs):
    tr.day = _arg(args, kwargs, 1, "grid").day_index


def _on_build(tr: Tracer, args, kwargs):
    tr.day = _arg(args, kwargs, 0, "inputs").grid.day_index


def _on_export(tr: Tracer, args, kwargs):
    return "solvers.export_lp" if _arg(args, kwargs, 2, "fmt", "mps") == "lp" \
        else "solvers.export_mps"


def _after_build(tr: Tracer, args, kwargs, model):
    tr.peak("milp.n_vars", model.n_vars)
    tr.peak("milp.n_binaries", model.n_binaries)
    tr.peak("milp.n_rows", model.n_rows)


def _after_highs(tr: Tracer, args, kwargs, res):
    tr.add("solvers.highs_calls", 1)
    tr.add("solvers.highs_nodes", float(getattr(res, "mip_node_count", 0) or 0))
    gap = getattr(res, "mip_gap", None)
    if gap is not None:
        tr.peak("solvers.highs_gap_max", float(gap))


def _after_export(tr: Tracer, args, kwargs, sidecar):
    tr.add("solvers.model_bytes", os.path.getsize(_arg(args, kwargs, 1, "path")))


_HOOKS = {"droop.energy_content": _on_energy_content,
          "milp.build": _on_build,
          "solvers.export": _on_export}
_AFTER = {"milp.build": _after_build,
          "solvers.highs": _after_highs,
          "solvers.export": _after_export}


# -- analysis -------------------------------------------------------------------

def self_times(spans: list[list]) -> dict[str, float]:
    """Total self time per span name: duration minus direct children."""
    child = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    out: dict[str, float] = {}
    for i, (name, start, end, _, _) in enumerate(spans):
        out[name] = out.get(name, 0.0) + (end - start) - child[i]
    return out


def total_times(spans: list[list]) -> dict[str, float]:
    out: dict[str, float] = {}
    for name, start, end, _, _ in spans:
        out[name] = out.get(name, 0.0) + (end - start)
    return out


def call_counts(spans: list[list]) -> dict[str, int]:
    out: dict[str, int] = {}
    for name, *_ in spans:
        out[name] = out.get(name, 0) + 1
    return out


def day_spans(spans: list[list]) -> list[float]:
    """Day durations inside each run_case: from the horizon start (or the
    previous day's post-calculated aging) to this day's aging return."""
    out = []
    for i, (name, start, _, _, _) in enumerate(spans):
        if name != "orchestrate.run_case":
            continue
        mark = start
        for cname, _, cend, parent, _ in spans[i + 1:]:
            if parent == i and cname == "degradation.post_calc":
                out.append(cend - mark)
                mark = cend
    return out


def wrapper_cost_s(samples: int = 5, calls: int = 20000) -> float:
    """Measured cost of one traced call, wrapper and span bookkeeping."""
    def noop():
        return None

    costs = []
    for _ in range(samples):
        tr = Tracer()
        traced = tr.wrap("calibrate", noop)
        t0 = time.perf_counter()
        for _ in range(calls):
            traced()
        t1 = time.perf_counter()
        for _ in range(calls):
            noop()
        t2 = time.perf_counter()
        costs.append(((t1 - t0) - (t2 - t1)) / calls)
    return max(0.0, statistics.median(costs))
