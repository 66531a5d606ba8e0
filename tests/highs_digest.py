"""Print a digest of every HiGHS call a set of horizon runs makes.

A refactor that must not change what the solver sees is checked by running
the same configuration before and after it and comparing the output. The
script wraps `scipy.optimize.milp` and, for each call, prints the SHA-256
(first 16 hex digits) of the cost vector `c`, the constraint matrix in
canonical CSC form (duplicates summed, indices sorted), the row bounds,
the column bounds, the integrality vector, the solver options other than
the time limit (which counts down with the wall clock), and the returned
status and `x`. The last line is the SHA-256 of all calls together. Each
configured case runs in both degradation modes at `mip_gap=1e-4`.

It is not a test module; pytest does not collect it. Run it from a
checkout, with the tree under test first on the path:

    PYTHONPATH=src python3 tests/highs_digest.py --seeds 1-7 --days 0-6 \\
        --steps-per-hour 4 --cases MULTI > calls.txt

`--outdir` keeps the runs' checkpoints and `horizon.json` files for a
comparison of their bytes; without it they go to a temporary directory
that is removed at the end.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import sys
import tempfile

import numpy as np
import scipy.optimize
import scipy.sparse

from fcrsched import CASES, RunConfig, load_bundle, run_case


def _digest(*parts) -> str:
    """First 16 hex digits of the SHA-256 of arrays (or bytes) in turn."""
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes)
                 else np.ascontiguousarray(part).tobytes())
    return h.hexdigest()[:16]


def call_line(c, constraints, integrality, bounds, options, res) -> str:
    """One call's digests, as printed: `constraints` is the one
    LinearConstraint the scipy backend passes."""
    a = scipy.sparse.csc_array(constraints.A)
    a.sum_duplicates()
    a.sort_indices()
    n = len(c)
    opts = {k: v for k, v in options.items() if k != "time_limit"}
    fields = {
        "c": _digest(np.asarray(c, dtype=float)),
        "A": _digest(np.asarray(a.shape), a.indptr, a.indices, a.data),
        "rows": _digest(np.broadcast_to(constraints.lb, a.shape[0]),
                        np.broadcast_to(constraints.ub, a.shape[0])),
        "cols": _digest(np.broadcast_to(bounds.lb, n),
                        np.broadcast_to(bounds.ub, n)),
        "int": _digest(np.broadcast_to(integrality, n).astype(float)),
        "opts": _digest(json.dumps(opts, sort_keys=True).encode()),
        "x": _digest(b"none" if res.x is None else res.x),
    }
    return f"status {res.status} " + " ".join(
        f"{key} {val}" for key, val in fields.items())


def _span(text: str) -> range:
    lo, _, hi = text.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", default="1", help="synthetic seeds, e.g. 1-7")
    ap.add_argument("--days", default="0", help="configured days, e.g. 0-6")
    ap.add_argument("--steps-per-hour", type=int, default=4)
    ap.add_argument("--cases", default="MULTI",
                    help="comma-separated cases, or 'all'")
    ap.add_argument("--outdir", help="keep the runs' files here")
    args = ap.parse_args(argv)

    cases = CASES if args.cases == "all" else tuple(args.cases.split(","))
    lines: list[str] = []
    label = ""
    real_milp = scipy.optimize.milp

    def traced(c, *, integrality, bounds, constraints, options):
        res = real_milp(c, integrality=integrality, bounds=bounds,
                        constraints=constraints, options=options)
        # printed at the end: the backend sends fd 1 elsewhere during a call
        lines.append(f"{label} call {len(lines)}: " + call_line(
            c, constraints, integrality, bounds, options, res))
        return res

    scipy.optimize.milp = traced
    with tempfile.TemporaryDirectory(prefix="highs_digest_") as tmp:
        base = RunConfig(case_id=cases[0], days=tuple(_span(args.days)),
                         steps_per_hour=args.steps_per_hour,
                         hours_per_day=24, solver="scipy",
                         mip_gap=1e-4, outdir=args.outdir or tmp)
        try:
            for seed in _span(args.seeds):
                cfg = dataclasses.replace(
                    base, outdir=f"{base.outdir}/seed{seed}")
                bundle = load_bundle(cfg, synthetic_seed=seed)
                for case in cases:
                    for deg in (True, False):
                        label = (f"seed {seed} {case} "
                                 f"{'deg' if deg else 'nodeg'}")
                        run_case(bundle, case_id=case,
                                 degradation_in_objective=deg, resume=False)
        finally:
            scipy.optimize.milp = real_milp
    total = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    print("\n".join(lines))
    print(f"{len(lines)} calls, all {total}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
