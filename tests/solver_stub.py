"""Stand-in MILP solver executable for exercising the external backend.

Invoked as `python3 solver_stub.py MODEL.mps SOLUTION.txt`. It parses the
model with the package's own MPS reader, solves it with the scipy backend,
and writes a HiGHS-style solution file using the sanitized column names the
exporter wrote to the model file. The STUB_MODE environment variable selects
failure behaviours so error paths can be tested:

    ok (default)  solve and write the solution file
    infeasible    write a solution file declaring infeasibility
    timelimit     solve, but declare the time limit reached next to the
                  primal values, as a solver stopped with an incumbent does
    crash         exit nonzero without writing anything
    silent        exit zero without writing anything
    garbage       write an unparseable solution file
"""

from __future__ import annotations

import json
import os
import sys

from fcrsched.solvers import parse_mps, sanitize_name, solve_scipy


def file_name_map(model_path: str) -> dict[str, str]:
    """Original variable name -> name as written in the model file.

    A real solver only ever sees file names; the parser restores original
    names through the sidecar, so the stub inverts that mapping to echo the
    file's own names in its solution output.
    """
    sidecar = model_path + ".names.json"
    if not os.path.exists(sidecar):
        return {}
    with open(sidecar) as fh:
        payload = json.load(fh)
    return {orig: fname for fname, orig in payload.get("variables", {}).items()}


def main() -> int:
    model_path, solution_path = sys.argv[1], sys.argv[2]
    mode = os.environ.get("STUB_MODE", "ok")

    if mode == "crash":
        print("stub: simulated solver crash", file=sys.stderr)
        return 7
    if mode == "silent":
        return 0
    if mode == "garbage":
        with open(solution_path, "w") as fh:
            fh.write("%%% not a solution file %%%\n")
        return 0

    model = parse_mps(model_path)
    to_file = file_name_map(model_path)
    lines = []
    if mode == "infeasible":
        lines.append("Model status: Infeasible\n")
    else:
        res = solve_scipy(model)
        if not res.ok:
            lines.append(f"Model status: {res.status}\n")
        else:
            lines.append("Model status: Time limit reached\n"
                         if mode == "timelimit" else "Model status: Optimal\n")
            lines.append("\n# Primal solution values\n")
            lines.append("Feasible\n")
            lines.append(f"Objective {float(res.objective)!r}\n")
            lines.append(f"# Columns {model.n_vars}\n")
            for j, name in enumerate(model.var_names):
                fname = to_file.get(name, sanitize_name(name))
                lines.append(f"{fname} {float(res.x[j])!r}\n")
    with open(solution_path, "w") as fh:
        fh.writelines(lines)
    return 0


if __name__ == "__main__":
    sys.exit(main())
