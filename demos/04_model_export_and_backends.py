"""
Model files and solver backends
===============================

The same day model solved three ways: in-process (scipy/HiGHS), with the
bundled exact micro-solver, and through the subprocess adapter that writes
an MPS file and shells out to an external solver command.
"""

from __future__ import annotations

import sys
import tempfile
from pathlib import Path

from fcrsched import (
    build_day_model,
    energy_content,
    export_model,
    get_backend,
    parse_mps,
    solve_micro,
    solve_scipy,
    synth_frequency,
    synth_prices,
)
from fcrsched.ingest import BatterySpec, TimeGrid
from fcrsched.milp import DayInputs

# A compact 4-hour day keeps the binary count inside the micro-solver cap.
grid = TimeGrid(0, steps_per_hour=4, hours=4)
spec = BatterySpec()
inputs = DayInputs(
    grid=grid, prices=synth_prices(8, grid.hours),
    contents=energy_content(synth_frequency(7, grid), grid),
    spec=spec, s0=0.5, case_id="MULTI")
model = build_day_model(inputs)

# Export writes the model plus a sidecar mapping solver-safe names back to
# the registry names (MPS forbids characters like '[' and '='). The files
# go to a temporary directory that is removed at the end of the block.
with tempfile.TemporaryDirectory(prefix="fcrsched_demo_") as workdir:
    mps_path = Path(workdir) / "day.mps"
    sidecar = export_model(model, str(mps_path), "mps")
    print(f"wrote {mps_path} ({model.n_vars} vars, {model.n_rows} rows)")
    print(f"name sidecar: {sidecar}")

    # The file parses back into an equivalent model, column order included.
    again = parse_mps(str(mps_path))
    assert again.var_names == model.var_names
    print("round trip reproduces the variable registry")

# Backend 1: scipy's HiGhS-backed MILP (the default).
res_scipy = solve_scipy(model, mip_gap=1e-9)

# Backend 2: the bundled micro-solver (own simplex + branch and bound),
# exact and dependency-free, for small models and cross-checks.
res_micro = solve_micro(model, mip_gap=1e-9)

# Backend 3: any external solver reachable as a command. The template gets
# {model_file} and {solution_file} substituted; here the "external solver"
# is this package's own CLI-style stub used by the test suite.
stub = Path(__file__).resolve().parent.parent / "tests" / "solver_stub.py"
cmd = f"{sys.executable} {stub} {{model_file}} {{solution_file}}"
res_ext = get_backend("external:" + cmd)(model, time_limit_s=60.0,
                                         mip_gap=1e-9)

print("\nbackend    status    objective [EUR]")
for res in (res_scipy, res_micro, res_ext):
    print(f"{res.backend:9s}  {res.status:8s}  {res.objective:15.6f}")

spread = max(r.objective for r in (res_scipy, res_micro, res_ext)) \
    - min(r.objective for r in (res_scipy, res_micro, res_ext))
print(f"\nlargest pairwise objective difference: {spread:.2e} EUR")
assert spread <= 1e-6 * (1.0 + abs(res_scipy.objective))
