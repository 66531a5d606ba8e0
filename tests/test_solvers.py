"""Backends and model exchange: MPS/LP round trips, external stub, micro B&B."""

from __future__ import annotations

import json
import re
import sys
from pathlib import Path

import numpy as np
import pytest

from fcrsched import (
    BackendError,
    InvalidParameter,
    MilpModel,
    ParseError,
    TooLarge,
    UnsupportedFormat,
    build_day_model,
    export_model,
    get_backend,
    parse_lp,
    parse_mps,
    parse_solution_file,
    sanitize_name,
    solve_external,
    solve_micro,
    solve_scipy,
)
from fcrsched.solvers import MICRO_MAX_BINARIES

from helpers import day_inputs

STUB = Path(__file__).parent / "solver_stub.py"
STUB_CMD = f"{sys.executable} {STUB} {{model_file}} {{solution_file}}"


def tiny_milp() -> MilpModel:
    """max 3x + 2y + 10b s.t. x + y <= 4, x - y >= -1, y + 2b == 3."""
    m = MilpModel("tiny")
    x = m.add_variable("x[t=0]", 0.0, 3.0)
    y = m.add_variable("y[t=0,k=1]", -1.0, 5.0)
    b = m.add_variable("flag", 0.0, 1.0, binary=True)
    m.add_constraint("cap[t=0]", [(x, 1.0), (y, 1.0)], "<=", 4.0)
    m.add_constraint("floor[t=0]", [(x, 1.0), (y, -1.0)], ">=", -1.0)
    m.add_constraint("link[t=0]", [(y, 1.0), (b, 2.0)], "==", 3.0)
    m.set_objective_coeff(x, 3.0)
    m.set_objective_coeff(y, 2.0)
    m.set_objective_coeff(b, 10.0)
    m.objective_const = 1.5
    return m


def assert_models_equal(a: MilpModel, b: MilpModel) -> None:
    assert a.var_names == b.var_names
    assert a.lb == b.lb and a.ub == b.ub
    assert a.is_binary == b.is_binary
    assert a.objective == b.objective
    assert a.objective_const == b.objective_const
    rows_a = {n: (sorted(co), s, r) for n, co, s, r in a.rows}
    rows_b = {n: (sorted(co), s, r) for n, co, s, r in b.rows}
    assert rows_a == rows_b


# -- name handling and export ---------------------------------------------------

# The writers' exact output for `tiny_milp()`; the model files are a public
# format, so a change here is a change of the format.
TINY_FILES = {
    "mps": """\
NAME          tiny
OBJSENSE
    MAX
ROWS
 N  OBJ
 L  cap_t0
 G  floor_t0
 E  link_t0
COLUMNS
    x_t0  OBJ  3.0
    x_t0  cap_t0  1.0
    x_t0  floor_t0  1.0
    y_t0_k1  OBJ  2.0
    y_t0_k1  cap_t0  1.0
    y_t0_k1  floor_t0  -1.0
    y_t0_k1  link_t0  1.0
    MARKER0000  'MARKER'  'INTORG'
    flag  OBJ  10.0
    flag  link_t0  2.0
    MARKER0001  'MARKER'  'INTEND'
RHS
    RHS1  OBJ  -1.5
    RHS1  cap_t0  4.0
    RHS1  floor_t0  -1.0
    RHS1  link_t0  3.0
BOUNDS
 LO BND  x_t0  0.0
 UP BND  x_t0  3.0
 LO BND  y_t0_k1  -1.0
 UP BND  y_t0_k1  5.0
 BV BND  flag
ENDATA
""",
    "mps-fixed": """\
NAME          tiny
OBJSENSE
    MAX
ROWS
 N  OBJ
 L  R0000000
 G  R0000001
 E  R0000002
COLUMNS
    C0000000  OBJ  3.0
    C0000000  R0000000  1.0
    C0000000  R0000001  1.0
    C0000001  OBJ  2.0
    C0000001  R0000000  1.0
    C0000001  R0000001  -1.0
    C0000001  R0000002  1.0
    MARKER0000  'MARKER'  'INTORG'
    C0000002  OBJ  10.0
    C0000002  R0000002  2.0
    MARKER0001  'MARKER'  'INTEND'
RHS
    RHS1  OBJ  -1.5
    RHS1  R0000000  4.0
    RHS1  R0000001  -1.0
    RHS1  R0000002  3.0
BOUNDS
 LO BND  C0000000  0.0
 UP BND  C0000000  3.0
 LO BND  C0000001  -1.0
 UP BND  C0000001  5.0
 BV BND  C0000002
ENDATA
""",
    "lp": """\
\\ tiny
Maximize
 obj: 3.0 x_t0 + 2.0 y_t0_k1 + 10.0 flag + 1.5
Subject To
 cap_t0: 1.0 x_t0 + 1.0 y_t0_k1 <= 4.0
 floor_t0: 1.0 x_t0 - 1.0 y_t0_k1 >= -1.0
 link_t0: 1.0 y_t0_k1 + 2.0 flag = 3.0
Bounds
 0.0 <= x_t0 <= 3.0
 -1.0 <= y_t0_k1 <= 5.0
 0.0 <= flag <= 1.0
Binaries
 flag
End
""",
}


@pytest.mark.parametrize("fmt", ["mps", "mps-fixed", "lp"])
def test_writers_bytes_of_tiny_model(tmp_path, fmt):
    path = tmp_path / "tiny.txt"
    sidecar = export_model(tiny_milp(), str(path), fmt=fmt)
    assert path.read_bytes() == TINY_FILES[fmt].encode("ascii")
    vnames, rnames = (["C0000000", "C0000001", "C0000002"],
                      ["R0000000", "R0000001", "R0000002"]) \
        if fmt == "mps-fixed" else (["x_t0", "y_t0_k1", "flag"],
                                    ["cap_t0", "floor_t0", "link_t0"])
    expected = {
        "format": fmt,
        "model_name": "tiny",
        "variables": dict(zip(vnames, ["x[t=0]", "y[t=0,k=1]", "flag"])),
        "rows": dict(zip(rnames, ["cap[t=0]", "floor[t=0]", "link[t=0]"])),
    }
    assert Path(sidecar).read_text(encoding="ascii") == \
        json.dumps(expected, indent=2) + "\n"

def test_sanitize_name():
    assert sanitize_name("p_ch[t=37]") == "p_ch_t37"
    assert sanitize_name("z_cal[h=3,k=1]") == "z_cal_h3_k1"
    assert sanitize_name("plain") == "plain"


def test_export_unknown_format(tmp_path):
    with pytest.raises(UnsupportedFormat):
        export_model(tiny_milp(), str(tmp_path / "m.xxx"), fmt="xxx")


def test_export_empty_model_refused(tmp_path):
    with pytest.raises(InvalidParameter):
        export_model(MilpModel("empty"), str(tmp_path / "m.mps"))


@pytest.mark.parametrize("fmt", ["mps", "mps-fixed", "lp"])
def test_roundtrip_tiny(tmp_path, fmt):
    m = tiny_milp()
    path = str(tmp_path / "tiny.txt")
    sidecar = export_model(m, path, fmt=fmt)
    assert Path(sidecar).exists()
    back = parse_lp(path) if fmt == "lp" else parse_mps(path)
    assert_models_equal(m, back)


@pytest.mark.parametrize("fmt", ["mps", "mps-fixed", "lp"])
def test_roundtrip_day_model(tmp_path, fmt):
    inp = day_inputs(seed=13, hours=2, deg=True)
    m = build_day_model(inp)
    path = str(tmp_path / "day.txt")
    export_model(m, path, fmt=fmt)
    back = parse_lp(path) if fmt == "lp" else parse_mps(path)
    assert_models_equal(m, back)
    # semantics preserved: solving original and round-trip agree
    a = solve_scipy(m, mip_gap=1e-9)
    b = solve_scipy(back, mip_gap=1e-9)
    assert a.ok and b.ok
    assert b.objective == pytest.approx(a.objective, rel=1e-9)


def roundtrip(model: MilpModel, path: Path, fmt: str) -> MilpModel:
    export_model(model, str(path), fmt=fmt)
    return parse_lp(str(path)) if fmt == "lp" else parse_mps(str(path))


@pytest.mark.parametrize("fmt", ["mps", "mps-fixed", "lp"])
def test_roundtrip_minute_resolution_day(tmp_path, fmt):
    """A whole MULTI deg day at one-minute steps, as `m1_export` exports it."""
    m = build_day_model(day_inputs(seed=1, hours=24, steps_per_hour=60,
                                   deg=True))
    back = roundtrip(m, tmp_path / "day.txt", fmt)
    assert back.name == m.name
    assert [name for name, *_ in back.rows] == [name for name, *_ in m.rows]
    assert_models_equal(m, back)


def zero_objective_models() -> dict[str, MilpModel]:
    explicit = MilpModel("explicit_zero")
    x = explicit.add_variable("x", 0.0, 2.0)
    y = explicit.add_variable("y", 0.0, 1.0, binary=True)
    explicit.add_constraint("cap", [(x, 1.0), (y, 1.0)], "<=", 2.0)
    explicit.set_objective_coeff(x, 0.0)  # a zero price
    explicit.set_objective_coeff(y, 2.0)

    unused = MilpModel("unused_column")
    x = unused.add_variable("x", 0.0, 2.0)
    unused.add_variable("idle", 1.0, 3.0)  # in no row, not in the objective
    unused.add_constraint("cap", [(x, 1.0)], "<=", 1.0)
    unused.set_objective_coeff(x, 1.0)

    empty = MilpModel("empty_objective")
    x = empty.add_variable("x", 0.0, 2.0)
    empty.add_constraint("cap", [(x, 1.0)], ">=", 1.0)
    empty.objective_const = 4.0
    return {m.name: m for m in (explicit, unused, empty)}


@pytest.mark.parametrize("fmt", ["mps", "mps-fixed", "lp"])
@pytest.mark.parametrize("case", ["explicit_zero", "unused_column",
                                  "empty_objective"])
def test_roundtrip_keeps_zero_objective_entries(tmp_path, fmt, case):
    m = zero_objective_models()[case]
    assert_models_equal(m, roundtrip(m, tmp_path / "m.txt", fmt))


def test_lp_export_refuses_keyword_names(tmp_path):
    """`st`, `bin` and `end` would read back as section headers."""
    m = MilpModel("keywords")
    b = m.add_variable("bin", 0.0, 1.0, binary=True)
    e = m.add_variable("end", 0.0, 0.0)
    m.add_constraint("st", [(b, 1.0), (e, 1.0)], "<=", 1.0)
    m.set_objective_coeff(b, 1.0)
    with pytest.raises(InvalidParameter, match="LP section keyword"):
        export_model(m, str(tmp_path / "m.lp"), fmt="lp")
    for fmt in ("mps", "mps-fixed"):
        assert_models_equal(m, roundtrip(m, tmp_path / f"m.{fmt}", fmt))


RESERVED = "reserved in MPS"
NOT_MPS = "not an MPS name"
NOT_LP = "not an LP name"


@pytest.mark.parametrize("fmt,var,row,why", [
    pytest.param("mps", "x", "OBJ", RESERVED, id="mps_row_OBJ"),
    pytest.param("mps", "x", "MARKER", RESERVED, id="mps_row_MARKER"),
    pytest.param("mps", "x", "'MARKER'", RESERVED,
                 id="mps_row_quoted_MARKER"),
    pytest.param("mps", "a b", "r", NOT_MPS, id="mps_var_with_space"),
    pytest.param("mps", "x", "r 1", NOT_MPS, id="mps_row_with_space"),
    pytest.param("mps", "", "r", NOT_MPS, id="mps_var_empty"),
    pytest.param("mps", "x", "", NOT_MPS, id="mps_row_empty"),
    pytest.param("mps", "*x", "r", NOT_MPS, id="mps_var_star"),
    pytest.param("lp", "p-1", "r", NOT_LP, id="lp_var_p-1"),
    pytest.param("lp", "2x", "r", NOT_LP, id="lp_var_2x"),
    pytest.param("lp", "x", "r-1", NOT_LP, id="lp_row_r-1"),
])
def test_export_refuses_names_it_would_read_back_differently(
        tmp_path, fmt, var, row, why):
    """An `OBJ` row would fold into the objective, a `MARKER` row would read
    as an integrality marker, an MPS name with whitespace splits into two
    fields, an empty one leaves a field out, one starting with `*` makes its
    line a comment, and `p-1` or `2x` are not one LP name token."""
    m = MilpModel("names")
    x = m.add_variable(var, 0.0, 1.0)
    m.add_constraint(row, [(x, 3.0)], "<=", 1.0)
    m.set_objective_coeff(x, 1.0)
    with pytest.raises(InvalidParameter, match=why):
        export_model(m, str(tmp_path / f"m.{fmt}"), fmt=fmt)
    assert_models_equal(m, roundtrip(m, tmp_path / "m.fixed", "mps-fixed"))


@pytest.mark.parametrize("fmt,name", [
    pytest.param("mps", "", id="mps_empty"),
    pytest.param("mps-fixed", "", id="mps-fixed_empty"),
    pytest.param("lp", "", id="lp_empty"),
    pytest.param("mps", "day model", id="mps_space"),
    pytest.param("mps-fixed", "day\tmodel", id="mps-fixed_tab"),
    pytest.param("lp", " day model", id="lp_leading_space"),
    pytest.param("lp", "day\nmodel", id="lp_line_break"),
])
def test_export_refuses_model_names_it_would_read_back_differently(
        tmp_path, fmt, name):
    """MPS reads the model name as one field of the NAME line and LP as the
    stripped first comment line; an empty name reads back as `parsed`."""
    m = tiny_milp()
    m.name = name
    with pytest.raises(InvalidParameter, match="model name"):
        export_model(m, str(tmp_path / "m.txt"), fmt=fmt)


def test_roundtrip_without_sidecar_keeps_file_names(tmp_path):
    m = tiny_milp()
    path = str(tmp_path / "tiny.mps")
    sidecar = export_model(m, path)
    Path(sidecar).unlink()
    back = parse_mps(path)
    assert back.var_names == [sanitize_name(n) for n in m.var_names]
    assert solve_scipy(back).objective == pytest.approx(
        solve_scipy(m).objective, rel=1e-9)


def test_mps_rejects_ranges_section(tmp_path):
    p = tmp_path / "r.mps"
    p.write_text("NAME r\nROWS\n N OBJ\n L c1\nCOLUMNS\n x c1 1.0\n"
                 "RHS\n rhs c1 1.0\nRANGES\n rng c1 0.5\nBOUNDS\nENDATA\n")
    with pytest.raises(UnsupportedFormat):
        parse_mps(str(p))


def test_mps_missing_file_and_garbage(tmp_path):
    with pytest.raises(ParseError):
        parse_mps(str(tmp_path / "absent.mps"))
    p = tmp_path / "bad.mps"
    p.write_text("THIS IS NOT MPS\n")
    with pytest.raises(ParseError):
        parse_mps(str(p))


MPS_OK = ["NAME m", "ROWS", " N OBJ", " L c1", "COLUMNS", " x c1 1.0",
          "RHS", " RHS1 c1 4.0", "BOUNDS", " UP BND x 3.0", "ENDATA"]


@pytest.mark.parametrize("lineno,line", [
    pytest.param(10, " UP BND x", id="bound_without_value"),
    pytest.param(4, " Q c1", id="unknown_row_type"),
    pytest.param(4, " L", id="row_without_name"),
    pytest.param(6, " x c1 abc", id="column_value_not_a_number"),
    pytest.param(6, " x c1", id="column_entry_without_value"),
    pytest.param(8, " RHS1 c1", id="rhs_without_value"),
])
def test_mps_malformed_line_names_file_and_line(tmp_path, lineno, line):
    p = tmp_path / "m.mps"
    p.write_text("\n".join(MPS_OK) + "\n")
    assert parse_mps(str(p)).rows[0][1:] == ([(0, 1.0)], "<=", 4.0)
    lines = list(MPS_OK)
    lines[lineno - 1] = line
    p.write_text("\n".join(lines) + "\n")
    with pytest.raises(ParseError, match=re.escape(f"{p}:{lineno}: ")):
        parse_mps(str(p))


def test_lp_parser_scientific_notation(tmp_path):
    p = tmp_path / "sci.lp"
    p.write_text("Maximize\n obj: 1e-05 x + 2.5e+2 y\nSubject To\n"
                 " c1: x + y <= 10\nBounds\n 0 <= x <= 5\n -1e+1 <= y <= 5\n"
                 "End\n")
    m = parse_lp(str(p))
    assert m.objective[m.col("x")] == pytest.approx(1e-05)
    assert m.objective[m.col("y")] == pytest.approx(250.0)
    assert m.lb[m.col("y")] == pytest.approx(-10.0)


def test_lp_parser_errors(tmp_path):
    p = tmp_path / "bad.lp"
    p.write_text("Maximize\n obj: 1 ?? x\nSubject To\nEnd\n")
    with pytest.raises(ParseError):
        parse_lp(str(p))


# -- solution file parsing --------------------------------------------------

def test_parse_highs_solution(tmp_path):
    p = tmp_path / "s.sol"
    p.write_text("Model status: Optimal\n\n# Primal solution values\n"
                 "Feasible\nObjective 12.5\n# Columns 2\nx 1.0\ny -2.25\n")
    status, obj, values = parse_solution_file(str(p))
    assert status == "Optimal"
    assert obj == pytest.approx(12.5)
    assert values == {"x": 1.0, "y": -2.25}


def test_parse_highs_infeasible(tmp_path):
    p = tmp_path / "s.sol"
    p.write_text("Model status: Infeasible\n")
    status, obj, values = parse_solution_file(str(p))
    assert status == "Infeasible" and obj is None and values == {}


def test_parse_cbc_solution(tmp_path):
    p = tmp_path / "s.sol"
    p.write_text("Optimal - objective value 7.25\n"
                 "      0 x           1.0          3.0\n"
                 "      1 y           2.125        2.0\n")
    status, obj, values = parse_solution_file(str(p))
    assert status == "Optimal"
    assert obj == pytest.approx(7.25)
    assert values == {"x": 1.0, "y": 2.125}


def test_parse_plain_solution(tmp_path):
    p = tmp_path / "s.sol"
    p.write_text("x 1.5\ny 0\n")
    status, obj, values = parse_solution_file(str(p))
    assert status == ""          # plain files carry no status word
    assert obj is None
    assert values == {"x": 1.5, "y": 0.0}


def test_parse_solution_time_limit_word(tmp_path):
    p = tmp_path / "s.sol"
    p.write_text("Model status: Time limit reached\n")
    status, _, _ = parse_solution_file(str(p))
    assert status == "Time limit reached"


# -- external backend via the bundled stub ------------------------------------

def test_external_stub_matches_scipy(monkeypatch):
    monkeypatch.setenv("STUB_MODE", "ok")
    inp = day_inputs(seed=14, hours=2)
    m = build_day_model(inp)
    ext = solve_external(m, STUB_CMD)
    ref = solve_scipy(m, mip_gap=1e-9)
    assert ext.ok and ref.ok
    assert ext.backend == "external"
    assert ext.objective == pytest.approx(ref.objective, rel=1e-6)
    assert m.objective_value(ext.x) == pytest.approx(ext.objective, rel=1e-12)


def test_external_solve_sanitizes_each_name_once(monkeypatch):
    monkeypatch.setenv("STUB_MODE", "ok")
    m = build_day_model(day_inputs(seed=14, hours=2, deg=True))
    calls = []

    def counting(name):
        calls.append(name)
        return sanitize_name(name)

    monkeypatch.setattr("fcrsched.solvers.sanitize_name", counting)
    assert solve_external(m, STUB_CMD).ok
    assert len(calls) == m.n_vars + m.n_rows


def test_external_stub_infeasible(monkeypatch):
    monkeypatch.setenv("STUB_MODE", "infeasible")
    res = solve_external(tiny_milp(), STUB_CMD)
    assert res.status == "Infeasible" and res.x is None


def test_external_stub_crash(monkeypatch):
    monkeypatch.setenv("STUB_MODE", "crash")
    res = solve_external(tiny_milp(), STUB_CMD)
    assert res.status == "BackendError" and not res.ok
    assert "exit code 7" in res.message
    assert "simulated solver crash" in res.message


def test_external_stub_silent(monkeypatch):
    monkeypatch.setenv("STUB_MODE", "silent")
    res = solve_external(tiny_milp(), STUB_CMD)
    assert res.status == "BackendError"
    assert "no solution file" in res.message


def test_external_stub_garbage(monkeypatch):
    monkeypatch.setenv("STUB_MODE", "garbage")
    res = solve_external(tiny_milp(), STUB_CMD)
    assert res.status == "BackendError"


def test_external_missing_binary_raises():
    with pytest.raises(BackendError, match="not found"):
        solve_external(tiny_milp(),
                       "definitely_not_a_solver_7fk3 {model_file} {solution_file}")


def test_external_placeholder_substitution(monkeypatch):
    monkeypatch.setenv("STUB_MODE", "ok")
    cmd = (f"{sys.executable} {STUB} {{model_file}} {{solution_file}} "
           "{time_limit} {gap}")
    res = solve_external(tiny_milp(), cmd, time_limit_s=33.0, mip_gap=1e-5)
    assert res.ok  # stub ignores the extra argv entries


# -- scipy backend ------------------------------------------------------------

def test_scipy_optimal_and_infeasible():
    m = tiny_milp()
    res = solve_scipy(m)
    assert res.ok and res.backend == "scipy"
    # y=3,b=0 beats y=1,b=1 here: 3x+2y at x=1,y=3 -> 9+1.5 ... enumerate:
    # b=0: y=3, x<=1 -> 3+6+1.5 = 10.5 ; b=1: y=1, x<=3 -> 9+2+10+1.5 = 22.5
    assert res.objective == pytest.approx(22.5, rel=1e-9)
    bad = MilpModel("bad")
    v = bad.add_variable("x", 0.0, 1.0)
    bad.add_constraint("lo", [(v, 1.0)], ">=", 2.0)
    assert solve_scipy(bad).status == "Infeasible"


def test_scipy_objective_recomputed_from_x():
    m = tiny_milp()
    res = solve_scipy(m)
    assert res.objective == pytest.approx(m.objective_value(res.x), rel=1e-12)


def test_scipy_keeps_highs_node_count_and_dual_bound():
    from helpers import day_inputs

    model = build_day_model(day_inputs(seed=3, hours=6, deg=True))
    res = solve_scipy(model, mip_gap=1e-9)
    assert res.ok
    assert isinstance(res.nodes, int) and res.nodes >= 0
    # maximize: the dual bound sits on or above the incumbent, within the gap
    assert res.dual_bound >= res.objective - 1e-6
    assert res.dual_bound - res.objective <= \
        max(res.gap, 1e-9) * abs(res.objective) + 1e-6


def test_scipy_keeps_solver_output_off_stdout(monkeypatch, capfd, caplog):
    import logging
    import os
    from types import SimpleNamespace

    def chatty_milp(*args, **kwargs):
        os.write(1, b"HighsMipSolverData::stray line\n")
        return SimpleNamespace(status=2, x=None, message="fake",
                               mip_gap=None, mip_node_count=None,
                               mip_dual_bound=None)

    monkeypatch.setattr("scipy.optimize.milp", chatty_milp)
    with caplog.at_level(logging.DEBUG, logger="fcrsched"):
        res = solve_scipy(tiny_milp())
    assert res.status == "Infeasible"
    assert capfd.readouterr().out == ""
    assert any("HighsMipSolverData::stray line" in r.getMessage()
               for r in caplog.records)
    os.write(1, b"after\n")  # descriptor 1 is restored
    assert capfd.readouterr().out == "after\n"


def test_scipy_runs_highs_without_presolve(monkeypatch):
    from types import SimpleNamespace

    seen = {}

    def recording_milp(*args, options=None, **kwargs):
        seen.update(options)
        return SimpleNamespace(status=2, x=None, message="fake",
                               mip_gap=None, mip_node_count=None,
                               mip_dual_bound=None)

    monkeypatch.setattr("scipy.optimize.milp", recording_milp)
    solve_scipy(tiny_milp(), time_limit_s=12, mip_gap=1e-3)
    assert seen["presolve"] is False
    assert seen["time_limit"] == 12.0
    assert seen["mip_rel_gap"] == 1e-3
    assert seen["disp"] is False


# -- micro backend --------------------------------------------------------------

def test_micro_matches_scipy_on_knapsack():
    rng = np.random.default_rng(17)
    m = MilpModel("knapsack")
    weights = rng.uniform(1.0, 5.0, 12)
    values = rng.uniform(1.0, 9.0, 12)
    cols = [m.add_variable(f"pick[i={i}]", 0.0, 1.0, binary=True)
            for i in range(12)]
    m.add_constraint("weight", [(c, float(w)) for c, w in zip(cols, weights)],
                     "<=", float(weights.sum()) * 0.4)
    for c, v in zip(cols, values):
        m.set_objective_coeff(c, float(v))
    a = solve_micro(m)
    b = solve_scipy(m, mip_gap=1e-9)
    assert a.ok and b.ok
    assert a.objective == pytest.approx(b.objective, rel=1e-9)
    assert a.backend == "micro"
    assert "nodes=" in a.message


def test_micro_matches_scipy_on_day_model():
    inp = day_inputs(seed=15, hours=2, case="FCR_N")
    m = build_day_model(inp)
    assert m.n_binaries <= MICRO_MAX_BINARIES
    a = solve_micro(m)
    b = solve_scipy(m, mip_gap=1e-9)
    assert a.ok and b.ok
    assert a.objective == pytest.approx(b.objective, rel=1e-8)


def test_micro_too_large():
    m = MilpModel("big")
    cols = [m.add_variable(f"b[i={i}]", 0.0, 1.0, binary=True)
            for i in range(MICRO_MAX_BINARIES + 1)]
    for c in cols:
        m.set_objective_coeff(c, 1.0)
    with pytest.raises(TooLarge):
        solve_micro(m)


def test_micro_infeasible_and_time_limit():
    bad = MilpModel("bad")
    v = bad.add_variable("x", 0.0, 1.0, binary=True)
    w = bad.add_variable("y", 0.0, 1.0, binary=True)
    bad.add_constraint("sum_hi", [(v, 1.0), (w, 1.0)], ">=", 1.5)
    bad.add_constraint("sum_lo", [(v, 1.0), (w, 1.0)], "<=", 0.5)
    assert solve_micro(bad).status == "Infeasible"

    rng = np.random.default_rng(23)
    hard = MilpModel("hard")
    cols = [hard.add_variable(f"b[i={i}]", 0.0, 1.0, binary=True)
            for i in range(20)]
    w = rng.uniform(1.0, 3.0, 20)
    hard.add_constraint("w", [(c, float(v)) for c, v in zip(cols, w)],
                        "<=", float(w.sum()) / 2.0)
    for c, v in zip(cols, rng.uniform(1.0, 2.0, 20)):
        hard.set_objective_coeff(c, float(v))
    res = solve_micro(hard, time_limit_s=0.0)
    assert res.status == "TimeLimit"


# -- backend selection -----------------------------------------------------------

def test_get_backend():
    assert get_backend("scipy") is not None
    assert get_backend("micro") is not None
    ext = get_backend("external:mysolver {model_file} {solution_file}")
    assert callable(ext)
    with pytest.raises(InvalidParameter):
        get_backend("cplex")


def test_get_backend_runs_external(tmp_path, monkeypatch):
    monkeypatch.setenv("STUB_MODE", "ok")
    backend = get_backend("external:" + STUB_CMD)
    res = backend(tiny_milp())
    assert res.ok and res.objective == pytest.approx(22.5, rel=1e-9)


def test_external_backend_removes_its_exchange_files(tmp_path, monkeypatch):
    monkeypatch.setenv("STUB_MODE", "ok")
    monkeypatch.setattr("tempfile.tempdir", str(tmp_path))
    backend = get_backend("external:" + STUB_CMD)
    for _ in range(2):
        assert backend(tiny_milp()).ok
    monkeypatch.setenv("STUB_MODE", "crash")
    assert backend(tiny_milp()).status == "BackendError"
    assert list(tmp_path.iterdir()) == []
