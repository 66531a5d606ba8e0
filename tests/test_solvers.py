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
    BatterySpec,
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
        json.dumps(expected) + "\n"

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


@pytest.mark.parametrize("fmt, p_min", [
    (fmt, p_min) for p_min in (0.0, 0.05)
    for fmt in ("mps", "mps-fixed", "lp")],
    ids=["mps", "mps-fixed", "lp", "mps_p_min", "mps-fixed_p_min", "lp_p_min"])
def test_roundtrip_day_model(tmp_path, fmt, p_min):
    inp = day_inputs(seed=13, hours=2, deg=True, spec=BatterySpec(p_min=p_min))
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


@pytest.mark.parametrize("text, why", [
    ("{not json", "not JSON"),
    ("[1, 2]", "not a JSON object"),
    ('{"variables": ["x"], "rows": {}}',
     "'variables' is not a string-to-string object"),
])
@pytest.mark.parametrize("fmt", ["mps", "lp"])
def test_damaged_sidecar_names_the_sidecar(tmp_path, fmt, text, why):
    path = str(tmp_path / f"tiny.{fmt}")
    sidecar = export_model(tiny_milp(), path, fmt=fmt)
    Path(sidecar).write_text(text + "\n", encoding="ascii")
    with pytest.raises(ParseError, match=re.escape(f"{sidecar}: {why}")):
        parse_lp(path) if fmt == "lp" else parse_mps(path)


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
    # forms the writer never writes
    pytest.param(6, " x OBJ 1.0 c1 1.0", id="two_pair_column_line"),
    pytest.param(10, " MI BND x", id="mi_bound"),
    pytest.param(2, "* a comment\nROWS", id="comment_line"),
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
    p.write_text("\\ sci\nMaximize\n obj: 1e-05 x + 2.5e+2 y\nSubject To\n"
                 " c1: 1.0 x + 1.0 y <= 10\nBounds\n 0 <= x <= 5\n"
                 " -1e+1 <= y <= 5\nEnd\n")
    m = parse_lp(str(p))
    assert m.objective[m.col("x")] == pytest.approx(1e-05)
    assert m.objective[m.col("y")] == pytest.approx(250.0)
    assert m.lb[m.col("y")] == pytest.approx(-10.0)


def test_lp_parser_errors(tmp_path):
    p = tmp_path / "bad.lp"
    p.write_text("Maximize\n obj: 1 ?? x\nSubject To\nEnd\n")
    with pytest.raises(ParseError):
        parse_lp(str(p))


LP_OK = ["\\ m", "Maximize", " obj: 2.0 x + 1.0 y", "Subject To",
         " c1: 1.0 x - 1.0 y <= 4.0", "Bounds", " 0.0 <= x <= 3.0",
         " y = 1.0", "End"]


@pytest.mark.parametrize("lineno,line", [
    # forms the writer never writes
    pytest.param(5, " c1: x - 1.0 y <= 4.0", id="term_without_coefficient"),
    pytest.param(5, " 1.0 x - 1.0 y <= 4.0", id="unlabeled_row"),
    pytest.param(5, " c1: 1.0 x\n - 1.0 y <= 4.0", id="wrapped_row"),
    pytest.param(7, " x >= 1", id="one_sided_bound"),
    pytest.param(2, "Minimize", id="minimize"),
    pytest.param(4, "st", id="keyword_st"),
    pytest.param(9, "binary\n y\nEnd", id="keyword_binary"),
    # malformed lines
    pytest.param(5, " c1: abc x - 1.0 y <= 4.0", id="coefficient_abc"),
    pytest.param(5, " c1: 1.0 x? - 1.0 y <= 4.0", id="not_an_lp_name"),
    pytest.param(3, " obj: 2.0 x 1.0 y", id="term_without_sign"),
    pytest.param(5, " c1: 1.0 x - 1.0 y < 4.0", id="unknown_sense"),
    pytest.param(8, " y = 1.0 + 1.0", id="bound_with_extra_fields"),
])
def test_lp_malformed_line_names_file_and_line(tmp_path, lineno, line):
    p = tmp_path / "m.lp"
    p.write_text("\n".join(LP_OK) + "\n")
    m = parse_lp(str(p))
    assert (m.name, m.rows[0][1:]) == ("m", ([(0, 1.0), (1, -1.0)], "<=", 4.0))
    lines = list(LP_OK)
    lines[lineno - 1] = line
    p.write_text("\n".join(lines) + "\n")
    with pytest.raises(ParseError, match=re.escape(f"{p}:{lineno}: ")):
        parse_lp(str(p))


@pytest.mark.parametrize("fmt", ["mps", "lp"])
def test_truncated_model_file_names_file_and_line(tmp_path, fmt):
    lines = MPS_OK if fmt == "mps" else LP_OK
    p = tmp_path / f"m.{fmt}"
    p.write_text("\n".join(lines[:-1]) + "\n")  # no ENDATA or End
    with pytest.raises(ParseError, match=re.escape(
            f"{p}:{len(lines) - 1}: the file ends before {lines[-1]}")):
        parse_mps(str(p)) if fmt == "mps" else parse_lp(str(p))


def test_lp_general_section_is_unsupported(tmp_path):
    p = tmp_path / "g.lp"
    p.write_text("\n".join(LP_OK[:-1] + ["General", " y", "End"]) + "\n")
    with pytest.raises(UnsupportedFormat, match="general integers"):
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


# -- lazily enforced binaries ----------------------------------------------------

def record_milp(monkeypatch, replies=None):
    """Record each `scipy.optimize.milp` call's integrality, options, column
    bounds and the status it returned.

    Call `i` returns `replies[i](real_result)` when given, else HiGHS's own
    result."""
    import scipy.optimize

    real = scipy.optimize.milp
    calls = []

    def recording(*args, integrality=None, options=None, bounds=None,
                  **kwargs):
        call = {"integrality": np.array(integrality),
                "options": dict(options), "lb": np.array(bounds.lb),
                "ub": np.array(bounds.ub)}
        calls.append(call)
        res = real(*args, integrality=integrality, options=options,
                   bounds=bounds, **kwargs)
        reply = (replies or {}).get(len(calls) - 1)
        res = res if reply is None else reply(res)
        call["status"] = res.status
        return res

    monkeypatch.setattr("scipy.optimize.milp", recording)
    return calls


def bid_below_minimum_model() -> MilpModel:
    """FCR_N day (seed 2, 4 hours) whose LP relaxation bids FCR-N below its
    minimum bid, so rounding `b_n` up breaks a `bid_n_lo` row."""
    m = build_day_model(day_inputs(seed=2, case="FCR_N", hours=4))
    assert m.relax_binaries_first
    return m


def test_lazy_binaries_enforce_the_violated_minimum_bid(monkeypatch):
    from fcrsched import validate_solution

    m = bid_below_minimum_model()
    calls = record_milp(monkeypatch)
    res = solve_scipy(m, mip_gap=1e-9)
    assert res.ok and res.rounds == len(calls) >= 2
    assert not calls[0]["integrality"].any()    # round 1 is the LP
    second = calls[1]["integrality"].astype(bool)
    assert second.any() and not second.all()
    assert {m.var_names[j].split("[")[0] for j in np.flatnonzero(second)} \
        == {"b_n"}
    binary = np.array(m.is_binary)
    assert set(np.unique(res.x[binary])) <= {0.0, 1.0}
    assert validate_solution(m, res.x).ok
    m.relax_binaries_first = False
    full = solve_scipy(m, mip_gap=1e-9)
    assert len(calls) == res.rounds + 1
    assert calls[-1]["integrality"].astype(bool).tolist() == m.is_binary
    assert abs(full.objective - res.objective) <= 1e-9 * abs(full.objective)
    assert res.gap <= 1e-9
    assert res.dual_bound >= res.objective


def costly_flag_model() -> MilpModel:
    """max 3x - b, x <= b, x <= 0.5: the LP sets b = x = 0.5 (bound 1.0);
    b rounded up passes every row but is worth 0.5."""
    m = MilpModel("costly_flag")
    x = m.add_variable("x", 0.0, 0.5)
    b = m.add_variable("b", 0.0, 1.0, binary=True)
    m.add_constraint("link", [(x, 1.0), (b, -1.0)], "<=", 0.0)
    m.set_objective_coeff(x, 3.0)
    m.set_objective_coeff(b, -1.0)
    m.relax_binaries_first = True
    return m


def test_lazy_binaries_refuse_a_valid_rounding_outside_the_gap(monkeypatch):
    # the rounding is outside the gap, so the binary must be enforced and
    # the certificate come from the full solve
    m = costly_flag_model()
    calls = record_milp(monkeypatch)
    res = solve_scipy(m, mip_gap=1e-6)
    assert res.ok and res.rounds == len(calls) == 2
    assert calls[1]["integrality"].tolist() == [0, 1]
    assert res.objective == pytest.approx(0.5, abs=1e-9)
    assert res.gap <= 1e-6


def test_lazy_binaries_infeasible_relaxation_stops_at_once(monkeypatch):
    m = MilpModel("bad")
    v = m.add_variable("x", 0.0, 1.0)
    b = m.add_variable("b", 0.0, 1.0, binary=True)
    m.add_constraint("lo", [(v, 1.0), (b, 1.0)], ">=", 3.0)
    m.relax_binaries_first = True
    calls = record_milp(monkeypatch)
    res = solve_scipy(m)
    assert res.status == "Infeasible" and res.x is None
    assert res.rounds == len(calls) == 1
    assert not calls[0]["integrality"].any()


def test_lazy_binaries_time_limit_in_round_two(monkeypatch):
    from types import SimpleNamespace

    m = bid_below_minimum_model()
    lp_x = {}

    def keep(res):
        lp_x["x"] = res.x
        return res

    # round 2 runs out of time holding round 1's point, whose rounding
    # breaks a minimum bid
    calls = record_milp(monkeypatch, {
        0: keep,
        1: lambda res: SimpleNamespace(
            status=1, x=lp_x["x"], fun=None, message="fake time limit",
            mip_gap=None, mip_node_count=7, mip_dual_bound=None)})
    res = solve_scipy(m, time_limit_s=30.0)
    assert len(calls) == res.rounds == 2
    assert calls[0]["options"]["time_limit"] == 30.0
    assert 0.0 < calls[1]["options"]["time_limit"] < 30.0
    assert res.status == "TimeLimit"
    assert res.x is None and res.objective is None
    assert res.nodes == 7


def test_lazy_binaries_out_of_time_keep_the_rounding_that_passed(
        monkeypatch):
    from types import SimpleNamespace

    # round 1's rounding passes every row but lies outside the gap; the
    # full solve then runs out of time before a point of its own
    m = costly_flag_model()
    calls = record_milp(monkeypatch, {1: lambda res: SimpleNamespace(
        status=1, x=None, fun=None, message="fake time limit", mip_gap=None,
        mip_node_count=3, mip_dual_bound=None)})
    res = solve_scipy(m, mip_gap=1e-6)
    assert len(calls) == res.rounds == 2
    assert calls[1]["integrality"].tolist() == [0, 1]
    assert res.status == "TimeLimit"
    assert res.x.tolist() == [0.5, 1.0]
    assert res.objective == pytest.approx(0.5, abs=1e-12)
    # the gap is to round 1's bound, the smallest either round gave
    assert res.dual_bound == pytest.approx(1.0, abs=1e-12)
    assert res.gap == pytest.approx(1.0, abs=1e-12)


def test_unflagged_model_is_one_full_solve(monkeypatch):
    m = build_day_model(day_inputs(seed=2, case="FCR_N", hours=4))
    m.relax_binaries_first = False
    calls = record_milp(monkeypatch)
    res = solve_scipy(m, time_limit_s=30.0)
    assert res.ok and res.rounds == len(calls) == 1
    assert calls[0]["integrality"].astype(bool).tolist() == m.is_binary
    assert calls[0]["options"]["time_limit"] == 30.0
    assert not tiny_milp().relax_binaries_first


def indicator_pair_model(ds_max: float = 2.0,
                         ch_max: float = 2.0) -> MilpModel:
    """Charge and discharge flows, each behind an indicator (`flow <= 2 b`),
    with at most one indicator set."""
    m = MilpModel("indicators")
    for side, hi in (("ch", ch_max), ("ds", ds_max)):
        flow = m.add_variable(side, 0.0, hi)
        b = m.add_variable(f"b_{side}", 0.0, 1.0, binary=True)
        m.add_constraint(f"up_{side}", [(flow, 1.0), (b, -2.0)], "<=", 0.0)
    m.add_constraint("excl", [(m.col("b_ch"), 1.0), (m.col("b_ds"), 1.0)],
                     "<=", 1.0)
    return m


def test_rounding_sets_a_binary_only_where_a_row_needs_it():
    from fcrsched.solvers import _round_binaries

    m = indicator_pair_model()
    bid = m.add_variable("bid", 0.0, 1.0)
    b_n = m.add_variable("b_n", 0.0, 1.0, binary=True)
    m.add_constraint("bid_gate", [(b_n, 1.0), (bid, -1.0)], ">=", 0.0)
    m.add_constraint("bid_lo", [(bid, 1.0), (b_n, -0.5)], ">=", 0.0)
    b1 = m.add_variable("b1", 0.0, 1.0, binary=True)
    b2 = m.add_variable("b2", 0.0, 1.0, binary=True)
    m.add_constraint("pair", [(b1, 1.0), (b2, 1.0)], "<=", 1.0)
    tiny = m.add_variable("tiny", 0.0, 1.0, binary=True)
    m.add_constraint("cap", [(tiny, 1.0), (m.col("ch"), 1.0)], "<=", 5.0)
    relaxed = np.zeros(m.n_vars, dtype=bool)

    def rounded(**values):
        x = np.zeros(m.n_vars)
        for name, v in values.items():
            x[m.col(name)] = v
        out, _ = _round_binaries(m, x, relaxed)
        continuous = ~np.array(m.is_binary)
        assert np.array_equal(out[continuous], x[continuous])
        return {n: out[m.col(n)] for n in ("b_ch", "b_ds", "b_n", "b1", "b2",
                                           "tiny")}

    # b_ch's partner is 0, so no row needs it, whatever HiGHS left there
    point = dict(ch=0.0, b_ch=0.3, ds=1.0, b_ds=0.5, bid=0.6, b_n=0.3,
                 b1=0.4, b2=0.6, tiny=1e-10)
    assert rounded(**point) == {"b_ch": 0.0, "b_ds": 1.0, "b_n": 1.0,
                                "b1": 0.0, "b2": 0.0, "tiny": 0.0}
    assert rounded(**{**point, "ch": 0.4})["b_ch"] == 1.0
    assert rounded(**{**point, "bid": 0.0})["b_n"] == 0.0
    # an enforced binary goes to its nearest integer
    enforced = relaxed.copy()
    enforced[b2] = True
    x = np.zeros(m.n_vars)
    x[b2] = 1.0 - 1e-8
    assert _round_binaries(m, x, enforced)[0][b2] == 1.0


def test_lazy_binaries_leave_an_unneeded_indicator_at_zero(monkeypatch):
    from types import SimpleNamespace

    import fcrsched.solvers as solvers

    # max ds with ds <= 0.5: the first round's point is an optimum of the
    # relaxation with b_ch at 0.5, where no row needs it; rounding b_ch up
    # too would break `excl` and cost a second round
    m = indicator_pair_model(ds_max=0.5)
    m.set_objective_coeff(m.col("ds"), 1.0)
    m.relax_binaries_first = True
    real = solvers._milp_quiet
    calls = []

    def first_round_point(*args, **kwargs):
        calls.append(kwargs["integrality"].copy())
        if len(calls) > 1:
            return real(*args, **kwargs)
        return SimpleNamespace(status=0, x=np.array([0.0, 0.5, 0.5, 0.5]),
                               fun=-0.5, message="fake LP", mip_gap=None,
                               mip_node_count=None, mip_dual_bound=None)

    monkeypatch.setattr(solvers, "_milp_quiet", first_round_point)
    res = solve_scipy(m, mip_gap=1e-9)
    assert res.status == "Optimal" and res.rounds == len(calls) == 1
    assert not calls[0].any()
    assert res.x.tolist() == [0.0, 0.0, 0.5, 1.0]
    assert res.objective == pytest.approx(0.5) and res.gap == 0.0


def test_wall_time_covers_the_projection(monkeypatch):
    import time

    import fcrsched.solvers as solvers

    build = solvers._RelaxedProjection.__init__

    def slow_build(self, model):
        time.sleep(0.2)
        build(self, model)

    monkeypatch.setattr(solvers._RelaxedProjection, "__init__", slow_build)
    m = bid_below_minimum_model()
    calls = record_milp(monkeypatch)
    res = solve_scipy(m, time_limit_s=30.0)
    assert res.ok and res.wall_time >= 0.2
    # the first round still gets the whole time limit
    assert calls[0]["options"]["time_limit"] == 30.0


# -- repairing a rounding that breaks only binary rows ---------------------------

def test_repair_resolves_a_tied_indicator_pair_without_a_mip_round(
        monkeypatch):
    from types import SimpleNamespace

    from fcrsched import validate_solution

    # max ds with ds <= 1: every ch in [0, 1] ties, and the LP point given
    # here charges and discharges at once, so rounding both indicators up
    # breaks only `excl`
    m = indicator_pair_model(ds_max=1.0)
    m.set_objective_coeff(m.col("ds"), 1.0)
    m.relax_binaries_first = True
    calls = record_milp(monkeypatch, {0: lambda res: SimpleNamespace(
        status=0, x=np.array([0.5, 0.0, 1.0, 0.0]), fun=-1.0,
        message="tied LP point", mip_gap=None, mip_node_count=None,
        mip_dual_bound=None)})
    res = solve_scipy(m, mip_gap=1e-9)
    assert res.status == "Optimal" and res.rounds == len(calls) == 2
    assert not any(call["integrality"].any() for call in calls)
    # the repair keeps the larger flow's indicator and fixes every binary
    assert calls[1]["lb"].tolist() == [0.0, 0.0, 0.0, 1.0]
    assert calls[1]["ub"].tolist() == [2.0, 0.0, 1.0, 1.0]
    assert res.x.tolist() == [0.0, 0.0, 1.0, 1.0]
    assert validate_solution(m, res.x).ok
    assert res.dual_bound == 1.0 and res.gap == 0.0
    m.relax_binaries_first = False
    assert res.objective == pytest.approx(solve_scipy(m).objective, abs=1e-12)


def wide_indicator_pair() -> MilpModel:
    """max ch + ds, each flow at most 1.5: the relaxation's optimum 2 needs
    both flows, the model's own is 1.5."""
    m = indicator_pair_model(ds_max=1.5, ch_max=1.5)
    m.set_objective_coeff(m.col("ch"), 1.0)
    m.set_objective_coeff(m.col("ds"), 1.0)
    m.relax_binaries_first = True
    return m


def test_repair_outside_the_gap_enforces_the_rows_binaries(monkeypatch):
    m = wide_indicator_pair()
    calls = record_milp(monkeypatch)
    res = solve_scipy(m, mip_gap=1e-6)
    # LP, then a repair worth 1.5 against the bound 2, then the binaries
    # of `excl` enforced
    assert res.ok and res.rounds == len(calls) == 3
    assert not calls[0]["integrality"].any()
    assert not calls[1]["integrality"].any() and calls[1]["status"] == 0
    assert calls[2]["integrality"].tolist() == [0, 1, 0, 1]
    assert res.objective == pytest.approx(1.5, abs=1e-9)
    assert res.gap <= 1e-6


def test_infeasible_repair_enforces_the_rows_binaries(monkeypatch):
    # with ch worth more, the LP point leans to charging, so the repair
    # keeps b_ch; the floor on ds then leaves its LP no point
    m = wide_indicator_pair()
    m.set_objective_coeff(m.col("ch"), 1.01)
    m.add_constraint("ds_floor", [(m.col("ds"), 1.0)], ">=", 0.3)
    calls = record_milp(monkeypatch)
    res = solve_scipy(m, mip_gap=1e-6)
    assert res.ok and res.rounds == len(calls) == 3
    assert calls[1]["lb"][m.col("b_ch")] == 1.0
    assert calls[1]["ub"][m.col("b_ds")] == 0.0
    assert not calls[1]["integrality"].any() and calls[1]["status"] == 2
    assert calls[2]["integrality"].tolist() == [0, 1, 0, 1]
    assert res.x[m.col("b_ds")] == 1.0
    assert res.objective == pytest.approx(1.5, abs=1e-9)


def test_each_highs_call_is_logged_with_its_kind_and_broken_rows(
        monkeypatch, caplog):
    import logging

    calls = record_milp(monkeypatch)
    with caplog.at_level(logging.DEBUG, logger="fcrsched"):
        res = solve_scipy(wide_indicator_pair(), mip_gap=1e-6)
    lines = [r.getMessage() for r in caplog.records
             if r.getMessage().startswith("HiGHS call")]
    assert res.ok and len(lines) == len(calls) == 3
    patterns = [r"HiGHS call 1, LP: \d+\.\d{3} s, status 0; point breaks excl",
                r"HiGHS call 2, repair LP: \d+\.\d{3} s, status 0; point "
                r"passes, gap 3\.33e-01",
                r"HiGHS call 3, MIP with 2 enforced binaries: \d+\.\d{3} s, "
                r"status 0"]
    for pattern, line in zip(patterns, lines):
        assert re.fullmatch(pattern, line), line


def test_a_nodeg_day_tied_in_its_last_hour_takes_no_mip_round(
        tmp_path, monkeypatch):
    from fcrsched import RunConfig, load_bundle, validate_solution
    from fcrsched.orchestrate import calendar_age
    from fcrsched.orchestrate import day_inputs as horizon_day_inputs

    # acceptance test 8's seed 3, nodeg, day 5 from s0 = 0.1: the LP
    # charges and discharges in hour 23 at no cost, which breaks only
    # `bl_excl[h=23]` once both indicators are rounded up
    cfg = RunConfig(case_id="MULTI", days=tuple(range(7)), steps_per_hour=4,
                    hours_per_day=24, solver="scipy", mip_gap=1e-4,
                    outdir=str(tmp_path))
    bundle = load_bundle(cfg, synthetic_seed=3)
    m = build_day_model(horizon_day_inputs(bundle, 5, 0.1,
                                           calendar_age(cfg, 5), "MULTI",
                                           False))
    calls = record_milp(monkeypatch)
    res = solve_scipy(m, mip_gap=1e-4)
    assert res.ok and res.rounds == len(calls) == 2
    assert not any(call["integrality"].any() for call in calls)
    assert validate_solution(m, res.x).ok
    assert res.gap <= 1e-4
    m.relax_binaries_first = False
    full = solve_scipy(m, mip_gap=1e-4)
    assert abs(full.objective - res.objective) <= 1e-4 * abs(full.objective)


# -- relaxed binaries projected out --------------------------------------------------

def first_round(model: MilpModel):
    """The projection of `model` and its rows, triplets-style, in a round
    that enforces no binary, plus the mask of the columns fixed at 0."""
    from fcrsched.solvers import _RelaxedProjection

    projection = _RelaxedProjection(model)
    active = projection.active(np.zeros(model.n_vars, dtype=bool))
    return projection, active, projection.rows(active), \
        projection.fixed(active)


def relaxation_optimum(model: MilpModel, project: bool) -> float:
    """The LP relaxation's optimum, with the relaxed binaries projected out
    or not."""
    import scipy.sparse as sp
    from scipy.optimize import Bounds, LinearConstraint, milp

    lb, ub = np.array(model.lb), np.array(model.ub)
    if project:
        _, _, (rows, cols, vals, lo, hi), fixed = first_round(model)
        lb[fixed] = ub[fixed] = 0.0
    else:
        rows, cols, vals, lo, hi = model.triplets()
    a = sp.csc_array((vals, (rows, cols)), shape=(lo.size, model.n_vars))
    res = milp(-model.objective_vector(),
               constraints=LinearConstraint(a, lo, hi), bounds=Bounds(lb, ub))
    assert res.status == 0
    return -res.fun


def min_bid_model() -> MilpModel:
    """max bid + 2 x with bid + x <= 1.5, x <= 1 and a minimum bid:
    `bid >= 0.5 b`, `bid <= 2 b`."""
    m = MilpModel("min_bid")
    bid = m.add_variable("bid", 0.0, 2.0)
    x = m.add_variable("x", 0.0, 1.0)
    b = m.add_variable("b", 0.0, 1.0, binary=True)
    m.add_constraint("bid_lo", [(bid, 1.0), (b, -0.5)], ">=", 0.0)
    m.add_constraint("bid_up", [(bid, 1.0), (b, -2.0)], "<=", 0.0)
    m.add_constraint("share", [(bid, 1.0), (x, 1.0)], "<=", 1.5)
    m.set_objective_coeff(bid, 1.0)
    m.set_objective_coeff(x, 2.0)
    return m


def test_projection_drops_a_relaxed_minimum_bid_pair():
    m = min_bid_model()
    projection, _, (rows, cols, vals, lo, hi), fixed = first_round(m)
    assert projection.n_components == 1
    # only `share` is left, and b is fixed at 0
    assert rows.tolist() == [0, 0] and cols.tolist() == [0, 1]
    assert vals.tolist() == [1.0, 1.0]
    assert lo.tolist() == [-np.inf] and hi.tolist() == [1.5]
    assert fixed.tolist() == [False, False, True]
    assert relaxation_optimum(m, project=True) == pytest.approx(
        relaxation_optimum(m, project=False), abs=1e-12)
    assert relaxation_optimum(m, project=True) == pytest.approx(2.5)


def test_projection_of_an_indicator_pair_is_one_row():
    m = indicator_pair_model()
    projection, _, (rows, cols, vals, lo, hi), fixed = first_round(m)
    assert projection.n_components == 1
    # ch + ds <= 2, in whatever scale
    assert rows.tolist() == [0, 0] and lo.tolist() == [-np.inf]
    assert {m.var_names[c]: 2.0 * v / hi[0] for c, v in zip(cols, vals)} \
        == pytest.approx({"ch": 1.0, "ds": 1.0})
    assert [m.var_names[c] for c in np.flatnonzero(fixed)] == ["b_ch", "b_ds"]


def test_projection_keeps_a_binary_in_an_equality_row():
    m = indicator_pair_model()
    m.add_constraint("pin", [(m.col("b_ch"), 1.0), (m.col("ch"), -0.25)],
                     "==", 0.0)
    projection, _, (rows, cols, vals, lo, hi), fixed = first_round(m)
    # b_ch is kept, so b_ds shares `excl` with a kept binary
    assert projection.comp_of_col[m.col("b_ch")] == -1
    assert lo.size == m.n_rows - 1
    assert [m.var_names[c] for c in np.flatnonzero(fixed)] == ["b_ds"]


def test_projection_keeps_a_binary_with_a_cost():
    m = indicator_pair_model()
    m.set_objective_coeff(m.col("ch"), 1.0)
    m.set_objective_coeff(m.col("ds"), 1.5)
    m.set_objective_coeff(m.col("b_ds"), -0.1)
    projection, _, (_, _, _, lo, _), fixed = first_round(m)
    assert projection.comp_of_col[m.col("b_ds")] == -1
    assert projection.comp_of_col[m.col("b_ch")] >= 0
    assert [m.var_names[c] for c in np.flatnonzero(fixed)] == ["b_ch"]
    # up_ch and excl become `ch <= 2 - 2 b_ds`; up_ds stays
    assert lo.size == 2
    assert relaxation_optimum(m, project=True) == pytest.approx(
        relaxation_optimum(m, project=False), abs=1e-12)
    assert relaxation_optimum(m, project=True) == pytest.approx(2.9)


def test_projection_keeps_a_component_it_would_grow():
    # x1, x2, x3 <= b <= y1, y2: five rows, six once b is eliminated
    m = MilpModel("grow")
    b = m.add_variable("b", 0.0, 1.0, binary=True)
    for name in ("x1", "x2", "x3"):
        x = m.add_variable(name, 0.0, 1.0)
        m.add_constraint(f"lo_{name}", [(x, 1.0), (b, -1.0)], "<=", 0.0)
    for name in ("y1", "y2"):
        y = m.add_variable(name, 0.0, 1.0)
        m.add_constraint(f"up_{name}", [(b, 1.0), (y, -1.0)], "<=", 0.0)
    projection, _, (rows, cols, vals, lo, hi), fixed = first_round(m)
    assert projection.n_components == 0 and not fixed.any()
    full = m.triplets()
    for got, want in zip((rows, cols, vals, lo, hi), full):
        assert got.tolist() == want.tolist()


def test_projection_lays_out_each_component_at_its_first_row():
    # two components of one kind (b <= y, x <= b, z <= b: three rows that
    # project to x <= y and z <= y) and one of another (x <= b <= y: two
    # rows, one a `>=` row, that project to x <= y), with plain rows
    # between them
    m = MilpModel("layout")
    col = {name: m.add_variable(name, 0.0, 1.0, binary=name[0] == "b")
           for name in ("b_a0", "x_a0", "z_a0", "y_a0", "b_a1", "x_a1",
                        "z_a1", "y_a1", "b_b", "x_b", "y_b")}
    for name, terms, sense, rhs in (
            ("cap", [("x_a0", 1.0), ("x_b", 1.0)], "<=", 1.5),
            ("lo_x_a0", [("x_a0", 1.0), ("b_a0", -1.0)], "<=", 0.0),
            ("lo_x_b", [("x_b", 1.0), ("b_b", -1.0)], "<=", 0.0),
            ("lo_z_a0", [("z_a0", 1.0), ("b_a0", -1.0)], "<=", 0.0),
            ("floor", [("y_a0", 1.0), ("y_a1", 1.0)], ">=", 0.5),
            ("lo_x_a1", [("x_a1", 1.0), ("b_a1", -1.0)], "<=", 0.0),
            ("up_a0", [("b_a0", 1.0), ("y_a0", -1.0)], "<=", 0.0),
            ("up_b", [("y_b", 1.0), ("b_b", -1.0)], ">=", 0.0),
            ("lo_z_a1", [("z_a1", 1.0), ("b_a1", -1.0)], "<=", 0.0),
            ("up_a1", [("b_a1", 1.0), ("y_a1", -1.0)], "<=", 0.0),
            ("sum", [("x_a1", 1.0), ("z_a1", 1.0)], "==", 0.75)):
        m.add_constraint(name, [(col[c], v) for c, v in terms], sense, rhs)
    for name in ("x_a0", "z_a0", "x_a1", "z_a1", "x_b"):
        m.set_objective_coeff(col[name], 1.0)
    from fcrsched.solvers import _RelaxedProjection

    projection = _RelaxedProjection(m)
    enforced = np.zeros(m.n_vars, dtype=bool)
    enforced[col["b_a1"]] = True
    active = projection.active(enforced)
    rows, cols, vals, lo, hi = projection.rows(active)
    # cap; a0's x <= y and z <= y at lo_x_a0; b's x <= y at lo_x_b;
    # floor; a1's own rows in model order; sum
    assert rows.tolist() == [0, 0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6, 6, 7, 7,
                             8, 8]
    assert [m.var_names[c] for c in cols] == [
        "x_a0", "x_b", "y_a0", "x_a0", "y_a0", "z_a0", "y_b", "x_b",
        "y_a0", "y_a1", "x_a1", "b_a1", "z_a1", "b_a1", "b_a1", "y_a1",
        "x_a1", "z_a1"]
    assert vals.tolist() == [1.0, 1.0, -1.0, 1.0, -1.0, 1.0, -1.0, 1.0, 1.0,
                             1.0, 1.0, -1.0, 1.0, -1.0, 1.0, -1.0, 1.0, 1.0]
    assert lo.tolist() == [-np.inf] * 4 + [0.5] + [-np.inf] * 3 + [0.75]
    assert hi.tolist() == [1.5, 0.0, 0.0, 0.0, np.inf, 0.0, 0.0, 0.0, 0.75]
    assert [m.var_names[c] for c in np.flatnonzero(projection.fixed(active))] \
        == ["b_a0", "b_b"]


@pytest.mark.parametrize("model", ["indicators", "day"])
def test_restored_point_meets_every_row_of_the_full_model(model):
    import scipy.sparse as sp
    from scipy.optimize import Bounds, LinearConstraint, milp

    from fcrsched import validate_solution
    from fcrsched.solvers import _round_binaries

    if model == "indicators":
        m = indicator_pair_model()
        x = np.array([1.0, 0.0, 0.5, 0.0])     # the projection's point
    else:
        m = build_day_model(day_inputs(seed=3, hours=6, deg=True))
        _, _, (rows, cols, vals, lo, hi), fixed = first_round(m)
        lb, ub = np.array(m.lb), np.array(m.ub)
        lb[fixed] = ub[fixed] = 0.0
        a = sp.csc_array((vals, (rows, cols)), shape=(lo.size, m.n_vars))
        x = milp(-m.objective_vector(),
                 constraints=LinearConstraint(a, lo, hi),
                 bounds=Bounds(lb, ub)).x
    binary = np.array(m.is_binary)
    _, least = _round_binaries(m, x, np.zeros(m.n_vars, dtype=bool))
    # each relaxed binary raised to the smallest value its rows allow
    restored = x.copy()
    restored[binary] = np.maximum(x[binary], least[binary])
    assert ((restored[binary] >= 0.0) & (restored[binary] <= 1.0)).all()
    report = validate_solution(m, restored)
    assert {v.family for v in report.violations} <= {"integrality"}
    if model == "indicators":
        assert restored.tolist() == [1.0, 0.5, 0.5, 0.25]


def test_first_round_of_a_day_gets_fewer_rows(monkeypatch):
    import scipy.optimize

    m = build_day_model(day_inputs(seed=1, hours=24, deg=True))
    real = scipy.optimize.milp
    shapes = []

    def recording(*args, constraints=None, **kwargs):
        shapes.append(constraints.A.shape)
        return real(*args, constraints=constraints, **kwargs)

    monkeypatch.setattr("scipy.optimize.milp", recording)
    res = solve_scipy(m, mip_gap=1e-4)
    assert res.ok
    # 24 hours: the minimum-bid pairs of three markets go, the baseline
    # pair's three rows become one, each calendar pick's three rows two
    assert (m.n_rows, shapes[0]) == (704, (488, m.n_vars + 1))


def test_objective_constant_is_a_fixed_continuous_column(monkeypatch):
    import scipy.optimize

    real = scipy.optimize.milp
    seen = {}

    def recording(c, *args, integrality=None, bounds=None, **kwargs):
        seen.update(c=np.array(c), integrality=np.array(integrality),
                    lb=np.array(bounds.lb), ub=np.array(bounds.ub))
        return real(c, *args, integrality=integrality, bounds=bounds,
                    **kwargs)

    monkeypatch.setattr("scipy.optimize.milp", recording)
    m = tiny_milp()
    res = solve_scipy(m)
    assert seen["c"].size == m.n_vars + 1
    assert seen["c"][-1] == -m.objective_const == -1.5
    assert seen["integrality"][-1] == 0
    assert seen["lb"][-1] == seen["ub"][-1] == 1.0
    assert res.x.size == m.n_vars
    assert res.objective == pytest.approx(22.5, rel=1e-9)
    assert res.dual_bound == pytest.approx(22.5, rel=1e-9)


def test_lazy_rounds_stop_on_the_gap_of_the_objective_with_its_constant(
        tmp_path, monkeypatch):
    from fcrsched import RunConfig, load_bundle
    from fcrsched.orchestrate import calendar_age
    from fcrsched.orchestrate import day_inputs as horizon_day_inputs

    # acceptance test 8's seed 5, deg mode, day 2, from the SoE day 1 left:
    # HiGHS closed a round that the certificate refused when the two
    # measured the gap without and with the objective's constant
    cfg = RunConfig(case_id="MULTI", days=tuple(range(7)), steps_per_hour=4,
                    hours_per_day=24, solver="scipy", mip_gap=1e-4,
                    outdir=str(tmp_path))
    bundle = load_bundle(cfg, synthetic_seed=5)
    m = build_day_model(horizon_day_inputs(bundle, 2, 0.1,
                                           calendar_age(cfg, 2), "MULTI",
                                           True))
    assert m.relax_binaries_first and m.objective_const != 0.0
    calls = record_milp(monkeypatch)
    res = solve_scipy(m, mip_gap=1e-4)
    assert res.ok and res.rounds == len(calls)
    binary = np.array(m.is_binary)
    assert not any(call["integrality"][:m.n_vars][binary].all()
                   for call in calls)
    assert res.gap == (res.dual_bound - res.objective) / abs(res.objective)
    assert res.gap <= 1e-4


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


@pytest.mark.parametrize("deg", [False, True], ids=["nodeg", "deg"])
def test_micro_matches_scipy_on_day_model(deg):
    # in deg mode the objective has a constant (the calendar aging)
    inp = day_inputs(seed=15, hours=2, case="FCR_N", deg=deg)
    m = build_day_model(inp)
    assert m.n_binaries <= MICRO_MAX_BINARIES
    assert (m.objective_const != 0.0) == deg
    a = solve_micro(m)
    b = solve_scipy(m, mip_gap=1e-9)
    assert a.ok and b.ok
    assert a.objective == pytest.approx(b.objective, rel=1e-8)
    assert a.objective == pytest.approx(m.objective_value(a.x), rel=1e-12)


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
