"""Solver backends and model exchange formats.

Three interchangeable ways to optimize a `MilpModel`:

* ``scipy``    - in-process branch-and-cut via `scipy.optimize.milp`.
* ``micro``    - self-contained exact branch-and-bound on top of the bundled
  two-phase simplex; refuses models above 24 binaries or 200 continuous
  variables. Useful as an independent cross-check and when scipy is absent.
* ``external:<command template>`` - writes the model to disk, runs any MILP
  solver as a subprocess and parses its solution file. The template may use
  the placeholders ``{model_file}``, ``{solution_file}``, ``{time_limit}``
  and ``{gap}``.

Model files can be written as free MPS with names derived from the
registry (``mps``, the default), free MPS with generated 8-character names
(``mps-fixed``; the fields are space-separated, not in fixed columns) or
CPLEX-style LP text (``lp``). Every export writes a sidecar
``<file>.names.json`` mapping file names back to registry names; the bundled
MPS/LP parsers restore registry names through it, so export/parse round-trips
reproduce the model exactly.
"""

from __future__ import annotations

import ctypes
import itertools
import json
import logging
import math
import os
import re
import shlex
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass

import numpy as np

from .errors import (
    BackendError,
    InvalidParameter,
    ParseError,
    TooLarge,
    UnsupportedFormat,
)
from .milp import MilpModel, ViolationReport, validate_solution
from .simplex import solve_lp

MICRO_MAX_BINARIES = 24
MICRO_MAX_CONTINUOUS = 200

EXPORT_FORMATS = ("mps", "mps-fixed", "lp")

log = logging.getLogger("fcrsched")

_STATUS_WORDS = {"Optimal", "Infeasible", "TimeLimit", "BackendError"}


@dataclass(frozen=True)
class SolveResult:
    status: str
    x: np.ndarray | None
    objective: float | None
    gap: float
    wall_time: float
    backend: str
    message: str = ""
    nodes: int = 0                  # branch-and-bound nodes, where reported
    dual_bound: float = math.nan    # in the model's (maximize) sense
    rounds: int = 1                 # solver calls; several for lazy binaries

    def __post_init__(self):
        if self.status not in _STATUS_WORDS:
            raise InvalidParameter(f"unknown solve status {self.status!r}")

    @property
    def ok(self) -> bool:
        return self.status == "Optimal" and self.x is not None


# -- name handling -----------------------------------------------------------

# LP section keywords in any case; LP readers take a line that starts with
# one for a section header, so LP export refuses them as names
_LP_KEYWORDS = frozenset({"maximize", "minimize", "subject", "st", "bounds",
                          "binaries", "binary", "bin", "general", "generals",
                          "end"})
# a name LP readers take for one name token
_LP_NAME = re.compile(r"[A-Za-z_][A-Za-z0-9_.]*")
# a name MPS readers take for one field: not empty, no whitespace, and no
# leading `*`, which starts a comment line
_MPS_NAME = r"[^\s*]\S*"
_MPS_COLUMN_NAME = re.compile(_MPS_NAME)
# row names the MPS writer uses itself: the objective row, and the column
# entries MPS readers take for integrality markers
_MPS_RESERVED = re.compile(r"OBJ|'*MARKER'*")
_MPS_ROW_NAME = re.compile(rf"(?!(?:{_MPS_RESERVED.pattern})\Z){_MPS_NAME}")
# a model name the parsers read back unchanged: MPS reads one field of the
# NAME line, LP the stripped rest of the first comment line
_MPS_MODEL_NAME = re.compile(r"\S+")
_LP_MODEL_NAME = re.compile(r"\S(?:[^\r\n]*\S)?")


def sanitize_name(name: str) -> str:
    """Registry name to file-safe name: `p_ch[t=37]` -> `p_ch_t37`."""
    return (name.replace("[", "_").replace("]", "")
            .replace("=", "").replace(",", "_"))


def _file_names(model: MilpModel, fmt: str) -> tuple[list[str], list[str]]:
    if fmt == "mps-fixed":
        vnames = [f"C{c:07d}" for c in range(model.n_vars)]
        rnames = [f"R{r:07d}" for r in range(model.n_rows)]
        return vnames, rnames
    vnames = [sanitize_name(n) for n in model.var_names]
    rnames = [sanitize_name(name) for name in model.row_names]
    for group in (vnames, rnames):
        if len(set(group)) != len(group):
            raise InvalidParameter("sanitized names collide; registry not bijective")
    # the regex checks loop in C (filter), one match per name: a
    # minute-resolution day has about 8k names
    if fmt == "lp":
        names = vnames + rnames
        bad = next(itertools.filterfalse(_LP_NAME.fullmatch, names), None)
        if bad is not None:
            raise InvalidParameter(f"name {bad!r} is not an LP name")
        # a line starting with a keyword would be read as a section header
        for name in names:
            if name.lower() in _LP_KEYWORDS:
                raise InvalidParameter(
                    f"name {name!r} is an LP section keyword")
    else:
        bad = next(itertools.chain(
            itertools.filterfalse(_MPS_COLUMN_NAME.fullmatch, vnames),
            itertools.filterfalse(_MPS_ROW_NAME.fullmatch, rnames)), None)
        if bad is not None and _MPS_RESERVED.fullmatch(bad):
            raise InvalidParameter(f"row name {bad!r} is reserved in MPS")
        if bad is not None:
            raise InvalidParameter(f"name {bad!r} is not an MPS name")
    return vnames, rnames


def _write_sidecar(path: str, model: MilpModel, vnames: list[str],
                   rnames: list[str], fmt: str) -> str:
    sidecar = path + ".names.json"
    payload = {
        "format": fmt,
        "model_name": model.name,
        # insertion order records the original column/row order, letting the
        # parsers rebuild a model whose registry order matches the exported one
        "variables": dict(zip(vnames, model.var_names)),
        "rows": dict(zip(rnames, model.row_names)),
    }
    with open(sidecar, "w", encoding="ascii") as fh:
        # compact, so that json's C encoder writes it
        fh.write(json.dumps(payload))
        fh.write("\n")
    return sidecar


def _num(v: float) -> str:
    return repr(float(v))


# -- writers ---------------------------------------------------------------

_MPS_SENSE = {"<=": "L", ">=": "G", "==": "E"}
_LP_SENSE = {"<=": "<=", ">=": ">=", "==": "="}


def _write_text(path: str, lines: list[str]) -> None:
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write("\n".join(lines))
        fh.write("\n")


def _starts(index: np.ndarray, n: int) -> list[int]:
    """Where each of the indices 0..n-1 begins among entries sorted by
    `index`, plus the end."""
    return [0] + np.cumsum(np.bincount(index, minlength=n)).tolist()


def _write_mps(model: MilpModel, path: str, vnames: list[str],
               rnames: list[str]) -> None:
    rows, cols, vals, _, _ = model.triplets()
    # entry lines gathered by column, each column's in row order
    order = np.argsort(cols, kind="stable")
    entries = [f"    {vnames[c]}  {rnames[r]}  {v!r}" for c, r, v in
               zip(cols[order].tolist(), rows[order].tolist(),
                   vals[order].tolist())]
    starts = _starts(cols, model.n_vars)
    lines = [f"NAME          {model.name}", "OBJSENSE", "    MAX", "ROWS",
             " N  OBJ"]
    lines += [f" {_MPS_SENSE[sense]}  {rname}"
              for rname, sense in zip(rnames, model.row_senses)]
    lines.append("COLUMNS")
    in_int = False
    marker = 0
    for c, vname in enumerate(vnames):
        if model.is_binary[c] != in_int:
            tag = "INTORG" if model.is_binary[c] else "INTEND"
            lines.append(f"    MARKER{marker:04d}  'MARKER'  '{tag}'")
            marker += 1
            in_int = model.is_binary[c]
        a, b = starts[c], starts[c + 1]
        if c in model.objective:
            lines.append(f"    {vname}  OBJ  {_num(model.objective[c])}")
        elif a == b:
            # a bare 0 declares a column that has no entries
            lines.append(f"    {vname}  OBJ  0")
        lines += entries[a:b]
    if in_int:
        lines.append(f"    MARKER{marker:04d}  'MARKER'  'INTEND'")
    lines.append("RHS")
    if model.objective_const != 0.0:
        lines.append(f"    RHS1  OBJ  {_num(-model.objective_const)}")
    lines += [f"    RHS1  {rname}  {_num(rhs)}"
              for rname, rhs in zip(rnames, model.rhs) if rhs != 0.0]
    lines.append("BOUNDS")
    for c, vname in enumerate(vnames):
        lo, hi = model.lb[c], model.ub[c]
        if model.is_binary[c] and lo == 0.0 and hi == 1.0:
            lines.append(f" BV BND  {vname}")
        elif lo == hi:
            lines.append(f" FX BND  {vname}  {_num(lo)}")
        else:
            lines.append(f" LO BND  {vname}  {_num(lo)}")
            lines.append(f" UP BND  {vname}  {_num(hi)}")
    lines.append("ENDATA")
    _write_text(path, lines)


def _lp_terms(cols: list[int], vals: list[float],
              vnames: list[str]) -> list[str]:
    """`+ 2.0 x` or `- 2.0 x` per entry."""
    return [f"- {-v!r} {vnames[c]}" if v < 0 else f"+ {abs(v)!r} {vnames[c]}"
            for c, v in zip(cols, vals)]


def _lp_sum(terms: list[str]) -> str:
    text = " ".join(terms)
    return text[2:] if text.startswith("+ ") else text


def _write_lp(model: MilpModel, path: str, vnames: list[str],
              rnames: list[str]) -> None:
    lines = [f"\\ {model.name}", "Maximize"]
    # an empty objective is spelled `0 <first column>`; the bare 0 tells
    # parse_lp that the term only stands in for an empty objective
    objective = sorted(model.objective.items())
    body = _lp_sum(_lp_terms([c for c, _ in objective],
                             [float(v) for _, v in objective], vnames)) \
        if model.objective else f"0 {vnames[0]}"
    if model.objective_const != 0.0:
        body += f" + {_num(model.objective_const)}" \
            if model.objective_const > 0 else f" - {_num(-model.objective_const)}"
    lines.append(f" obj: {body}")
    lines.append("Subject To")
    rows, cols, vals, _, _ = model.triplets()
    terms = _lp_terms(cols.tolist(), vals.tolist(), vnames)
    starts = _starts(rows, model.n_rows)
    lines += [f" {rname}: {_lp_sum(terms[a:b])} {_LP_SENSE[sense]} {_num(rhs)}"
              for rname, a, b, sense, rhs in zip(rnames, starts, starts[1:],
                                                 model.row_senses, model.rhs)]
    lines.append("Bounds")
    for c, vname in enumerate(vnames):
        lo, hi = model.lb[c], model.ub[c]
        if lo == hi:
            lines.append(f" {vname} = {_num(lo)}")
        else:
            lines.append(f" {_num(lo)} <= {vname} <= {_num(hi)}")
    bins = [vname for vname, b in zip(vnames, model.is_binary) if b]
    if bins:
        lines.append("Binaries")
        for i in range(0, len(bins), 8):
            lines.append(" " + " ".join(bins[i:i + 8]))
    lines.append("End")
    _write_text(path, lines)


def export_model(model: MilpModel, path: str, fmt: str = "mps") -> str:
    """Write the model plus its name sidecar; returns the sidecar path."""
    return _export(model, path, fmt)[0]


def _export(model: MilpModel, path: str,
            fmt: str) -> tuple[str, list[str]]:
    """`export_model`, also returning the column names as written."""
    if fmt not in EXPORT_FORMATS:
        raise UnsupportedFormat(f"format {fmt!r}; choose one of {EXPORT_FORMATS}")
    if model.n_vars == 0:
        raise InvalidParameter("refusing to export an empty model")
    name_rule = _LP_MODEL_NAME if fmt == "lp" else _MPS_MODEL_NAME
    if not name_rule.fullmatch(model.name):
        raise InvalidParameter(
            f"model name {model.name!r} would not read back from {fmt}")
    vnames, rnames = _file_names(model, fmt)
    if fmt == "lp":
        _write_lp(model, path, vnames, rnames)
    else:
        _write_mps(model, path, vnames, rnames)
    return _write_sidecar(path, model, vnames, rnames, fmt), vnames


# -- parsers -----------------------------------------------------------------

def _load_sidecar(path: str) -> tuple[dict[str, str], dict[str, str]]:
    """The `variables` and `rows` name maps of the file's sidecar, empty
    without one. A sidecar that holds no JSON object, or a map that is not
    a string-to-string object, raises ParseError naming the sidecar."""
    sidecar = path + ".names.json"
    if not os.path.exists(sidecar):
        return {}, {}
    with open(sidecar, encoding="ascii") as fh:
        try:
            payload = json.load(fh)
        except ValueError as exc:
            raise ParseError(f"{sidecar}: not JSON ({exc})") from exc
    if not isinstance(payload, dict):
        raise ParseError(f"{sidecar}: not a JSON object")
    maps = {key: payload.get(key, {}) for key in ("variables", "rows")}
    for key, names in maps.items():
        if not isinstance(names, dict) or not all(
                isinstance(name, str) for name in names.values()):
            raise ParseError(
                f"{sidecar}: {key!r} is not a string-to-string object")
    return maps["variables"], maps["rows"]


class _VarTable(dict):
    """File name -> column index, plus bounds and objective, while a file
    is parsed.

    A name gets the next column index the first time it is looked up, and
    the parsed model's columns come in that order; sidecar names are looked
    up first, which restores the original column order. With `lp_names`,
    a name the file introduces must be an LP name.
    """

    def __init__(self, names, lp_names: bool = False):
        super().__init__()
        self.binary: list[bool] = []
        self.lo: dict[int, float] = {}
        self.hi: dict[int, float] = {}
        self.obj: dict[int, float] = {}
        self.lp_names = False
        for name in names:
            self[name]  # the lookup registers the column
        self.lp_names = lp_names

    def __missing__(self, name: str) -> int:
        if self.lp_names and not _LP_NAME.fullmatch(name):
            raise ParseError(f"{name!r} is not an LP name")
        c = self[name] = len(self)
        self.binary.append(False)
        return c

    def finish(self, model_name: str, row_names: list[str],
               senses: list[str], rhs: list[float], entries: tuple[list, ...],
               obj_sign: float, obj_const: float, vmap: dict[str, str],
               rmap: dict[str, str]) -> MilpModel:
        """The parsed model; `entries` holds the matrix as flat
        `(rows, cols, vals)` lists."""
        names = list(self)
        lo = [self.lo.get(c, 0.0) for c in range(len(names))]
        hi = [self.hi.get(c, 1.0 if binary else math.inf)
              for c, binary in enumerate(self.binary)]
        unbounded = np.flatnonzero(~(np.isfinite(lo) & np.isfinite(hi)))
        if unbounded.size:
            raise UnsupportedFormat(
                f"variable {names[unbounded[0]]!r} lacks finite bounds")
        model = MilpModel(model_name)
        model.add_variables([vmap.get(name, name) for name in names], lo, hi,
                            self.binary)
        model.add_constraints([rmap.get(name, name) for name in row_names],
                              *entries, senses, rhs)
        for c, v in self.obj.items():
            model.set_objective_coeff(c, obj_sign * v)
        model.objective_const = obj_sign * obj_const
        return model


# The readers are the inverses of `_write_mps` and `_write_lp`. A line at
# column 0 is a section header, a data line starts with a space, and each
# line is split once on whitespace; a line in any other layout raises
# `ParseError` naming the file and line.

_MPS_SECTIONS = ("NAME", "OBJSENSE", "ROWS", "COLUMNS", "RHS", "BOUNDS",
                 "ENDATA")
_MPS_ROW_SENSE = {tag: sense for sense, tag in _MPS_SENSE.items()}
_MPS_MARKERS = {"'INTORG'": True, "'INTEND'": False}
# bound types, and how many fields their lines hold
_MPS_BOUND_FIELDS = {"BV": 3, "FX": 4, "LO": 4, "UP": 4}


def parse_mps(path: str) -> MilpModel:
    """Read an MPS file in the layout `export_model` writes.

    Section headers: `NAME <model name>`, `OBJSENSE`, `ROWS`, `COLUMNS`,
    `RHS`, `BOUNDS` and `ENDATA`, which ends the file. Data lines, by
    section: `MAX`; `<N|L|G|E> <row>`; `<column> <row> <value>`,
    or the integrality markers `<name> 'MARKER' 'INTORG'` and
    `<name> 'MARKER' 'INTEND'`; `<set> <row> <value>`; and
    `BV <set> <column>` or `<FX|LO|UP> <set> <column> <value>`. A `0` in
    the objective row only declares a column without entries. RANGES and
    SOS sections raise `UnsupportedFormat`.
    """
    if not os.path.exists(path):
        raise ParseError(f"model file {path!r} does not exist")
    vmap, rmap = _load_sidecar(path)
    table = _VarTable(vmap)
    row_at: dict[str, int] = {}
    row_names: list[str] = []
    row_sense: list[str] = []
    rhs: list[float] = []
    ent_rows: list[int] = []
    ent_cols: list[int] = []
    ent_vals: list[float] = []
    obj_row = None
    obj_const = 0.0
    maximize = False
    model_name = "parsed"
    section = None
    in_int = False
    col_name = None     # column of the previous COLUMNS line
    lineno = 0
    with open(path, encoding="ascii") as fh:
        for lineno, line in enumerate(fh, 1):
            tokens = line.split()
            try:
                if line[0] != " ":
                    if tokens[:1] in (["RANGES"], ["SOS"]):
                        raise UnsupportedFormat(
                            f"{path}:{lineno}: {tokens[0]} sections are not "
                            "supported")
                    section = tokens[0] if tokens else ""
                    if section not in _MPS_SECTIONS or \
                            len(tokens) != 1 + (section == "NAME"):
                        raise ParseError(
                            f"{line.strip()!r} is not an MPS section header")
                    if section == "NAME":
                        model_name = tokens[1]
                    if section == "ENDATA":
                        break
                    continue
                if section == "COLUMNS":
                    if len(tokens) != 3:
                        raise ParseError("expected a column, a row and a value")
                    name, rname, text = tokens
                    if rname == "'MARKER'":
                        if text not in _MPS_MARKERS:
                            raise ParseError("expected 'INTORG' or 'INTEND'")
                        in_int = _MPS_MARKERS[text]
                        col_name = None
                        continue
                    if name != col_name:
                        col_name = name
                        col = table[name]
                        if in_int:
                            table.binary[col] = True
                    val = float(text)
                    if rname == obj_row:
                        # a bare 0 only declares the column
                        if text != "0":
                            table.obj[col] = table.obj.get(col, 0.0) + val
                    elif rname in row_at:
                        ent_rows.append(row_at[rname])
                        ent_cols.append(col)
                        ent_vals.append(val)
                    else:
                        raise ParseError(f"unknown row {rname!r}")
                elif section == "RHS":
                    if len(tokens) != 3:
                        raise ParseError("expected a set name, a row and a "
                                         "value")
                    rname, val = tokens[1], float(tokens[2])
                    if rname == obj_row:
                        obj_const = -val
                    elif rname in row_at:
                        rhs[row_at[rname]] = val
                    else:
                        raise ParseError(f"unknown row {rname!r}")
                elif section == "BOUNDS":
                    tag = tokens[0] if tokens else ""
                    if len(tokens) != _MPS_BOUND_FIELDS.get(tag):
                        raise ParseError("expected BV BOUND-SET COLUMN or "
                                         "FX|LO|UP BOUND-SET COLUMN VALUE")
                    c = table[tokens[2]]
                    if tag == "BV":
                        table.binary[c] = True
                        table.lo[c], table.hi[c] = 0.0, 1.0
                    elif tag == "FX":
                        table.lo[c] = table.hi[c] = float(tokens[3])
                    elif tag == "LO":
                        table.lo[c] = float(tokens[3])
                    else:
                        table.hi[c] = float(tokens[3])
                elif section == "ROWS":
                    if len(tokens) != 2 or \
                            tokens[0] not in ("N", *_MPS_ROW_SENSE):
                        raise ParseError("expected a row type (N, L, G or E) "
                                         "and a row name")
                    if tokens[0] == "N":
                        obj_row = tokens[1]
                    else:
                        row_at[tokens[1]] = len(row_names)
                        row_names.append(tokens[1])
                        row_sense.append(_MPS_ROW_SENSE[tokens[0]])
                        rhs.append(0.0)
                elif section == "OBJSENSE":
                    if tokens != ["MAX"]:
                        raise ParseError("expected MAX")
                    maximize = True
                else:
                    raise ParseError("data outside the sections that hold "
                                     "data")
            except (ParseError, ValueError) as exc:
                raise ParseError(f"{path}:{lineno}: {exc}") from None
    if section != "ENDATA":
        raise ParseError(f"{path}:{lineno}: the file ends before ENDATA")
    sign = 1.0 if maximize else -1.0
    return table.finish(model_name, row_names, row_sense, rhs,
                        (ent_rows, ent_cols, ent_vals), sign, obj_const, vmap,
                        rmap)


_LP_SECTION = {"Maximize": "obj", "Subject To": "rows", "Bounds": "bounds",
               "Binaries": "bins", "End": "end"}
_LP_ROW_SENSE = {text: sense for sense, text in _LP_SENSE.items()}
_LP_SIGN = {"+": 1.0, "-": -1.0}


def _read_lp_terms(tokens: list[str],
                   table: _VarTable) -> tuple[list[int], list[float]]:
    """Columns and coefficients of `[-] coeff name (+|- coeff name)*`, one
    token each."""
    if tokens and tokens[0] != "-":
        tokens = ["+", *tokens]  # the writer leaves out a first term's `+`
    if len(tokens) % 3:
        raise ParseError("expected terms `[-] coeff name (+|- coeff name)*`")
    try:
        vals = [_LP_SIGN[sign] * float(coeff)
                for sign, coeff in zip(tokens[::3], tokens[1::3])]
    except KeyError as exc:
        raise ParseError(f"expected + or - before a term, not {exc}") from None
    return [table[name] for name in tokens[2::3]], vals


def parse_lp(path: str) -> MilpModel:
    """Read an LP file in the layout `export_model` writes.

    A first line `\\ <model name>` names the model. Section headers:
    `Maximize`, `Subject To`, `Bounds`, `Binaries` and `End`, which ends the
    file. Data lines, by section: one objective line
    ` <label>: <terms> [+|- <constant>]`, or ` <label>: 0 <column>
    [+|- <constant>]` for an empty objective; one row per line,
    ` <label>: <terms> <sense> <rhs>` with sense `<=`, `>=` or `=`; a bound
    ` <lo> <= <column> <= <hi>` or ` <column> = <value>`; and names of
    binary columns. Terms are `[-] coeff name` followed by `+ coeff name` or
    `- coeff name`, every token separated by whitespace. A `General` section
    raises `UnsupportedFormat`.
    """
    if not os.path.exists(path):
        raise ParseError(f"model file {path!r} does not exist")
    vmap, rmap = _load_sidecar(path)
    table = _VarTable(vmap, lp_names=True)
    row_names: list[str] = []
    senses: list[str] = []
    rhs: list[float] = []
    ent_rows: list[int] = []
    ent_cols: list[int] = []
    ent_vals: list[float] = []
    obj_const = 0.0
    obj_read = False
    model_name = "parsed"
    section = None
    lineno = 0
    with open(path, encoding="ascii") as fh:
        for lineno, line in enumerate(fh, 1):
            tokens = line.split()
            try:
                if line[0] != " ":
                    if lineno == 1 and line[0] == "\\":
                        model_name = line[1:].strip() or model_name
                        continue
                    if tokens[:1] and \
                            tokens[0].lower() in ("general", "generals"):
                        raise UnsupportedFormat(
                            f"{path}:{lineno}: general integers are not "
                            "supported")
                    section = _LP_SECTION.get(line.rstrip())
                    if section is None:
                        raise ParseError(
                            f"{line.strip()!r} is not an LP section header")
                    if section == "end":
                        break
                    continue
                if section == "rows":
                    if len(tokens) < 3 or tokens[0][-1] != ":" \
                            or tokens[-2] not in _LP_ROW_SENSE:
                        raise ParseError("expected ` label: terms sense rhs`")
                    cols, vals = _read_lp_terms(tokens[1:-2], table)
                    ent_rows += [len(row_names)] * len(cols)
                    ent_cols += cols
                    ent_vals += vals
                    row_names.append(tokens[0][:-1])
                    senses.append(_LP_ROW_SENSE[tokens[-2]])
                    # a sum of terms, so -0.0 reads as 0.0
                    rhs.append(0.0 + float(tokens[-1]))
                elif section == "bounds":
                    if len(tokens) == 5 and tokens[1] == tokens[3] == "<=":
                        c = table[tokens[2]]
                        table.lo[c] = float(tokens[0])
                        table.hi[c] = float(tokens[4])
                    elif len(tokens) == 3 and tokens[1] == "=":
                        c = table[tokens[0]]
                        table.lo[c] = table.hi[c] = float(tokens[2])
                    else:
                        raise ParseError("expected ` lo <= name <= hi` or "
                                         "` name = value`")
                elif section == "bins":
                    if not tokens:
                        raise ParseError("expected column names")
                    for name in tokens:
                        table.binary[table[name]] = True
                elif section == "obj":
                    if obj_read or len(tokens) < 3 \
                            or tokens[0][-1] != ":":
                        raise ParseError("expected one objective line "
                                         "` label: terms [+|- constant]`")
                    obj_read = True
                    body = tokens[1:]
                    if body[-2] in _LP_SIGN:  # `+ constant` or `- constant`
                        # a sum of terms, so -0.0 reads as 0.0
                        obj_const += _LP_SIGN[body[-2]] * float(body[-1])
                        del body[-2:]
                    if len(body) == 2 and body[0] == "0":
                        # `0 <first column>`, the writer's empty objective
                        table[body.pop()]
                        body.clear()
                    cols, vals = _read_lp_terms(body, table)
                    for c, v in zip(cols, vals):
                        table.obj[c] = table.obj.get(c, 0.0) + v
                else:
                    raise ParseError("data before the first section")
            except (ParseError, ValueError) as exc:
                raise ParseError(f"{path}:{lineno}: {exc}") from None
    if section != "end":
        raise ParseError(f"{path}:{lineno}: the file ends before End")
    return table.finish(model_name, row_names, senses, rhs,
                        (ent_rows, ent_cols, ent_vals), 1.0, obj_const, vmap,
                        rmap)


# -- solution files ----------------------------------------------------------

def parse_solution_file(path: str) -> tuple[str, float | None, dict[str, float]]:
    """Best-effort read of a solver solution file.

    Understands the HiGHS ``--solution_file`` layout, the CBC ``solution``
    layout and a plain ``name value`` format. Returns (status word, objective
    or None, {file variable name: value}).
    """
    if not os.path.exists(path):
        raise ParseError(f"solution file {path!r} does not exist")
    with open(path, encoding="utf-8", errors="replace") as fh:
        lines = [ln.rstrip("\n") for ln in fh]
    status = ""
    objective = None
    values: dict[str, float] = {}

    def grab(tokens: list[str], name_i: int, val_i: int) -> bool:
        try:
            values[tokens[name_i]] = float(tokens[val_i])
            return True
        except (ValueError, IndexError):
            return False

    in_cols = False
    n_cols = None
    first = lines[0].strip() if lines else ""
    cbc_head = re.match(
        r"^(\w[\w ]*?)\s*-?\s*objective value\s+([-+0-9.eE]+)", first, re.I)
    if cbc_head:
        status = cbc_head.group(1).strip()
        objective = float(cbc_head.group(2))
        for ln in lines[1:]:
            tokens = ln.split()
            if len(tokens) >= 3:
                grab(tokens, 1, 2)
        return status, objective, values

    for ln in lines:
        stripped = ln.strip()
        low = stripped.lower()
        if low.startswith("model status"):
            status = stripped.split(":")[-1].strip() if ":" in stripped \
                else stripped.split()[-1]
            continue
        if low.startswith("objective"):
            tail = stripped.replace(":", " ").split()
            try:
                objective = float(tail[-1])
            except ValueError:
                pass
            continue
        if low.startswith("# columns") or low == "columns":
            in_cols = True
            tokens = stripped.split()
            if tokens and tokens[-1].isdigit():
                n_cols = int(tokens[-1])
            continue
        if low.startswith("# rows") or low == "rows":
            in_cols = False
            continue
        if stripped.startswith("#"):
            continue
        tokens = stripped.replace("=", " ").split()
        if in_cols and len(tokens) == 2:
            grab(tokens, 0, 1)
        elif not in_cols and n_cols is None and len(tokens) == 2:
            grab(tokens, 0, 1)  # plain format
    if n_cols is not None and len(values) < n_cols:
        raise ParseError(f"expected {n_cols} column values, found {len(values)}")
    return status, objective, values


def _status_from_word(word: str, have_values: bool) -> str:
    low = word.lower()
    if "infeasible" in low:
        return "Infeasible"
    if "time" in low:
        return "TimeLimit"
    if "optimal" in low or (have_values and ("feasible" in low or not low)):
        return "Optimal"
    return "BackendError"


def solve_external(model: MilpModel, command_template: str,
                   time_limit_s: float = 600.0,
                   mip_gap: float = 1e-6) -> SolveResult:
    """Export to free MPS, run `command_template` as a subprocess, parse its
    solution.

    The exchange files go to a temporary directory that is removed once the
    solution has been read.
    """
    if not command_template.strip():
        raise InvalidParameter("empty external command template")
    with tempfile.TemporaryDirectory(prefix="fcrsched_") as workdir:
        model_file = os.path.join(workdir, f"{model.name}.mps")
        solution_file = os.path.join(workdir, f"{model.name}.sol")
        _, vnames = _export(model, model_file, "mps")
        subst = {"{model_file}": model_file, "{solution_file}": solution_file,
                 "{time_limit}": _num(time_limit_s), "{gap}": _num(mip_gap)}
        argv = []
        for token in shlex.split(command_template):
            for key, val in subst.items():
                token = token.replace(key, val)
            argv.append(token)
        t0 = time.perf_counter()
        try:
            proc = subprocess.run(argv, capture_output=True, text=True,
                                  timeout=time_limit_s + 120.0)
        except FileNotFoundError as exc:
            raise BackendError(f"external solver not found: {exc}") from exc
        except subprocess.TimeoutExpired:
            return SolveResult("TimeLimit", None, None, math.inf,
                               time.perf_counter() - t0, "external",
                               "subprocess hit the hard timeout")
        wall = time.perf_counter() - t0
        if proc.returncode != 0:
            tail = (proc.stderr or proc.stdout or "").strip()[-400:]
            return SolveResult("BackendError", None, None, math.inf, wall,
                               "external",
                               f"exit code {proc.returncode}: {tail}")
        if not os.path.exists(solution_file):
            return SolveResult("BackendError", None, None, math.inf, wall,
                               "external", "solver wrote no solution file")
        word, file_obj, values = parse_solution_file(solution_file)
    status = _status_from_word(word, bool(values))
    if status in ("Infeasible", "BackendError"):
        return SolveResult(status, None, None, math.inf, wall, "external",
                           f"solver reported {word!r}")
    # solvers that print only nonzero columns leave the rest at zero
    x = np.zeros(model.n_vars)
    n_missing = 0
    for c, fname in enumerate(vnames):
        if fname in values:
            x[c] = values[fname]
        elif model.lb[c] == model.ub[c]:
            x[c] = model.lb[c]
        else:
            n_missing += 1
    objective = model.objective_value(x)
    if file_obj is not None and n_missing \
            and abs(objective - file_obj) > 1e-4 * (1.0 + abs(file_obj)):
        raise ParseError(
            f"solution file omits {n_missing} variables and its objective "
            f"{file_obj} disagrees with the recomputed {objective}")
    # a file gives no bound, so only an optimum has a known gap
    gap = 0.0 if status == "Optimal" else math.inf
    return SolveResult(status, x, objective, gap, wall,
                       "external", f"command: {argv[0]}")


# -- scipy backend ----------------------------------------------------------

def _flush_c_stdio() -> None:
    """Flush C-level stdio buffers, so that solver output written through
    them lands in whatever file descriptor 1 points at right now."""
    try:
        ctypes.CDLL(None).fflush(None)
    except (OSError, AttributeError):
        pass


def _milp_quiet(*args, **kwargs):
    """`scipy.optimize.milp` with file descriptor 1 sent to a temp file.

    HiGHS prints stray lines to the process's standard output even with
    ``disp`` off; they would mix into the tables the CLI prints. Whatever
    was written is logged at debug level instead.
    """
    import scipy.optimize

    sys.stdout.flush()
    saved = os.dup(1)
    with tempfile.TemporaryFile() as sink:
        os.dup2(sink.fileno(), 1)
        try:
            return scipy.optimize.milp(*args, **kwargs)
        finally:
            _flush_c_stdio()
            os.dup2(saved, 1)
            os.close(saved)
            sink.seek(0)
            for line in sink.read().decode(errors="replace").splitlines():
                log.debug("HiGHS: %s", line)


def solve_scipy(model: MilpModel, time_limit_s: float = 600.0,
                mip_gap: float = 1e-6) -> SolveResult:
    """In-process solve through `scipy.optimize.milp` (maximization handled
    by negating the objective).

    HiGHS runs without presolve. On the day model, presolve left a weaker
    root bound and HiGHS restarted its search, redoing presolve and the
    root; the model as built mostly solves at the root in one pass
    (ROADMAP.md, "Settled findings").

    `milp` takes no objective offset, so a nonzero `objective_const` is
    the cost of one more continuous column fixed at 1, left out of the
    returned `x`. HiGHS's `mip_rel_gap`, the bound of every round and
    `SolveResult.gap` are then relative to one objective, the model's own.

    A model with `relax_binaries_first` set is solved with lazily enforced
    binaries. The first round relaxes every binary. After each round a
    relaxed binary is rounded up only when some row needs it above 1e-9 with
    every other column at its value in the round's point, and down
    otherwise (`_round_binaries`); the enforced ones are rounded to 0/1.
    The rounded point is checked against the full model. It is kept when
    it passes and lies within `mip_gap` of the round's bound; every round
    relaxes the full model, so that bound holds for the full optimum too.

    When the round ended optimal and every row the rounded point breaks is
    a `<=` row of binaries with positive entries (the baseline's hour
    exclusivity on the day model), one repair LP runs first
    (`_repair_rounding`): in each such row the binaries whose rows need
    them most are kept up to the row's bound and the others set to 0, every
    binary is fixed at its value, and HiGHS solves the full model's rows
    for the continuous columns. Its point is kept when it passes
    `validate_solution` and lies within `mip_gap` of the round's bound; the
    repair's own optimum is a restriction, never a bound.

    Otherwise every binary in a violated row (or the violated column
    itself) is enforced and the model solved again; a round that would
    enforce nothing new enforces every binary, which is the plain full
    solve, whose own point and gap HiGHS returns. The first round gets
    `time_limit_s`, later rounds and repairs what is left of it, and
    `SolveResult.rounds` counts every HiGHS call. A solve that runs out of
    time returns the best point any check passed, at its gap to the
    smallest round bound, unless HiGHS's own point in a full solve is
    better.

    A round hands HiGHS the relaxed binaries projected out where that
    takes no more rows (`_RelaxedProjection`): each component of relaxed
    binaries with no enforced member has its rows replaced by their
    Fourier-Motzkin projection and its binaries fixed at 0. The rounding
    then reads each eliminated binary at the smallest value its rows allow
    at the round's point, which is the need it is rounded up by.

    Each HiGHS call is logged at debug level: its kind, seconds and status,
    and the row families its point breaks or the gap of a point that
    passes.
    """
    import scipy.sparse as sp
    from scipy.optimize import Bounds, LinearConstraint

    t0 = time.perf_counter()
    n = model.n_vars
    c = -model.objective_vector()
    lb, ub = np.array(model.lb), np.array(model.ub)
    binary = np.array(model.is_binary, dtype=bool)
    if model.objective_const != 0.0:
        c = np.append(c, -model.objective_const)
        lb, ub = np.append(lb, 1.0), np.append(ub, 1.0)
    enforced = binary & (not model.relax_binaries_first)
    projection = _RelaxedProjection(model) if model.relax_binaries_first \
        else None
    options = {"mip_rel_gap": float(mip_gap), "disp": False,
               "presolve": False}
    rounds = nodes = 0
    res, dual_bound = None, math.nan    # the last round's
    best_x, best_obj = None, -math.inf  # the best point a check passed
    best_bound = math.nan               # the smallest round bound

    def result(status, x=None, obj=None, gap=math.inf, message=None,
               bound=None):
        """The solve's result; the message and the bound default to the
        last round's."""
        return SolveResult(
            status, x, obj, gap, time.perf_counter() - t0, "scipy",
            str(res.message) if message is None else message, nodes=nodes,
            dual_bound=dual_bound if bound is None else bound, rounds=rounds)

    def timed_out(x=None, obj=-math.inf, gap=math.inf, message=None):
        """TimeLimit with `x`, or with the best point a check passed where
        that is better, at its gap to the smallest round bound."""
        if best_obj > obj:
            return result("TimeLimit", best_x, best_obj,
                          _gap(best_bound, best_obj), message, best_bound)
        return result("TimeLimit", x, None if x is None else obj, gap,
                      message)

    def call(kind, triplets, integrality, low, high, left):
        """One HiGHS call on the rows `triplets`, laid out as
        `model.triplets()`, and the start of its debug log line."""
        nonlocal rounds, nodes
        rows, cols, vals, lo_row, hi_row = triplets
        a = sp.csc_array((vals, (rows, cols)), shape=(lo_row.size, c.size))
        start = time.perf_counter()
        res = _milp_quiet(c, constraints=LinearConstraint(a, lo_row, hi_row),
                          integrality=integrality, bounds=Bounds(low, high),
                          options={**options, "time_limit": float(left)})
        rounds += 1
        nodes += int(getattr(res, "mip_node_count", 0) or 0)
        return res, f"HiGHS call {rounds}, {kind}: " \
            f"{time.perf_counter() - start:.3f} s, status {res.status}"

    def check(text, x, bound):
        """`validate_solution` of `x` on the full model, its objective and
        its gap to `bound` (inf without one); logs the call that gave it
        and keeps `x` when it is the best point that passed."""
        nonlocal best_x, best_obj
        report = validate_solution(model, x)
        obj = gap = math.inf
        if report.ok:
            obj = model.objective_value(x)
            gap = _gap(bound, obj)
            if obj > best_obj:
                best_x, best_obj = x, obj
            text += f"; point passes, gap {gap:.2e}"
        else:
            text += "; point breaks " + ", ".join(
                sorted({v.family for v in report.violations}))
        log.debug("%s", text)
        return report, obj, gap

    while True:
        left = time_limit_s if rounds == 0 \
            else time_limit_s - (time.perf_counter() - t0)
        if left <= 0.0:
            return timed_out(
                message=f"time limit reached after {rounds} rounds")
        fixed = np.zeros(c.size, dtype=bool)
        if projection is None:
            triplets = model.triplets()
        else:
            active = projection.active(enforced)
            triplets = projection.rows(active)
            fixed[:n] = projection.fixed(active)
        integrality = np.zeros(c.size, dtype=np.uint8)
        integrality[:n] = enforced
        k = int(enforced.sum())
        res, text = call(f"MIP with {k} enforced binaries" if k else "LP",
                         triplets, integrality, np.where(fixed, 0.0, lb),
                         np.where(fixed, 0.0, ub), left)
        full = bool(enforced[binary].all())
        dual = getattr(res, "mip_dual_bound", None)
        if dual is None and res.status == 0 and not full:
            dual = res.fun      # an LP round: its optimum is the bound
        # HiGHS minimizes -objective; report the bound in the maximize sense.
        dual_bound = math.nan if dual is None else -float(dual)
        best_bound = float(np.fmin(best_bound, dual_bound))
        x = None if res.x is None else np.asarray(res.x[:n], dtype=float)
        if full or x is None or res.status not in (0, 1):
            log.debug("%s", text)
        if res.status == 2:
            return result("Infeasible")
        if res.status not in (0, 1):
            return result("BackendError",
                          message=f"status {res.status}: {res.message}")
        if x is None:       # out of time before a first point
            return timed_out()
        if full:            # HiGHS's own point and gap
            obj = model.objective_value(x)
            gap = float(getattr(res, "mip_gap", 0.0) or 0.0)
            return result("Optimal", x, obj, gap) if res.status == 0 \
                else timed_out(x, obj, gap)
        x, least = _round_binaries(model, x, enforced)
        report, obj, gap = check(text, x, dual_bound)
        if gap <= mip_gap:
            return result("Optimal", x, obj, gap)
        if res.status == 1:
            return timed_out()
        repaired = None if report.ok \
            else _repair_rounding(model, least, x, report)
        left = time_limit_s - (time.perf_counter() - t0)
        if repaired is not None and left > 0.0:
            low, high = lb.copy(), ub.copy()
            low[:n][binary] = high[:n][binary] = repaired[binary]
            fix, text = call("repair LP", model.triplets(),
                             np.zeros(c.size, dtype=np.uint8), low, high, left)
            if fix.status == 0 and fix.x is not None:
                y = np.asarray(fix.x[:n], dtype=float)
                y[binary] = repaired[binary]
                # the repair's own optimum restricts the model: the gap is
                # to the round's bound
                _, obj, gap = check(text, y, dual_bound)
                if gap <= mip_gap:
                    return result("Optimal", y, obj, gap)
            else:
                log.debug("%s", text)
        # enforce the binaries out of bounds, fractional or in a broken row
        rows, cols = model.triplets()[:2]
        new = np.zeros(n, dtype=bool)
        new[report.columns] = True
        new[cols[np.isin(rows, report.rows)]] = True
        new &= binary & ~enforced
        enforced = enforced | new if new.any() else binary


def _gap(bound: float, obj: float) -> float:
    """Gap of the objective value `obj` to the upper bound `bound`, relative
    to `obj`; inf without a finite bound."""
    if not math.isfinite(bound):
        return math.inf
    return max(0.0, (bound - obj) / max(abs(obj), 1e-9))


# A generated row whose largest activity over the column bounds exceeds its
# right-hand side by at most this share of it is left out as implied.
_IMPLIED_TOL = 1e-9


class _RelaxedProjection:
    """The relaxable binaries of a model projected out of their rows.

    A binary is relaxable when it has no cost and sits only in one-sided
    rows. Relaxable binaries that share a row form one component; the rows
    that hold them are the component's rows. Fourier-Motzkin elimination of
    the component's binaries, bounds included, gives rows over the other
    columns that hold exactly where some values of those binaries within
    their bounds meet every row of the component (the column elimination
    of presolve, Achterberg, *Constraint Integer Programming*, 2007,
    ch. 10). A generated row that the column bounds imply is left out, and
    a projection is kept only where it has no more rows than its
    component.

    The rows a round can hand HiGHS are laid out once, in final order: the
    model's rows, with each kept component's projected rows at its first
    row. A round keeps them by one mask.

    Rows are `coeffs @ x <= hi` throughout: a `>=` row is negated.
    """

    def __init__(self, model: MilpModel):
        rows, cols, vals, lo, hi = model.triplets()
        lb, ub = model.lb, model.ub
        starts = _starts(rows, model.n_rows)
        row_cols, row_vals = cols.tolist(), vals.tolist()
        self.n_components = 0
        # the columns and rows of the kept components, and their components
        c_cols, c_rows, c_col_comp, c_row_comp = [], [], [], []
        # components that read alike once their columns are numbered
        # locally, binaries first (each hour's baseline pair, say), are
        # eliminated once; None where the projection is not kept
        kinds: dict[tuple, list | None] = {}
        # projected rows: their component's first row and their bound, and
        # their entries' rows (counted among projected rows), columns and
        # coefficients
        p_at, p_hi, p_rows, p_cols, p_vals = [], [], [], [], []
        for bins, crows in _relaxable_components(model):
            local = dict(zip(bins, range(len(bins))))
            system = []
            for r in crows:
                a, b = starts[r], starts[r + 1]
                sign = 1.0 if math.isinf(lo[r]) else -1.0
                system.append((tuple([
                    (local.setdefault(col, len(local)), sign * v)
                    for col, v in zip(row_cols[a:b], row_vals[a:b])]),
                    sign * (hi[r] if sign > 0 else lo[r])))
            sig = (len(bins), tuple(system),
                   tuple(map(lb.__getitem__, local)),
                   tuple(map(ub.__getitem__, local)))
            if sig not in kinds:
                kinds[sig] = _fourier_motzkin(*sig)
            projected = kinds[sig]
            if projected is None:
                continue
            k = self.n_components
            self.n_components += 1
            c_cols += bins
            c_col_comp += [k] * len(bins)
            c_rows += crows
            c_row_comp += [k] * len(crows)
            glob = list(local)
            for coeffs, rhs in projected:
                p_rows += [len(p_hi)] * len(coeffs)
                p_cols += [glob[col] for col in coeffs]
                p_vals += coeffs.values()
                p_at.append(crows[0])
                p_hi.append(rhs)
        self.comp_of_col = np.full(model.n_vars, -1)
        self.comp_of_col[c_cols] = c_col_comp
        comp_of_row = np.full(model.n_rows, -1)
        comp_of_row[c_rows] = c_row_comp
        # model rows first, so that a stable sort by position puts each
        # component's projected rows after its first row, in their order
        n_rows = model.n_rows
        position = np.concatenate(
            (np.arange(n_rows), np.array(p_at, dtype=np.intp)))
        order = np.argsort(position, kind="stable")
        self.comp = comp_of_row[position[order]]
        self.is_projected = order >= n_rows
        self.lo = np.concatenate((lo, np.full(len(p_hi), -np.inf)))[order]
        self.hi = np.concatenate((hi, np.array(p_hi, dtype=float)))[order]
        at = np.empty(order.size, dtype=np.intp)
        at[order] = np.arange(order.size)
        e_rows = at[np.concatenate(
            (rows, n_rows + np.array(p_rows, dtype=np.intp)))]
        by_row = np.argsort(e_rows, kind="stable")
        self.entries = (
            e_rows[by_row],
            np.concatenate((cols, np.array(p_cols, dtype=np.intp)))[by_row],
            np.concatenate((vals, np.array(p_vals, dtype=float)))[by_row])

    def active(self, enforced: np.ndarray) -> np.ndarray:
        """Mask of the components with no enforced binary, plus a last
        entry, False, which the index -1 (no component) reads."""
        hit = self.comp_of_col[(self.comp_of_col >= 0) & enforced]
        return np.append(
            np.bincount(hit, minlength=self.n_components) == 0, False)

    def fixed(self, active: np.ndarray) -> np.ndarray:
        """Mask of the columns that the `active` components eliminate."""
        return active[self.comp_of_col]

    def rows(self, active: np.ndarray) -> tuple[np.ndarray, ...]:
        """`triplets()` of the model with the rows of the `active`
        components replaced by their projections, each at the position of
        its component's first row."""
        # HiGHS returns the same points with the projected rows after the
        # kept ones, but took twice as long on some days (ROADMAP.md,
        # "Settled findings")
        keep = active[self.comp] == self.is_projected
        number = np.cumsum(keep) - 1
        rows, cols, vals = self.entries
        used = keep[rows]
        return (number[rows[used]], cols[used], vals[used], self.lo[keep],
                self.hi[keep])


def _relaxable_components(model: MilpModel) -> list[tuple[list[int],
                                                           list[int]]]:
    """`(binaries, rows)` of each component of relaxable binaries: those
    with no cost and in no equality row, joined where they share a row;
    the rows are every row that holds one of them."""
    n = model.n_vars
    rows, cols, _, lo, hi = model.triplets()
    in_equality = np.zeros(n, dtype=bool)
    in_equality[cols[(lo == hi)[rows]]] = True
    relaxable = np.array(model.is_binary, dtype=bool) \
        & (model.objective_vector() == 0.0) & ~in_equality
    # label each column with the smallest relaxable column it reaches
    # through shared rows, spreading until nothing changes
    mine = relaxable[cols]
    e_rows, e_cols = rows[mine], cols[mine]
    label = np.arange(n)
    while True:
        row_label = np.full(model.n_rows, n)
        np.minimum.at(row_label, e_rows, label[e_cols])
        spread = label.copy()
        np.minimum.at(spread, e_cols, row_label[e_rows])
        if np.array_equal(spread, label):
            break
        label = spread
    comps: dict[int, tuple[list[int], list[int]]] = {
        int(label[col]): ([], []) for col in np.flatnonzero(relaxable)}
    for col in np.flatnonzero(relaxable).tolist():
        comps[int(label[col])][0].append(col)
    for r in np.flatnonzero(row_label < n).tolist():
        comps[int(row_label[r])][1].append(r)
    return list(comps.values())


def _fourier_motzkin(n_bins: int, rows: tuple, lb: tuple,
                     ub: tuple) -> list | None:
    """Eliminate columns `0 .. n_bins-1` from `rows`, each
    `((col, coeff), ...), hi` for `coeffs @ x <= hi`, and from their bounds;
    columns are bounded by `lb` and `ub`.

    Returns the projected rows, each `({col: coeff}, hi)`. None when a row
    without columns is violated or when there are more projected rows than
    `rows`, so that the rows go to the solver as they are.
    """
    system = []
    for coeffs, hi in rows:
        row: dict[int, float] = {}
        for col, v in coeffs:
            row[col] = row.get(col, 0.0) + v
        system.append((row, hi))
    system += [({col: 1.0}, ub[col]) for col in range(n_bins)] \
        + [({col: -1.0}, -lb[col]) for col in range(n_bins)]
    for col in range(n_bins):
        above, below, rest = [], [], []
        for row in system:
            v = row[0].get(col, 0.0)
            (above if v > 0.0 else below if v < 0.0 else rest).append(row)
        system = rest
        for (up, up_hi), (down, down_hi) in itertools.product(above, below):
            s, t = 1.0 / up[col], -1.0 / down[col]
            coeffs = {k: s * v for k, v in up.items() if k != col}
            for k, v in down.items():
                if k != col:
                    coeffs[k] = coeffs.get(k, 0.0) + t * v
            coeffs = {k: v for k, v in coeffs.items() if v != 0.0}
            hi = s * up_hi + t * down_hi
            top = sum(v * (ub[k] if v > 0.0 else lb[k])
                      for k, v in coeffs.items())
            if top <= hi + _IMPLIED_TOL * max(1.0, abs(hi)):
                continue
            if not coeffs:
                return None
            system.append((coeffs, hi))
    return system if len(system) <= len(rows) else None


def _round_binaries(model: MilpModel, x: np.ndarray,
                    enforced: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """`x` with every binary at 0 or 1, and each column's `least`: the
    smallest value its rows allow with every other column at its value in
    `x`, -inf where no row bounds it below. An enforced binary goes to its
    nearest integer, a relaxed one to 1 exactly when its `least` is above
    1e-9, else to 0.

    For an entry `a` of the column in a row whose activity without it is
    `rest`, a finite upper bound `hi` needs `(rest - hi)/(-a)` when `a < 0`,
    and a finite lower bound `lo` needs `(lo - rest)/a` when `a > 0`;
    `least` is the largest need over the column's entries.
    """
    x = np.asarray(x, dtype=float)
    rows, cols, vals, lo, hi = model.triplets()
    term = vals * x[cols]
    rest = np.bincount(rows, term, minlength=model.n_rows)[rows] - term
    need = np.full(vals.shape, -np.inf)
    neg, pos = vals < 0, vals > 0
    need[neg] = (rest[neg] - hi[rows[neg]]) / -vals[neg]
    need[pos] = (lo[rows[pos]] - rest[pos]) / vals[pos]
    least = np.full(model.n_vars, -np.inf)
    np.maximum.at(least, cols, need)
    binary = np.array(model.is_binary, dtype=bool)
    out = x.copy()
    out[binary] = np.where(enforced[binary], np.round(x[binary]),
                           least[binary] > 1e-9)
    return out, least


def _repair_rounding(model: MilpModel, least: np.ndarray, x: np.ndarray,
                     report: ViolationReport) -> np.ndarray | None:
    """`x` with every violated row brought back within its bound by setting
    binaries to 0, or None unless each violation is a `<=` row that holds
    binaries alone, with positive entries.

    In each such row the binaries at 1 are kept in order of their `least`
    value (`_round_binaries`), largest first, while the row's bound allows
    them; the others go to 0. For an exclusivity row this keeps the larger
    flow's direction.
    """
    if report.columns.size:     # a column out of bounds or fractional
        return None
    bad = report.rows
    rows, cols, vals, lo, hi = model.triplets()
    starts = _starts(rows, model.n_rows)
    binary = np.array(model.is_binary, dtype=bool)
    entries = [(cols[starts[r]:starts[r + 1]], vals[starts[r]:starts[r + 1]])
               for r in bad]
    if any(np.isfinite(lo[r]) or not (binary[rc].all() and (rv > 0.0).all())
           for r, (rc, rv) in zip(bad, entries)):
        return None
    x = x.copy()
    for r, (rc, rv) in zip(bad, entries):
        room = hi[r]
        for col, v in sorted(zip(rc.tolist(), rv.tolist()),
                             key=lambda e: -least[e[0]]):
            if x[col] == 1.0 and v <= room:
                room -= v
            else:
                x[col] = 0.0
    return x


# -- micro branch and bound ---------------------------------------------------

def solve_micro(model: MilpModel, time_limit_s: float = 600.0,
                mip_gap: float = 0.0) -> SolveResult:
    """Exact depth-first branch-and-bound over the model's binaries.

    The LP relaxation bound is solved by the bundled simplex; a node is
    pruned when its bound cannot beat the incumbent by more than 1e-9, so
    the returned optimum is exact to that tolerance. Models beyond
    24 binaries or 200 continuous variables are refused with `TooLarge`.
    """
    n_bin = model.n_binaries
    n_cont = model.n_vars - n_bin
    if n_bin > MICRO_MAX_BINARIES:
        raise TooLarge(f"{n_bin} binaries exceeds the micro cap "
                       f"of {MICRO_MAX_BINARIES}")
    if n_cont > MICRO_MAX_CONTINUOUS:
        raise TooLarge(f"{n_cont} continuous variables exceeds the micro cap "
                       f"of {MICRO_MAX_CONTINUOUS}")

    c_min = -model.objective_vector()
    rows, cols, vals, lo_row, hi_row = model.triplets()
    a = np.zeros((model.n_rows, model.n_vars))
    np.add.at(a, (rows, cols), vals)
    upper = np.isfinite(hi_row)
    senses = np.where(lo_row == hi_row, "==",
                      np.where(upper, "<=", ">=")).tolist()
    b = np.where(upper, hi_row, lo_row)
    bin_cols = np.array([c for c in range(model.n_vars) if model.is_binary[c]],
                        dtype=int)
    lo0 = np.array(model.lb)
    hi0 = np.array(model.ub)

    atol = 1e-9
    best_val = -math.inf
    best_x: np.ndarray | None = None
    nodes = 0
    deadline = time.perf_counter() + time_limit_s
    t0 = time.perf_counter()
    stack: list[tuple[np.ndarray, np.ndarray, float]] = [(lo0, hi0, math.inf)]
    timed_out = False
    open_bound = math.inf

    while stack:
        if time.perf_counter() > deadline:
            timed_out = True
            open_bound = max((pb for _, _, pb in stack), default=-math.inf)
            break
        lo, hi, parent_bound = stack.pop()
        if parent_bound <= best_val + atol:
            continue
        nodes += 1
        lp = solve_lp(c_min, a, senses, b, lo, hi)
        if lp.status == "infeasible":
            continue
        if lp.status != "optimal":
            return SolveResult("BackendError", None, None, math.inf,
                               time.perf_counter() - t0, "micro",
                               f"relaxation ended with {lp.status}")
        bound = -lp.objective
        if bound <= best_val + atol:
            continue
        frac = np.abs(lp.x[bin_cols] - np.round(lp.x[bin_cols])) \
            if bin_cols.size else np.zeros(0)
        if frac.size == 0 or frac.max() <= 1e-7:
            x = lp.x.copy()
            if bin_cols.size:
                x[bin_cols] = np.round(x[bin_cols])
            best_val, best_x = bound, x
            continue
        j = bin_cols[int(np.argmax(frac))]
        val = lp.x[j]
        near = int(round(val))
        far = 1 - near
        for side in (far, near):  # LIFO: preferred side on top
            lo_n, hi_n = lo.copy(), hi.copy()
            lo_n[j] = hi_n[j] = float(side)
            stack.append((lo_n, hi_n, bound))

    wall = time.perf_counter() - t0
    note = f"nodes={nodes}"
    if best_x is None:
        return SolveResult("TimeLimit" if timed_out else "Infeasible", None,
                           None, math.inf, wall, "micro", note)
    # the bounds leave out the objective's constant; the result does not
    obj = model.objective_value(best_x)
    if timed_out:
        gap = _gap(open_bound + model.objective_const, obj)
        return SolveResult("TimeLimit", best_x, obj, gap, wall, "micro", note)
    return SolveResult("Optimal", best_x, obj, 0.0, wall, "micro", note)


# -- registry ---------------------------------------------------------------

def get_backend(name: str):
    """Resolve a backend name to a callable (model, time_limit_s, mip_gap)."""
    if name == "scipy":
        return solve_scipy
    if name == "micro":
        return solve_micro
    if name.startswith("external:"):
        template = name[len("external:"):]
        if not template.strip():
            raise InvalidParameter("external backend needs a command template")

        def run(model: MilpModel, time_limit_s: float = 600.0,
                mip_gap: float = 1e-6) -> SolveResult:
            return solve_external(model, template, time_limit_s, mip_gap)

        return run
    raise InvalidParameter(
        f"unknown solver backend {name!r}; use scipy, micro or external:<cmd>")
