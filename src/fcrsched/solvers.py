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
from .milp import MilpModel
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

    def __post_init__(self):
        if self.status not in _STATUS_WORDS:
            raise InvalidParameter(f"unknown solve status {self.status!r}")

    @property
    def ok(self) -> bool:
        return self.status == "Optimal" and self.x is not None


# -- name handling -----------------------------------------------------------

# LP section keywords, matched case-insensitively against the first word of a
# line, with what the parser reads after them (section, maximize).
_LP_SECTIONS = {"maximize": ("obj", True), "minimize": ("obj", False),
                "subject": ("rows", None), "st": ("rows", None),
                "bounds": ("bounds", None), "binaries": ("bins", None),
                "binary": ("bins", None), "bin": ("bins", None),
                "general": (None, None), "generals": (None, None),
                "end": ("done", None)}
# a name the LP parser reads back as one name token
_LP_NAME = re.compile(r"[A-Za-z_][A-Za-z0-9_.]*")
# a name the MPS parser reads back as one field: not empty, no whitespace,
# and no leading `*`, which starts a comment line
_MPS_NAME = r"[^\s*]\S*"
_MPS_COLUMN_NAME = re.compile(_MPS_NAME)
# row names the MPS writer uses itself: the objective row, and the column
# entries it reads as integrality markers
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
            if name.lower() in _LP_SECTIONS:
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
    sidecar = path + ".names.json"
    if not os.path.exists(sidecar):
        return {}, {}
    with open(sidecar, encoding="ascii") as fh:
        payload = json.load(fh)
    return payload.get("variables", {}), payload.get("rows", {})


class _VarTable(dict):
    """File name -> column index, plus bounds and objective, while a file
    is parsed.

    A name gets the next column index the first time it is looked up, and
    the parsed model's columns come in that order; sidecar names are looked
    up first, which restores the original column order.
    """

    def __init__(self, names):
        super().__init__()
        self.binary: list[bool] = []
        self.lo: dict[int, float] = {}
        self.hi: dict[int, float] = {}
        self.obj: dict[int, float] = {}
        for name in names:
            self[name]  # the lookup registers the column

    def __missing__(self, name: str) -> int:
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


_MPS_SECTIONS = ("NAME", "OBJSENSE", "ROWS", "COLUMNS", "RHS", "BOUNDS",
                 "ENDATA")
_MPS_ROW_SENSE = {"L": "<=", "G": ">=", "E": "=="}
# bound types, and how many fields their lines hold (a BV or MI value is
# optional and ignored)
_MPS_BOUND_FIELDS = {"BV": (3, 4), "MI": (3, 4), "FX": (4,), "LO": (4,),
                     "UP": (4,)}


def parse_mps(path: str) -> MilpModel:
    """Read a (free or fixed) MPS file written by `export_model`."""
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
    with open(path, encoding="ascii") as fh:
        for lineno, line in enumerate(fh, 1):
            tokens = line.split()
            if not tokens or tokens[0][0] == "*":
                continue
            if not line[0].isspace():
                section = tokens[0].upper()
                if section in ("RANGES", "SOS"):
                    raise UnsupportedFormat(
                        f"{section} sections are not supported")
                if section not in _MPS_SECTIONS:
                    raise ParseError(
                        f"{path}:{lineno}: {section!r} is not an MPS section")
                if section == "NAME" and len(tokens) > 1:
                    model_name = tokens[1]
                if section == "OBJSENSE" and len(tokens) > 1:
                    maximize = tokens[1].upper().startswith("MAX")
                if section == "ENDATA":
                    break
                continue
            try:
                if section == "COLUMNS":
                    if len(tokens) >= 3 and "MARKER" in tokens[1] \
                            and tokens[1].strip("'") == "MARKER":
                        in_int = tokens[2].strip("'") == "INTORG"
                        col_name = None
                        continue
                    if len(tokens) not in (3, 5):
                        raise ParseError("expected a column name and one or "
                                         "two row/value pairs")
                    if tokens[0] != col_name:
                        col_name = tokens[0]
                        col = table[col_name]
                        if in_int:
                            table.binary[col] = True
                    for i in range(1, len(tokens), 2):
                        rname, text = tokens[i], tokens[i + 1]
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
                elif section == "OBJSENSE":
                    maximize = tokens[0].upper().startswith("MAX")
                elif section == "ROWS":
                    tag = tokens[0].upper()
                    if len(tokens) != 2 or tag not in ("N", *_MPS_ROW_SENSE):
                        raise ParseError("expected a row type (N, L, G or E) "
                                         "and a row name")
                    if tag == "N":
                        obj_row = tokens[1]
                    else:
                        row_at[tokens[1]] = len(row_names)
                        row_names.append(tokens[1])
                        row_sense.append(_MPS_ROW_SENSE[tag])
                        rhs.append(0.0)
                elif section == "RHS":
                    if len(tokens) not in (3, 5):
                        raise ParseError("expected a set name and one or two "
                                         "row/value pairs")
                    for i in range(1, len(tokens), 2):
                        rname, val = tokens[i], float(tokens[i + 1])
                        if rname == obj_row:
                            obj_const = -val
                        elif rname in row_at:
                            rhs[row_at[rname]] = val
                        else:
                            raise ParseError(f"unknown row {rname!r}")
                elif section == "BOUNDS":
                    tag = tokens[0].upper()
                    if tag not in _MPS_BOUND_FIELDS:
                        raise UnsupportedFormat(f"bound type {tag!r}")
                    if len(tokens) not in _MPS_BOUND_FIELDS[tag]:
                        raise ParseError(f"expected {tag} BOUND-SET COLUMN"
                                         + ("" if tag in ("BV", "MI")
                                            else " VALUE"))
                    c = table[tokens[2]]
                    if tag == "BV":
                        table.binary[c] = True
                        table.lo[c], table.hi[c] = 0.0, 1.0
                    elif tag == "FX":
                        table.lo[c] = table.hi[c] = float(tokens[3])
                    elif tag == "LO":
                        table.lo[c] = float(tokens[3])
                    elif tag == "UP":
                        table.hi[c] = float(tokens[3])
                    else:
                        table.lo[c] = -math.inf
                else:
                    raise ParseError("data before any section")
            except (ParseError, ValueError) as exc:
                raise ParseError(f"{path}:{lineno}: {exc}") from None
    sign = 1.0 if maximize else -1.0
    return table.finish(model_name, row_names, row_sense, rhs,
                        (ent_rows, ent_cols, ent_vals), sign, obj_const, vmap,
                        rmap)


_LP_NUMBER = r"[0-9]*\.?[0-9]+(?:[eE][+-]?[0-9]+)?"
_LP_TOKEN = re.compile(_LP_NUMBER + "|" + _LP_NAME.pattern
                       + r"|<=|>=|=|\+|-|:")
_LP_STATEMENT_END = re.compile(r"(<=|>=|=)\s*[+-]?[\d.]")
_LP_ROW_SENSE = {"<=": "<=", ">=": ">=", "=": "=="}
# `[sign] [coefficient] name`. In a whole side, a name ends where name
# characters do, so that a failed match never retries a split of one name
# into two.
_LP_TERMS = re.compile(
    rf"(?:([+-])\s*)?(?:({_LP_NUMBER})\s*)?({_LP_NAME.pattern})")
_LP_LHS = (rf"((?:(?:[+-]\s*)?(?:{_LP_NUMBER}\s*)?{_LP_NAME.pattern}"
           rf"(?![A-Za-z0-9_.])\s*)*)")
_LP_SIGNED = rf"([+-]?)\s*({_LP_NUMBER})"
_LP_LABEL = rf"(?:({_LP_NAME.pattern})\s*:\s*)?"
# objective: [label:] terms [+|- constant]
_LP_OBJECTIVE = re.compile(
    rf"{_LP_LABEL}{_LP_LHS}(?:([+-])\s*({_LP_NUMBER}))?")
# constraint: [label:] terms sense [sign] number
_LP_ROW = re.compile(rf"{_LP_LABEL}{_LP_LHS}(<=|>=|=)\s*{_LP_SIGNED}")
# bound: [[sign] number <=] name [<=|>=|= [sign] number]
_LP_BOUND = re.compile(rf"(?:{_LP_SIGNED}\s*<=\s*)?({_LP_NAME.pattern})"
                       rf"\s*(?:(<=|>=|=)\s*{_LP_SIGNED})?")


def _lp_tokenize(text: str) -> list[str]:
    tokens = _LP_TOKEN.findall(text)
    # tokens hold no whitespace, so they cover the text exactly when they
    # join to the text without its whitespace
    if "".join(tokens) != "".join(text.split()):
        pos = 0
        for match in _LP_TOKEN.finditer(text):
            if text[pos:match.start()].strip():
                raise ParseError(
                    f"cannot tokenize {text[pos:match.start()]!r}")
            pos = match.end()
        raise ParseError(f"cannot tokenize {text[pos:]!r}")
    return tokens


def _lp_refusal(stmt: str, what: str) -> Exception:
    """The error for a statement the LP grammar does not match."""
    tokens = _lp_tokenize(stmt)
    if what == "constraint":
        senses = [i for i, tok in enumerate(tokens) if tok in _LP_ROW_SENSE]
        if not senses:
            return ParseError(f"constraint without sense: {stmt!r}")
        if any(_LP_NAME.fullmatch(tok) for tok in tokens[senses[0] + 1:]):
            return UnsupportedFormat("variables on constraint right-hand side")
    return ParseError(f"unsupported {what}: {stmt!r}")


def _signed(sign: str, number: str) -> float:
    return -float(number) if sign == "-" else float(number)


def parse_lp(path: str) -> MilpModel:
    """Read an LP-text file written by `export_model`.

    Each side of a constraint is a sum of `[sign] [coefficient] name` terms
    on the left and one signed number on the right; the objective may end
    in a constant, and a bound line is `[lo <=] name [<=|>=|= value]`.
    """
    if not os.path.exists(path):
        raise ParseError(f"model file {path!r} does not exist")
    vmap, rmap = _load_sidecar(path)
    with open(path, encoding="ascii") as fh:
        raw_lines = fh.readlines()
    model_name = "parsed"
    section = None
    maximize = True
    chunks: dict[str, list[str]] = {"obj": [], "rows": [], "bounds": [],
                                    "bins": []}
    for raw in raw_lines:
        if raw.startswith("\\"):
            if model_name == "parsed":
                model_name = raw[1:].strip() or "parsed"
            continue
        line = raw.partition("\\")[0].strip()
        if not line:
            continue
        first = line.split(None, 1)[0].lower().rstrip(":")
        if first in _LP_SECTIONS:
            section, mx = _LP_SECTIONS[first]
            if mx is not None:
                maximize = mx
            if section == "done":
                break
            if section is None:
                raise UnsupportedFormat("general integers are not supported")
            continue
        if section in chunks:
            chunks[section].append(line)

    table = _VarTable(vmap)
    objective = " ".join(chunks["obj"])
    match = _LP_OBJECTIVE.fullmatch(objective)
    if match is None:
        raise _lp_refusal(objective, "objective")
    _, lhs, const_sign, const = match.groups()
    terms = _LP_TERMS.findall(lhs)
    if terms[:1] and terms[0][:2] == ("", "0"):
        table[terms.pop(0)[2]]  # the writer's empty objective
    obj_pairs = [(table[name], _signed(sign, coeff or "1"))
                 for sign, coeff, name in terms]
    # a constant is a sum of terms, so -0.0 reads as 0.0
    obj_const = 0.0 + _signed(const_sign, const) if const else 0.0

    row_names: list[str] = []
    senses: list[str] = []
    rhs: list[float] = []
    ent_rows: list[int] = []
    ent_cols: list[int] = []
    ent_vals: list[float] = []
    for stmt in _split_lp_statements(chunks["rows"]):
        match = _LP_ROW.fullmatch(stmt)
        if match is None:
            raise _lp_refusal(stmt, "constraint")
        rname, lhs, sense, rhs_sign, rhs_value = match.groups()
        r = len(row_names)
        for sign, coeff, name in _LP_TERMS.findall(lhs):
            ent_rows.append(r)
            ent_cols.append(table[name])
            ent_vals.append(-float(coeff or "1") if sign == "-"
                            else float(coeff or "1"))
        row_names.append(rname or f"row{r}")
        senses.append(_LP_ROW_SENSE[sense])
        rhs.append(0.0 + _signed(rhs_sign, rhs_value))

    for stmt in chunks["bounds"]:
        match = _LP_BOUND.fullmatch(stmt)
        if match is None:
            raise _lp_refusal(stmt, "bound line")
        lo_sign, lo, name, op, sign, value = match.groups()
        c = table[name]
        if lo:
            table.lo[c] = _signed(lo_sign, lo)
        if op == "=":
            table.lo[c] = table.hi[c] = _signed(sign, value)
        elif op == "<=":
            table.hi[c] = _signed(sign, value)
        elif op == ">=":
            table.lo[c] = _signed(sign, value)
    for stmt in chunks["bins"]:
        for name in stmt.split():
            table.binary[table[name]] = True

    for c, v in obj_pairs:
        table.obj[c] = table.obj.get(c, 0.0) + v
    sign = 1.0 if maximize else -1.0
    return table.finish(model_name, row_names, senses, rhs,
                        (ent_rows, ent_cols, ent_vals), sign, obj_const, vmap,
                        rmap)


def _split_lp_statements(lines: list[str]) -> list[str]:
    """Join wrapped constraint lines; a statement ends where a sense+rhs does."""
    out: list[str] = []
    buf = ""
    for line in lines:
        buf = f"{buf} {line}" if buf else line
        if _LP_STATEMENT_END.search(buf):
            out.append(buf)
            buf = ""
    if buf:
        raise ParseError(f"dangling constraint text: {buf!r}")
    return out


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
    return SolveResult(status, x, objective, 0.0, wall,
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
    (measurements in ROADMAP.md, item 6).
    """
    import scipy.sparse as sp
    from scipy.optimize import Bounds, LinearConstraint

    rows, cols, vals, lo_row, hi_row = model.triplets()
    a = sp.csc_array((vals, (rows, cols)), shape=(model.n_rows, model.n_vars))
    c = -model.objective_vector()
    integrality = np.array(model.is_binary, dtype=np.uint8)
    bounds = Bounds(np.array(model.lb), np.array(model.ub))
    t0 = time.perf_counter()
    res = _milp_quiet(c, constraints=LinearConstraint(a, lo_row, hi_row),
                      integrality=integrality, bounds=bounds,
                      options={"time_limit": float(time_limit_s),
                               "mip_rel_gap": float(mip_gap),
                               "disp": False,
                               "presolve": False})
    wall = time.perf_counter() - t0
    gap = float(getattr(res, "mip_gap", 0.0) or 0.0)
    nodes = int(getattr(res, "mip_node_count", 0) or 0)
    dual = getattr(res, "mip_dual_bound", None)
    # HiGHS minimizes -objective; report the bound in the maximize sense.
    dual_bound = math.nan if dual is None else -float(dual) \
        + model.objective_const

    def result(status, x, obj, gap_, message=str(res.message)):
        return SolveResult(status, x, obj, gap_, wall, "scipy", message,
                           nodes=nodes, dual_bound=dual_bound)

    if res.status == 0:
        return result("Optimal", np.asarray(res.x, dtype=float),
                      model.objective_value(res.x), gap)
    if res.status == 1:
        x = None if res.x is None else np.asarray(res.x, dtype=float)
        obj = None if x is None else model.objective_value(x)
        return result("TimeLimit", x, obj, gap if x is not None else math.inf)
    if res.status == 2:
        return result("Infeasible", None, None, math.inf)
    return result("BackendError", None, None, math.inf,
                  f"status {res.status}: {res.message}")


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
    if timed_out:
        if best_x is None:
            return SolveResult("TimeLimit", None, None, math.inf, wall,
                               "micro", note)
        gap = max(0.0, (open_bound - best_val) / max(1.0, abs(best_val)))
        return SolveResult("TimeLimit", best_x, best_val, gap, wall, "micro",
                           note)
    if best_x is None:
        return SolveResult("Infeasible", None, None, math.inf, wall, "micro",
                           note)
    return SolveResult("Optimal", best_x, best_val, 0.0, wall, "micro", note)


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
