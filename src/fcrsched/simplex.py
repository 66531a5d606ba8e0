"""Dense two-phase primal simplex for small linear programs.

This is the LP engine underneath the self-contained branch-and-bound micro
solver. It trades speed for transparency: explicit tableau, Dantzig pivoting
with an automatic switch to Bland's rule when the objective stalls (which
guarantees termination), and explicit upper-bound rows instead of a bounded
variable implementation.

Sense is minimize. Lower bounds must be finite (variables are shifted so the
working problem is y >= 0); upper bounds may be infinite.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameter

_PIVOT_TOL = 1e-9
_FEAS_TOL = 1e-7
_STALL_LIMIT = 120
_MAX_ITER = 50_000


@dataclass(frozen=True)
class LpResult:
    status: str  # "optimal" | "infeasible" | "unbounded" | "iteration_limit"
    x: np.ndarray | None
    objective: float | None


def _pivot(tab: np.ndarray, row: int, col: int) -> None:
    tab[row, :] /= tab[row, col]
    factors = tab[:, col].copy()
    factors[row] = 0.0
    tab -= np.outer(factors, tab[row, :])
    tab[:, col] = 0.0
    tab[row, col] = 1.0


def _run_simplex(tab: np.ndarray, basis: list[int], allowed: np.ndarray) -> str:
    """Pivot until optimal/unbounded; returns status. `tab` has the cost row
    last and the rhs column last. Only columns marked in `allowed` may enter."""
    m = tab.shape[0] - 1
    bland = False
    stall = 0
    last_obj = tab[-1, -1]
    for _ in range(_MAX_ITER):
        cost = tab[-1, :-1]
        candidates = np.where(allowed & (cost < -_PIVOT_TOL))[0]
        if candidates.size == 0:
            return "optimal"
        enter = candidates[0] if bland else candidates[np.argmin(cost[candidates])]
        col = tab[:m, enter]
        positive = col > _PIVOT_TOL
        if not positive.any():
            return "unbounded"
        ratios = np.full(m, np.inf)
        ratios[positive] = tab[:m, -1][positive] / col[positive]
        best = ratios.min()
        ties = np.where(ratios <= best + _PIVOT_TOL)[0]
        if bland and ties.size > 1:
            leave = ties[np.argmin([basis[r] for r in ties])]
        else:
            leave = ties[np.argmax(col[ties])]
        _pivot(tab, leave, enter)
        basis[leave] = enter
        if tab[-1, -1] > last_obj + _PIVOT_TOL:
            stall = 0
            last_obj = tab[-1, -1]
        else:
            stall += 1
            if stall > _STALL_LIMIT:
                bland = True
    return "iteration_limit"


def solve_lp(c: np.ndarray, a: np.ndarray, senses: list[str], b: np.ndarray,
             lo: np.ndarray, hi: np.ndarray) -> LpResult:
    """Minimize c@x subject to a@x (sense) b and lo <= x <= hi.

    `senses` entries are "<=", ">=" or "==" per row.
    """
    c = np.asarray(c, dtype=float)
    a = np.asarray(a, dtype=float).reshape(len(senses), -1) if len(senses) \
        else np.zeros((0, c.size))
    b = np.asarray(b, dtype=float)
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    n = c.size
    if a.shape != (b.size, n) or lo.size != n or hi.size != n:
        raise InvalidParameter("inconsistent LP dimensions")
    if not np.all(np.isfinite(lo)):
        raise InvalidParameter("finite lower bounds required")
    if np.any(lo > hi):
        return LpResult("infeasible", None, None)

    # shift to y = x - lo >= 0; turn finite upper bounds into rows
    b_shift = b - a @ lo if b.size else b
    rows = [a]
    row_senses = list(senses)
    rhs = [b_shift]
    ubound = np.isfinite(hi)
    n_ub = int(ubound.sum())
    if n_ub:
        eye = np.zeros((n_ub, n))
        eye[np.arange(n_ub), np.where(ubound)[0]] = 1.0
        rows.append(eye)
        row_senses.extend(["<="] * n_ub)
        rhs.append((hi - lo)[ubound])
    a_full = np.vstack(rows)
    b_full = np.concatenate(rhs)
    m = b_full.size

    # normalize to nonnegative rhs
    flip = b_full < 0
    a_full[flip] *= -1.0
    b_full[flip] = -b_full[flip]
    sense_arr = np.array(row_senses)
    sflip = {"<=": ">=", ">=": "<=", "==": "=="}
    sense_arr[flip] = [sflip[s] for s in sense_arr[flip]]

    # slack / surplus / artificial columns
    n_slack = int(np.sum(sense_arr == "<=") + np.sum(sense_arr == ">="))
    n_art = int(np.sum(sense_arr == ">=") + np.sum(sense_arr == "=="))
    total = n + n_slack + n_art
    tab = np.zeros((m + 1, total + 1))
    tab[:m, :n] = a_full
    tab[:m, -1] = b_full
    basis = [-1] * m
    s_col, a_col = n, n + n_slack
    art_cols = []
    for r in range(m):
        s = sense_arr[r]
        if s == "<=":
            tab[r, s_col] = 1.0
            basis[r] = s_col
            s_col += 1
        elif s == ">=":
            tab[r, s_col] = -1.0
            s_col += 1
            tab[r, a_col] = 1.0
            basis[r] = a_col
            art_cols.append(a_col)
            a_col += 1
        else:
            tab[r, a_col] = 1.0
            basis[r] = a_col
            art_cols.append(a_col)
            a_col += 1

    allowed = np.ones(total, dtype=bool)

    if art_cols:
        # phase 1: minimize sum of artificials
        for col in art_cols:
            tab[-1, col] = 1.0
        for r, bcol in enumerate(basis):
            if tab[-1, bcol] != 0.0:
                tab[-1, :] -= tab[-1, bcol] * tab[r, :]
        status = _run_simplex(tab, basis, allowed)
        if status == "iteration_limit":
            return LpResult(status, None, None)
        if -tab[-1, -1] > _FEAS_TOL * (1.0 + float(np.abs(b_full).max(initial=0.0))):
            return LpResult("infeasible", None, None)
        # drive remaining artificials out of the basis or drop their rows
        art_set = set(art_cols)
        drop_rows = []
        for r in range(m):
            if basis[r] not in art_set:
                continue
            pivot_col = -1
            for j in range(total):
                if j not in art_set and abs(tab[r, j]) > _PIVOT_TOL:
                    pivot_col = j
                    break
            if pivot_col >= 0:
                _pivot(tab, r, pivot_col)
                basis[r] = pivot_col
            else:
                drop_rows.append(r)
        if drop_rows:
            keep = [r for r in range(m) if r not in set(drop_rows)]
            tab = tab[keep + [m], :]
            basis = [basis[r] for r in keep]
            m = len(basis)
        allowed[list(art_set)] = False

    # phase 2: actual objective
    tab[-1, :] = 0.0
    tab[-1, :n] = c
    for r, bcol in enumerate(basis):
        if tab[-1, bcol] != 0.0:
            tab[-1, :] -= tab[-1, bcol] * tab[r, :]
    status = _run_simplex(tab, basis, allowed)
    if status != "optimal":
        return LpResult(status, None, None)

    y = np.zeros(total)
    for r, bcol in enumerate(basis):
        y[bcol] = tab[r, -1]
    x = y[:n] + lo
    return LpResult("optimal", x, float(c @ x))
