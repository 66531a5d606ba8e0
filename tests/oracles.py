"""Independent brute-force day optimizer over a 0.1 MW decision grid.

Test oracle only. Each hour's decision tuple (net baseline, N, DU, DD) is
enumerated on the grid; feasibility is evaluated directly from first
principles (power requirements, per-step state-of-energy path, worst-case
endurance scenarios), never through the production model builder. Hours are
chained by exact state carry-over in a depth-first search with an admissible
optimistic bound (sum of per-hour maxima of statically feasible profits),
so the returned value is the exact optimum over the grid.
"""

from __future__ import annotations

import numpy as np

from fcrsched.ingest import CASE_MARKETS

GRID_STEP = 0.1
MAX_NODES = 500_000


class _Hour:
    """Statically feasible tuples of one hour, sorted by profit descending."""

    __slots__ = ("profit", "lo", "hi", "c_end", "best_profit", "n")

    def __init__(self, profit, lo, hi, c_end):
        order = np.argsort(-profit, kind="stable")
        self.profit = profit[order]
        self.lo = lo[order]
        self.hi = hi[order]
        self.c_end = c_end[order]
        self.best_profit = float(self.profit[0]) if profit.size else 0.0
        self.n = int(profit.size)


def _hour_tables(inputs, h: int) -> _Hour:
    spec, grid, pr, cont = inputs.spec, inputs.grid, inputs.prices, inputs.contents
    sph = grid.steps_per_hour
    dt = grid.dt_hours
    pmax, smin, smax = spec.p_max, spec.soe_min, spec.soe_max
    allowed = CASE_MARKETS[inputs.case_id]

    def bid_grid(market: str, cap: float) -> np.ndarray:
        if market not in allowed:
            return np.array([0.0])
        vals = np.round(np.arange(0.0, cap + 1e-9, GRID_STEP), 10)
        mb = spec.min_bid(market)
        return vals[(vals == 0.0) | (vals >= mb - 1e-12)]

    net_vals = np.array([0.0]) if inputs.force_zero_baseline else \
        np.round(np.arange(-pmax, pmax + 1e-9, GRID_STEP), 10)
    n_vals = bid_grid("N", pmax)
    du_vals = bid_grid("DU", 2.0 * pmax)
    dd_vals = bid_grid("DD", 2.0 * pmax)

    net, n, du, dd = (a.ravel() for a in np.meshgrid(
        net_vals, n_vals, du_vals, dd_vals, indexing="ij"))
    ch = np.maximum(net, 0.0)
    ds = np.maximum(-net, 0.0)

    ok = ((1.34 * n + du + 0.2 * dd - net <= pmax)
          & (1.34 * n + dd + 0.2 * du + net <= pmax))
    net, n, du, dd, ch, ds = (a[ok] for a in (net, n, du, dd, ch, ds))

    sl = slice(h * cont.steps_per_hour, (h + 1) * cont.steps_per_hour)
    e_ur_n = cont.e_ur_n[sl]
    e_dr_n = cont.e_dr_n[sl]
    e_ur_du = cont.e_ur_du[sl]
    e_dr_dd = cont.e_dr_dd[sl]
    base_flow = (spec.eta_ch * ch - ds / spec.eta_ds) * dt
    delta = (base_flow[:, None]
             + n[:, None] * (e_dr_n - e_ur_n)[None, :]
             + dd[:, None] * e_dr_dd[None, :]
             - du[:, None] * e_ur_du[None, :])
    path = np.cumsum(delta, axis=1)
    off_min = np.minimum(path.min(axis=1), 0.0)
    off_max = np.maximum(path.max(axis=1), 0.0)

    endur = np.stack([
        net,
        (net + n + dd) / 3.0,
        (net - n - du) / 3.0,
        net + n + dd / 3.0,
        net - n - du / 3.0,
    ])
    off_min = np.minimum(off_min, endur.min(axis=0))
    off_max = np.maximum(off_max, endur.max(axis=0))

    lo = smin - off_min
    hi = smax - off_max
    c_end = path[:, -1]

    profit = (ds * (pr.spot[h] + pr.tax)
              - ch * (pr.spot[h] + pr.grid_tariff + pr.tax)
              + n * (pr.fcr_n[h] + pr.up_reg[h] * cont.eh_ur_n[h]
                     - pr.down_reg[h] * cont.eh_dr_n[h])
              + du * pr.fcr_du[h] + dd * pr.fcr_dd[h])

    keep = lo <= hi
    return _Hour(profit[keep], lo[keep], hi[keep], c_end[keep])


def brute_force_day(inputs) -> float:
    """Exact maximum total profit over the grid; raises on search blowup."""
    if inputs.degradation_in_objective:
        raise ValueError("oracle handles the no-degradation objective only")
    hours = [_hour_tables(inputs, h) for h in range(inputs.grid.hours)]
    if any(hr.n == 0 for hr in hours):
        raise ValueError("an hour has no feasible grid tuple")
    rest = np.zeros(len(hours) + 1)
    for h in range(len(hours) - 1, -1, -1):
        rest[h] = rest[h + 1] + hours[h].best_profit

    best = -np.inf
    nodes = 0
    seen: list[dict[float, float]] = [dict() for _ in hours]

    def dfs(h: int, s: float, acc: float) -> None:
        nonlocal best, nodes
        nodes += 1
        if nodes > MAX_NODES:
            raise RuntimeError("brute force exceeded its node budget")
        if h == len(hours):
            if acc > best:
                best = acc
            return
        prev = seen[h].get(s)
        if prev is not None and acc <= prev:
            return
        seen[h][s] = acc
        hr = hours[h]
        for j in range(hr.n):
            gain = hr.profit[j]
            if acc + gain + rest[h + 1] <= best:
                break  # profits sorted descending: no candidate can win
            if hr.lo[j] <= s <= hr.hi[j]:
                dfs(h + 1, s + float(hr.c_end[j]), acc + float(gain))

    dfs(0, float(inputs.s0), 0.0)
    if not np.isfinite(best):
        raise RuntimeError("no feasible grid schedule found")
    return float(best)


def discretization_bound(inputs) -> float:
    """Generous upper bound on the continuous-vs-grid optimum difference.

    A feasibility-preserving rounding of the continuous optimum onto the
    grid need not exist, so this is deliberately loose: one grid step of
    every decision, priced at the absolute value of its profit coefficient.
    """
    pr, cont = inputs.prices, inputs.contents
    total = 0.0
    for h in range(inputs.grid.hours):
        total += GRID_STEP * (
            abs(pr.spot[h]) + pr.grid_tariff + pr.tax
            + abs(pr.spot[h] + pr.tax)
            + abs(pr.fcr_n[h] + pr.up_reg[h] * cont.eh_ur_n[h]
                  - pr.down_reg[h] * cont.eh_dr_n[h])
            + pr.fcr_du[h] + pr.fcr_dd[h])
    return float(total) + 1e-6
