"""Day-model MILP assembly, solution validation and semantic extraction.

One model covers one day: hourly baseline charge/discharge and reserve bids,
the state of energy (SoE) at each hour's end, driven by the baseline and
the droop activation of those bids, reserve power and endurance
requirements, and the linearized degradation cost when it is priced in
the objective: calendar aging once per hour on the hour's mean SoE, cycle
aging once per hour on an upper bound of the hour's throughput. No
continuous column is per step. Each step's net power and SoE are affine
expressions of the hour's decisions and the SoE before the hour
(`step_power_coeffs`, `soe_step_deltas`). The SoE window is written inside
an hour only at the steps where it can bind (`soe_window_steps`). A
battery with a positive minimum power gets per-step charge/discharge
binaries that keep the step's net power out of (-p_min, p_min). A
solution stores only hourly arrays: the five decisions and the SoE at
each hour's end. `step_net_power` rebuilds each step's power from the
decisions, and `step_soe` each step's SoE by rolling the start SoE
forward through them.

Variable registry names follow the `family[index]` pattern, e.g. `soe[h=5]`
or `b_ch[t=37]`; constraint names follow the same pattern. The exact count of
variables, binaries and rows for a given configuration is the closed form in
`model_size`, asserted by tests against every built model.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from .degradation import CalendarLinearization, CycleLinearization
from .droop import EnergyContentSeries
from .errors import (
    InfeasibleBounds,
    InvalidParameter,
    RegistryMiss,
)
from .ingest import CASE_MARKETS, BatterySpec, PriceSeries, TimeGrid

if TYPE_CHECKING:  # pragma: no cover
    from .solvers import SolveResult

REQ_FACTOR_OWN = 1.34   # reserve power required in the bid's own direction
REQ_FACTOR_OPP = 0.2    # availability required in the opposite direction


_SENSES = ("<=", ">=", "==")


def _each(value, n: int, dtype) -> np.ndarray:
    """`value` as `n` entries: a scalar repeats, a sequence must hold `n`."""
    arr = np.asarray(value, dtype=dtype)
    if arr.shape not in ((), (n,)):
        raise InvalidParameter(
            f"expected a scalar or {n} values, got shape {arr.shape}")
    return np.broadcast_to(arr, (n,))


class MilpModel:
    """Canonical named MILP: bounds, integrality, linear rows, linear objective.

    The objective sense is always maximize. Integer variables are binaries
    (bounds inside [0, 1]). Columns and rows are added one family at a
    time; a refused family adds nothing. Row names, senses and right-hand
    sides are lists; the matrix entries are kept as coordinate arrays, one
    block per family, that `triplets` joins once.
    """

    def __init__(self, name: str = "model"):
        self.name = name
        self.var_names: list[str] = []
        self.lb: list[float] = []
        self.ub: list[float] = []
        self.is_binary: list[bool] = []
        self.row_names: list[str] = []
        self.row_senses: list[str] = []
        self.rhs: list[float] = []
        self.objective: dict[int, float] = {}
        self.objective_const: float = 0.0
        # solve_scipy may start from the LP relaxation and enforce only the
        # binaries whose rounding violates a row; set by the day builder
        self.relax_binaries_first: bool = False
        self._registry: dict[str, int] = {}
        self._row_names: set[str] = set()
        # (rows, cols, vals) per family, each sorted by row
        self._blocks: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = [
            (np.zeros(0, np.intp), np.zeros(0, np.intp), np.zeros(0))]
        self._triplets: tuple[np.ndarray, ...] | None = None

    # -- construction ----------------------------------------------------

    def add_variables(self, names: list[str], lo, hi,
                      binary=False) -> np.ndarray:
        """Add a family of columns; returns their indices.

        `lo`, `hi` and `binary` are scalars or one value per name.
        """
        names = list(names)
        n = len(names)
        start = len(self.var_names)
        new = dict(zip(names, range(start, start + n)))
        if len(new) != n or not self._registry.keys().isdisjoint(new):
            dup = next(name for i, name in enumerate(names)
                       if name in self._registry or new[name] != start + i)
            raise InvalidParameter(f"duplicate variable name {dup!r}")
        lo, hi = _each(lo, n, float), _each(hi, n, float)
        bad = ~(np.isfinite(lo) & np.isfinite(hi) & (lo <= hi))
        if bad.any():
            i = int(bad.argmax())
            raise InfeasibleBounds(
                f"{names[i]}: bad bounds [{lo[i]}, {hi[i]}]")
        binary = _each(binary, n, bool)
        bad = binary & ((lo < 0.0) | (hi > 1.0))
        if bad.any():
            i = int(bad.argmax())
            raise InvalidParameter(
                f"{names[i]}: binary bounds must sit in [0, 1]")
        self.var_names += names
        self.lb += lo.tolist()
        self.ub += hi.tolist()
        self.is_binary += binary.tolist()
        self._registry.update(new)
        return np.arange(start, start + n)

    def add_variable(self, name: str, lo: float, hi: float,
                     binary: bool = False) -> int:
        return int(self.add_variables([name], lo, hi, binary)[0])

    def add_constraints(self, names: list[str], rows, cols, vals, sense,
                        rhs) -> int:
        """Add a family of rows; returns the index of its first row.

        Row `i` of the family is `names[i]`. It holds `vals[j]` at column
        `cols[j]` for every `j` with `rows[j] == i`, in the order given,
        and reads `<sense> rhs`; `sense` and `rhs` are scalars or one value
        per row.
        """
        names = list(names)
        n = len(names)
        if len(set(names)) != n or not self._row_names.isdisjoint(names):
            seen = set(self._row_names)
            dup = next(name for name in names
                       if name in seen or seen.add(name))
            raise InvalidParameter(f"duplicate constraint name {dup!r}")
        senses = [sense] * n if isinstance(sense, str) else list(sense)
        if len(senses) != n:
            raise InvalidParameter(f"{len(senses)} senses for {n} rows")
        bad = next((s for s in senses if s not in _SENSES), None)
        if bad is not None:
            raise InvalidParameter(f"bad sense {bad!r}")
        rhs = _each(rhs, n, float)
        rows = np.array(rows, dtype=np.intp)
        cols = np.array(cols, dtype=np.intp)
        vals = np.array(vals, dtype=float)
        if rows.ndim != 1 or not rows.shape == cols.shape == vals.shape:
            raise InvalidParameter("rows, cols and vals must be 1-D, one "
                                   "entry each")
        if rows.size:
            if rows.min() < 0 or rows.max() >= n:
                raise InvalidParameter(
                    f"entries name rows outside the family of {n}")
            bad = (cols < 0) | (cols >= len(self.var_names))
            if bad.any():
                j = int(bad.argmax())
                raise InvalidParameter(
                    f"{names[rows[j]]}: unknown column {cols[j]}")
            if (rows[1:] < rows[:-1]).any():
                order = np.argsort(rows, kind="stable")
                rows, cols, vals = rows[order], cols[order], vals[order]
        start = len(self.row_names)
        self.row_names += names
        self.row_senses += senses
        self.rhs += rhs.tolist()
        self._row_names.update(names)
        rows += start
        self._blocks.append((rows, cols, vals))
        self._triplets = None
        return start

    def add_constraint(self, name: str, coeffs: list[tuple[int, float]],
                       sense: str, rhs: float) -> int:
        cols = [col for col, _ in coeffs]
        return self.add_constraints([name], [0] * len(cols), cols,
                                    [v for _, v in coeffs], sense, rhs)

    def set_objective_coeff(self, col: int, coeff: float) -> None:
        self.objective[col] = self.objective.get(col, 0.0) + coeff

    # -- access ------------------------------------------------------------

    @property
    def n_vars(self) -> int:
        return len(self.var_names)

    @property
    def n_rows(self) -> int:
        return len(self.row_names)

    @property
    def n_binaries(self) -> int:
        return sum(self.is_binary)

    def col(self, name: str) -> int:
        try:
            return self._registry[name]
        except KeyError:
            raise RegistryMiss(name) from None

    def has(self, name: str) -> bool:
        return name in self._registry

    def objective_vector(self) -> np.ndarray:
        c = np.zeros(self.n_vars)
        c[list(self.objective)] = list(self.objective.values())
        return c

    def objective_value(self, x: np.ndarray) -> float:
        return float(sum(v * x[col] for col, v in self.objective.items())
                     + self.objective_const)

    def triplets(self) -> tuple[np.ndarray, np.ndarray, np.ndarray,
                                np.ndarray, np.ndarray]:
        """The rows as coordinates plus row bounds: `lo <= A @ x <= hi`,
        where A holds `vals[i]` at (`rows[i]`, `cols[i]`).

        Entries come row by row, each row's in the order they were added.
        The arrays are computed once per change of the rows and are
        read-only.
        """
        if self._triplets is None:
            if len(self._blocks) > 1:
                self._blocks = [tuple(map(np.concatenate,
                                          zip(*self._blocks)))]
            sense = np.array(self.row_senses, dtype=object)
            rhs = np.array(self.rhs, dtype=float)
            lo = np.where(sense == "<=", -np.inf, rhs)
            hi = np.where(sense == ">=", np.inf, rhs)
            out = (*self._blocks[0], lo, hi)
            for arr in out:
                arr.flags.writeable = False
            self._triplets = out
        return self._triplets

    @property
    def rows(self) -> tuple[tuple[str, list[tuple[int, float]], str, float],
                            ...]:
        """`(name, [(column, coeff)], sense, rhs)` per row, built from the
        arrays on each access; changing it does not change the model."""
        rows, cols, vals, _, _ = self.triplets()
        ends = np.cumsum(np.bincount(rows, minlength=self.n_rows)).tolist()
        # one int object per column, not per entry
        cols = list(map(list(range(self.n_vars)).__getitem__, cols.tolist()))
        vals = vals.tolist()
        return tuple((name, list(zip(cols[a:b], vals[a:b])), sense, rhs)
                     for name, a, b, sense, rhs in zip(
                         self.row_names, [0] + ends, ends, self.row_senses,
                         self.rhs))


@dataclass(frozen=True)
class DayInputs:
    """Everything needed to assemble one day's model."""

    grid: TimeGrid
    prices: PriceSeries
    contents: EnergyContentSeries
    spec: BatterySpec
    s0: float
    case_id: str
    cal_lin: CalendarLinearization | None = None
    cyc_lin: CycleLinearization | None = None
    force_zero_baseline: bool = False

    def __post_init__(self):
        if self.case_id not in CASE_MARKETS:
            raise InvalidParameter(f"unknown case {self.case_id!r}")
        if self.prices.n_hours != self.grid.hours:
            raise InvalidParameter(
                f"prices cover {self.prices.n_hours} hours, grid has {self.grid.hours}")
        if (self.contents.n_steps != self.grid.n_steps
                or self.contents.steps_per_hour != self.grid.steps_per_hour):
            raise InvalidParameter("energy contents not aligned to the grid")
        if not self.spec.soe_min <= self.s0 <= self.spec.soe_max:
            raise InfeasibleBounds(
                f"s0={self.s0} outside [{self.spec.soe_min}, {self.spec.soe_max}]")
        if (self.cal_lin is None) != (self.cyc_lin is None):
            raise InvalidParameter(
                "give both cal_lin and cyc_lin, or neither")

    @property
    def degradation_in_objective(self) -> bool:
        """Whether aging is priced: exactly when the linearizations are given."""
        return self.cal_lin is not None


def model_size(inputs: DayInputs) -> dict[str, int]:
    """Closed-form variable/binary/row counts for a day model.

    With H hours, T steps, A = number of case-allowed markets whose minimum
    bid is positive, deg = degradation in objective, F = number of falling
    kinks of the calendar secants (`CalendarLinearization.falling_kinks`,
    1 for the default coefficients), W = number of intra-hour SoE window
    rows (`soe_window_steps`, both lists) and pmin = (p_min > 0):

      vars  = 2H + 2H + 3H + A*H + H             decisions, binaries, soe
            + (2T if pmin)                        step charge/discharge
                                                  binaries
            + ((4 + F)*H if deg)                  calendar fills + kink picks
                                                  + hourly cycle cost
      bins  = 2H + A*H + (2T if pmin) + (F*H if deg)
      rows  = 2H + (2H if pmin) + H              baseline bounds + exclusivity
            + (3T if pmin)                        step power bounds +
                                                  exclusivity
            + H + W                               SoE recursion + window
            + 2*A*H                               bid bounds
            + 2H + 10H                            power requirement + endurance
            + ((2 + 3F)*H if deg)                 hourly calendar and cycle rows

    So no continuous family is per step; `b_ch`, `b_ds` and the `st_*`
    rows exist only when `p_min > 0`, and W is at most 2(T - H).
    """
    return _size(inputs, sum(map(len, soe_window_steps(inputs.contents))))


def _size(inputs: DayInputs, W: int) -> dict[str, int]:
    """`model_size` with the number of window rows given."""
    H, T = inputs.grid.hours, inputs.grid.n_steps
    A = sum(1 for m in CASE_MARKETS[inputs.case_id]
            if inputs.spec.min_bid(m) > 0.0)
    deg = inputs.degradation_in_objective
    F = len(inputs.cal_lin.falling_kinks) if deg else 0
    pmin = inputs.spec.p_min > 0.0
    n_vars = 2 * H + 2 * H + 3 * H + A * H + H + (2 * T if pmin else 0) \
        + ((4 + F) * H if deg else 0)
    n_bins = 2 * H + A * H + (2 * T if pmin else 0) + F * H
    n_rows = 2 * H + (2 * H if pmin else 0) + H + (3 * T if pmin else 0) \
        + H + W + 2 * A * H + 2 * H + 10 * H + ((2 + 3 * F) * H if deg else 0)
    return {"n_vars": n_vars, "n_binaries": n_bins, "n_rows": n_rows}


def step_power_coeffs(contents: EnergyContentSeries) -> dict[str, np.ndarray]:
    """Per-step coefficient of each hourly decision in the realized net
    power (load convention, charging positive):
    `net_t = sum over families f of coeffs[f][t] * f[h(t)]`.

    The baseline enters at its set point, each bid at its droop activation
    fraction. The builder writes the per-step power bounds of a battery
    with a positive `p_min` on this sum and prices the hourly cycle cost
    from its absolute values; `step_net_power` rebuilds a solution's net
    power from it.
    """
    ones = np.ones(contents.n_steps)
    return {"ch_bl": ones, "ds_bl": -ones,
            "bid_n": contents.frac_nd - contents.frac_nu,
            "bid_dd": contents.frac_dd, "bid_du": -contents.frac_du}


def _per_step(solution, coeffs: dict[str, np.ndarray],
              contents: EnergyContentSeries) -> np.ndarray:
    """`sum over families f of coeffs[f][t] * f[h(t)]` for each step t of a
    day solution's hourly decisions."""
    hour = np.arange(contents.n_steps) // contents.steps_per_hour
    return sum(c * getattr(solution, f)[hour] for f, c in coeffs.items())


def step_net_power(solution, contents: EnergyContentSeries) -> np.ndarray:
    """Each step's realized net power (MW, charging positive) of a day
    solution, rebuilt from its hourly decisions through `step_power_coeffs`.

    A magnitude below 1e-9 MW is solver noise and reads as 0, so a step
    either charges, discharges or idles.
    """
    net = _per_step(solution, step_power_coeffs(contents), contents)
    return np.where(np.abs(net) < 1e-9, 0.0, net)


def soe_step_deltas(contents: EnergyContentSeries, spec: BatterySpec,
                    dt_h: float) -> dict[str, np.ndarray]:
    """Per-step SoE change per unit of each hourly decision: the SoE at the
    end of step t is the SoE at the end of step t-1 plus the sum over
    families f of `deltas[f][t] * f[h(t)]`.

    Efficiencies act on the baseline flows only; activation energy enters
    unscaled. The builder writes from these deltas each hour's SoE
    recursion (their hour sums), the intra-hour window rows (their sums
    from the hour's start) and each hour's mean SoE; `step_soe` rebuilds a
    solution's per-step SoE from them.
    """
    n = contents.n_steps
    return {"ch_bl": np.full(n, spec.eta_ch * dt_h),
            "ds_bl": np.full(n, -dt_h / spec.eta_ds),
            "bid_n": contents.e_dr_n - contents.e_ur_n,
            "bid_dd": contents.e_dr_dd, "bid_du": -contents.e_ur_du}


def decision_prices(prices: PriceSeries,
                    contents: EnergyContentSeries) -> dict[str, np.ndarray]:
    """EUR per MW of each hourly decision in each hour: the objective's
    decision terms and a settled day's money parts are the decisions
    times these prices. Discharge earns spot plus tax, charging pays spot,
    tariff and tax, FCR-N earns its capacity price plus its activation
    energy at the regulating prices, FCR-D its capacity price."""
    return {"ds_bl": prices.spot + prices.tax,
            "ch_bl": -(prices.spot + prices.grid_tariff + prices.tax),
            "bid_n": prices.fcr_n + prices.up_reg * contents.eh_ur_n
            - prices.down_reg * contents.eh_dr_n,
            "bid_du": prices.fcr_du, "bid_dd": prices.fcr_dd}


def soe_window_steps(contents: EnergyContentSeries) -> tuple[list[int],
                                                             list[int]]:
    """The steps, not at an hour's end, whose SoE can reach the top and the
    bottom of the window first: where the day model writes its `soe_max`
    and `soe_min` rows.

    Inside an hour the SoE after step k is the hour's start plus
    `(k+1)·(a·ch_bl − b·ds_bl) + N_k·bid_n` plus FCR-D terms, with every
    decision ≥ 0 and `N_k` the hour's FCR-N delta summed up to step k. The
    first two terms are affine in k, so where `(k, N_k)` lies on or below
    the chord between two other points of the hour (the start being
    `(-1, 0)`), the SoE after step k is at most the larger of theirs: only
    the interior vertices of the upper hull of the points can set the
    hour's highest SoE, and of the lower hull its lowest. An hour with any
    FCR-D activation keeps every step but its last.
    """
    spH, H = contents.steps_per_hour, contents.n_hours
    # each hour's points at x = 0..spH, the start at x = 0: one row per
    # hour for the upper hulls, then one per hour, negated, for the lower
    y = np.zeros((2 * H, spH + 1))
    y[:H, 1:] = (contents.e_dr_n - contents.e_ur_n).reshape(H, spH).cumsum(
        axis=1)
    y[H:] = -y[:H]
    # a vertex lies strictly above the chord of its two neighbours, so
    # only those points enter the monotone chain
    candidate = y[:, :-2] + y[:, 2:] < 2.0 * y[:, 1:-1]
    fcrd = (contents.e_dr_dd.reshape(H, spH).any(axis=1)
            | contents.e_ur_du.reshape(H, spH).any(axis=1)).tolist() * 2
    found: list[list[int]] = [[], []]
    for r, (ys, cand, every) in enumerate(zip(y.tolist(), candidate.tolist(),
                                              fcrd)):
        first = (r % H) * spH - 1     # the step at x = 1 is the hour's first
        if every:
            found[r // H] += range(first + 1, first + spH)
            continue
        xs, vs = [0], [0.0]
        for x in [x for x, ok in enumerate(cand, 1) if ok] + [spH]:
            v = ys[x]
            # drop the last vertex while it lies on or below the chord
            while len(xs) > 1 and ((vs[-1] - vs[-2]) * (x - xs[-2])
                                   <= (v - vs[-2]) * (xs[-1] - xs[-2])):
                xs.pop()
                vs.pop()
            xs.append(x)
            vs.append(v)
        found[r // H] += [first + x for x in xs[1:-1]]
    return found[0], found[1]


def step_soe(solution, inputs: DayInputs) -> np.ndarray:
    """The SoE at the end of each step (MWh) of a day's hourly decisions:
    the day's `s0` rolled forward through `soe_step_deltas` by the
    decisions, clipped to the spec's window.

    A settled day stores this roll-forward's hour ends as its `soe`, so the
    SoE a day hands on is the one its stored decisions reach.
    """
    cont, spec = inputs.contents, inputs.spec
    soe = inputs.s0 + np.cumsum(_per_step(
        solution, soe_step_deltas(cont, spec, inputs.grid.dt_hours), cont))
    return np.clip(soe, spec.soe_min, spec.soe_max)


def _add_row_group(m: MilpModel, n: int, families: list[tuple]) -> None:
    """Add row families of `n` rows each, interleaved: row 0 of every
    family in the given order, then row 1, and so on.

    A family is `(name, terms, sense, rhs)`. `name` is a format string
    taking the row index; `terms` is a list of `(columns, coeffs)`, each a
    scalar or one entry per row; a negative column or a zero coefficient
    leaves the term out of that row. `rhs` is a scalar or one value per row.
    """
    n_terms = [len(terms) for _, terms, _, _ in families]
    cols = np.empty((n, sum(n_terms)), dtype=np.intp)
    vals = np.empty((n, sum(n_terms)))
    for j, (c, v) in enumerate(term for _, terms, _, _ in families
                               for term in terms):
        cols[:, j] = c
        vals[:, j] = v
    rows = np.arange(n)[:, None] * len(families) \
        + np.repeat(np.arange(len(families)), n_terms)
    names: list[str] = [""] * (n * len(families))
    rhs = np.empty((n, len(families)))
    for j, (name, _, _, family_rhs) in enumerate(families):
        names[j::len(families)] = map(name.format, range(n))
        rhs[:, j] = family_rhs
    keep = (cols >= 0) & (vals != 0.0)
    m.add_constraints(names, rows[keep], cols[keep], vals[keep],
                      [sense for _, _, sense, _ in families] * n, rhs.ravel())


def build_day_model(inputs: DayInputs) -> MilpModel:
    """Assemble the day MILP (sense: maximize daily profit).

    Bids of markets outside the case stay in the model with bounds fixed to
    zero so the registry is identical across cases. Minimum-bid binaries are
    created only for allowed markets with a positive minimum bid. Each
    family of columns and rows is added as one block of arrays.
    """
    grid, spec, prices, cont = inputs.grid, inputs.spec, inputs.prices, inputs.contents
    H, T, spH = grid.hours, grid.n_steps, grid.steps_per_hour
    dt_h = grid.dt_hours
    allowed = CASE_MARKETS[inputs.case_id]
    m = MilpModel(f"day{grid.day_index}_{inputs.case_id}")

    def hour_sums(arr: np.ndarray) -> np.ndarray:
        return np.array([math.fsum(steps)
                         for steps in arr.reshape(H, spH).tolist()])

    def hourly(family: str, lo, hi, binary: bool = False) -> np.ndarray:
        return m.add_variables([f"{family}[h={h}]" for h in range(H)],
                               lo, hi, binary)

    def per_step(family: str, lo, hi, binary: bool = False) -> np.ndarray:
        return m.add_variables([f"{family}[t={t}]" for t in range(T)],
                               lo, hi, binary)

    bl_hi = 0.0 if inputs.force_zero_baseline else spec.p_max
    ch_bl = hourly("ch_bl", 0.0, bl_hi)
    ds_bl = hourly("ds_bl", 0.0, bl_hi)

    bid = {}
    for mk, var in (("N", "bid_n"), ("DU", "bid_du"), ("DD", "bid_dd")):
        bid[mk] = hourly(var, 0.0, spec.bid_cap(mk) if mk in allowed else 0.0)

    b_ch_bl = hourly("b_ch_bl", 0.0, 1.0, binary=True)
    b_ds_bl = hourly("b_ds_bl", 0.0, 1.0, binary=True)
    b_bid = {}
    for mk, var in (("N", "b_n"), ("DU", "b_du"), ("DD", "b_dd")):
        if mk in allowed and spec.min_bid(mk) > 0.0:
            b_bid[mk] = hourly(var, 0.0, 1.0, binary=True)

    if spec.p_min > 0.0:
        b_ch = per_step("b_ch", 0.0, 1.0, binary=True)
        b_ds = per_step("b_ds", 0.0, 1.0, binary=True)
    soe = hourly("soe", spec.soe_min, spec.soe_max)     # at each hour's end

    if inputs.degradation_in_objective:
        segs = inputs.cal_lin.segments
        K, kinks = len(segs), inputs.cal_lin.falling_kinks
        widths = [seg.hi_mwh - seg.lo_mwh for seg in segs]
        y_cal = m.add_variables(
            [f"y_cal[h={h},j={j}]" for h in range(H) for j in kinks],
            0.0, 1.0, binary=True).reshape(H, len(kinks))
        d_cal = m.add_variables(
            [f"d_cal[h={h},k={k}]" for h in range(H) for k in range(K)],
            0.0, np.tile(widths, H)).reshape(H, K)
        # the hour's throughput bound: per step at most p_max of each
        # baseline flow and FCR-N, 2 p_max of FCR-D, so this cap never binds
        cyc = hourly("cyc", 0.0, 6.0 * spH * spec.p_max)

    # baseline bounds and hourly exclusivity
    rows = [("bl_up_ch[h={}]", [(ch_bl, 1.0), (b_ch_bl, -spec.p_max)],
             "<=", 0.0),
            ("bl_up_ds[h={}]", [(ds_bl, 1.0), (b_ds_bl, -spec.p_max)],
             "<=", 0.0)]
    if spec.p_min > 0.0:
        rows += [("bl_lo_ch[h={}]", [(ch_bl, 1.0), (b_ch_bl, -spec.p_min)],
                  ">=", 0.0),
                 ("bl_lo_ds[h={}]", [(ds_bl, 1.0), (b_ds_bl, -spec.p_min)],
                  ">=", 0.0)]
    rows.append(("bl_excl[h={}]", [(b_ch_bl, 1.0), (b_ds_bl, 1.0)], "<=", 1.0))
    _add_row_group(m, H, rows)

    # realized net power, baseline plus droop activation, within
    # [p_min, p_max] when b_ch is set, [-p_max, -p_min] when b_ds is set,
    # and zero when neither is
    decisions = {"ch_bl": ch_bl, "ds_bl": ds_bl, "bid_n": bid["N"],
                 "bid_dd": bid["DD"], "bid_du": bid["DU"]}
    net_coeffs = step_power_coeffs(cont)
    if spec.p_min > 0.0:
        hour = np.arange(T) // spH      # hour of each step
        net = [(decisions[f][hour], c) for f, c in net_coeffs.items()]
        _add_row_group(m, T, [
            ("st_ch[t={}]", net + [(b_ch, -spec.p_max), (b_ds, spec.p_min)],
             "<=", 0.0),
            ("st_ds[t={}]", net + [(b_ds, spec.p_max), (b_ch, -spec.p_min)],
             ">=", 0.0),
            ("st_excl[t={}]", [(b_ch, 1.0), (b_ds, 1.0)], "<=", 1.0)])

    # state of energy: one recursion row per hour from the SoE before the
    # hour, s0 in hour 0, on each decision's delta summed over the hour.
    # Inside the hour the window holds at the steps of `soe_window_steps`,
    # which imply it at every other step, on the deltas summed from the
    # hour's start.
    deltas = soe_step_deltas(cont, spec, dt_h)
    cum = {f: d.reshape(H, spH).cumsum(axis=1) for f, d in deltas.items()}
    hour_start = np.concatenate(([-1], soe[:-1]))
    start_const = np.zeros(H)
    start_const[0] = inputs.s0
    _add_row_group(m, H, [(
        "soe_rec[h={}]",
        [(soe, 1.0)] + [(decisions[f], -c[:, -1]) for f, c in cum.items()]
        + [(hour_start, -1.0)],
        "==", start_const)])
    top, bottom = soe_window_steps(cont)
    steps = np.array(top + bottom, dtype=np.intp)
    is_min = np.arange(steps.size) >= len(top)
    order = np.lexsort((is_min, steps))     # by step, soe_max first
    steps, is_min = steps[order], is_min[order]
    h = steps // spH
    cols = np.column_stack([hour_start[h]] + [decisions[f][h] for f in cum])
    vals = np.column_stack([np.ones(steps.size)]
                           + [c.ravel()[steps] for c in cum.values()])
    keep = (cols >= 0) & (vals != 0.0)
    m.add_constraints(
        [f"soe_{'min' if low else 'max'}[t={t}]"
         for t, low in zip(steps.tolist(), is_min.tolist())],
        np.broadcast_to(np.arange(steps.size)[:, None], cols.shape)[keep],
        cols[keep], vals[keep],
        [">=" if low else "<=" for low in is_min.tolist()],
        np.where(is_min, spec.soe_min, spec.soe_max) - start_const[h])

    # minimum-bid linking
    for mk, var in (("N", "bid_n"), ("DU", "bid_du"), ("DD", "bid_dd")):
        if mk in b_bid:
            _add_row_group(m, H, [
                (var + "_lo[h={}]",
                 [(bid[mk], 1.0), (b_bid[mk], -spec.min_bid(mk))], ">=", 0.0),
                (var + "_up[h={}]",
                 [(bid[mk], 1.0), (b_bid[mk], -spec.bid_cap(mk))], "<=", 0.0)])

    # reserve power requirements around the baseline (load convention)
    _add_row_group(m, H, [
        ("req_up[h={}]",
         [(bid["N"], REQ_FACTOR_OWN), (bid["DU"], 1.0),
          (bid["DD"], REQ_FACTOR_OPP), (ch_bl, -1.0), (ds_bl, 1.0)],
         "<=", spec.p_max),
        ("req_dn[h={}]",
         [(bid["N"], REQ_FACTOR_OWN), (bid["DD"], 1.0),
          (bid["DU"], REQ_FACTOR_OPP), (ch_bl, 1.0), (ds_bl, -1.0)],
         "<=", spec.p_max)])

    # endurance: worst-case hour-start SoE scenarios, both bound sides; hour
    # 0 starts from s0, later hours from the soe column of the hour before
    third = 1.0 / 3.0
    prev = [(hour_start, 1.0)]
    scenarios = {
        "endur_bl": [(ch_bl, 1.0), (ds_bl, -1.0)],
        "endur_act20_dn": [(ch_bl, third), (ds_bl, -third),
                           (bid["N"], third), (bid["DD"], third)],
        "endur_act20_up": [(ch_bl, third), (ds_bl, -third),
                           (bid["N"], -third), (bid["DU"], -third)],
        "endur_act60_dn": [(ch_bl, 1.0), (ds_bl, -1.0),
                           (bid["N"], 1.0), (bid["DD"], third)],
        "endur_act60_up": [(ch_bl, 1.0), (ds_bl, -1.0),
                           (bid["N"], -1.0), (bid["DU"], -third)],
    }
    rows = []
    for label, terms in scenarios.items():
        rows += [(label + "_max[h={}]", prev + terms, "<=",
                  spec.soe_max - start_const),
                 (label + "_min[h={}]", prev + terms, ">=",
                  spec.soe_min - start_const)]
    _add_row_group(m, H, rows)

    # calendar cost as incremental fills of the secant segments, summing to
    # each hour's mean SoE. Where the slopes rise the cheaper segment fills
    # first on its own; at a falling kink j, y_cal = 1 fills every segment
    # before j and y_cal = 0 empties every segment from j on.
    if inputs.degradation_in_objective:
        rows = []
        for i, j in enumerate(kinks):
            for k in range(K):
                terms = [(d_cal[:, k], 1.0), (y_cal[:, i], -widths[k])]
                if k < j:
                    rows.append((f"cal_full[h={{}},j={j},k={k}]", terms,
                                 ">=", 0.0))
                else:
                    rows.append((f"cal_empty[h={{}},j={j},k={k}]", terms,
                                 "<=", 0.0))
        # the hour's mean SoE: the SoE before the hour plus each step's
        # delta, weighted by the share of the hour's steps from that step on
        weights = np.tile((spH - np.arange(spH)) / spH, H)
        rows.append(("cal_link[h={}]",
                     [(d_cal[:, k], 1.0) for k in range(K)]
                     + [(hour_start, -1.0)]
                     + [(decisions[f], -hour_sums(d * weights))
                        for f, d in deltas.items()],
                     "==", start_const))
        # cyc bounds the hour's throughput sum_t |net_t|: one step's
        # activation terms share one sign, and so does the hour's baseline,
        # so the bound is exact unless the two oppose
        rows.append(("cyc_def[h={}]",
                     [(cyc, 1.0)]
                     + [(decisions[f], -hour_sums(np.abs(c)))
                        for f, c in net_coeffs.items()],
                     "==", 0.0))
        _add_row_group(m, H, rows)

    # objective: spot revenue + reserve revenue - charging cost - degradation
    def price(*terms) -> None:
        """Objective coefficients of `(columns, coeffs)` terms, set entry 0
        of every term first, then entry 1, and so on."""
        cols = np.column_stack([c.ravel() for c, _ in terms]).ravel()
        vals = np.column_stack([np.broadcast_to(v, c.shape).ravel()
                                for c, v in terms]).ravel()
        objective = m.objective
        for col, v in zip(cols.tolist(), vals.tolist()):
            objective[col] = objective.get(col, 0.0) + v

    price(*[(decisions[f], p)
            for f, p in decision_prices(prices, cont).items()])
    if inputs.degradation_in_objective:
        price((cyc, -inputs.cyc_lin.k_cyc * dt_h))
        # the per-step secant cost, charged spH times at the hour's mean SoE:
        # its value at the first breakpoint plus each fill at its slope
        price((d_cal, [-spH * seg.slope_eur_per_mwh for seg in segs]))
        m.objective_const = -H * spH * segs[0].cost_at(segs[0].lo_mwh)

    # with p_min > 0 the per-step binaries make partly relaxed rounds
    # slower than one full solve (ROADMAP.md, "Settled findings")
    m.relax_binaries_first = spec.p_min == 0.0

    built = _size(inputs, steps.size)
    assert (m.n_vars, m.n_binaries, m.n_rows) == (
        built["n_vars"], built["n_binaries"], built["n_rows"]), \
        "model size drifted from the documented closed form"
    return m


# -- validation ------------------------------------------------------------

VALIDATION_TOL = 1e-6   # absolute slack allowed on a bound, integrality or row


@dataclass(frozen=True)
class Violation:
    name: str
    family: str
    amount: float


@dataclass(frozen=True)
class ViolationReport:
    violations: tuple[Violation, ...]
    rows: np.ndarray        # indices of the violated rows
    columns: np.ndarray     # indices of columns out of bounds or fractional

    @property
    def ok(self) -> bool:
        return not self.violations

    def worst_by_family(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for v in self.violations:
            out[v.family] = max(out.get(v.family, 0.0), v.amount)
        return out


def validate_solution(model: MilpModel, x: np.ndarray) -> ViolationReport:
    """Re-evaluate every bound, integrality and row against VALIDATION_TOL."""
    x = np.asarray(x, dtype=float)
    if x.shape != (model.n_vars,):
        raise InvalidParameter(
            f"solution length {x.size} != variable count {model.n_vars}")
    lb, ub = np.array(model.lb), np.array(model.ub)
    bound_gap = np.where(np.isfinite(x), np.maximum(lb - x, x - ub), np.inf)
    frac = np.where(model.is_binary, np.abs(x - np.round(x)), 0.0)
    found: list[Violation] = []
    bad_cols = np.flatnonzero((bound_gap > VALIDATION_TOL)
                              | (frac > VALIDATION_TOL))
    for col in bad_cols:
        name = model.var_names[col]
        if bound_gap[col] > VALIDATION_TOL:
            found.append(Violation(name, "bounds", float(bound_gap[col])))
        if frac[col] > VALIDATION_TOL:
            found.append(Violation(name, "integrality", float(frac[col])))
    rows, cols, vals, lo, hi = model.triplets()
    lhs = np.bincount(rows, weights=vals * x[cols], minlength=model.n_rows)
    row_gap = np.maximum(lo - lhs, lhs - hi)
    bad_rows = np.flatnonzero(row_gap > VALIDATION_TOL)
    for r in bad_rows:
        name = model.row_names[r]
        found.append(Violation(name, name.split("[", 1)[0],
                               float(row_gap[r])))
    return ViolationReport(violations=tuple(found), rows=bad_rows,
                           columns=bad_cols)


# -- extraction --------------------------------------------------------------

@dataclass(frozen=True)
class DaySolution:
    """One settled day, built by `orchestrate.settle_day` and stored by a
    checkpoint: its hourly decisions, priced and aged, and the solve's
    record (`DayPlan`).

    Every array holds one value per hour: the five decisions and `soe`,
    the hour ends of `step_soe` (the decisions rolled forward from `s0`,
    not a solver column), so `soe[-1]` is the SoE the next day starts
    from. A day's money is its stored decisions priced by
    `decision_prices`; `profit` charges the post-calculated aging.
    """

    day_index: int
    steps_per_hour: int
    hours: int
    dt_seconds: float
    s0: float
    ch_bl: np.ndarray
    ds_bl: np.ndarray
    bid_n: np.ndarray
    bid_du: np.ndarray
    bid_dd: np.ndarray
    soe: np.ndarray
    r_da: float
    r_n: float
    r_du: float
    r_dd: float
    c_da: float
    c_deg_lin: float
    objective: float
    cal_cost: float
    cyc_cost: float
    cal_pct: float
    cyc_pct: float
    profit: float
    status: str = "Optimal"
    gap: float = 0.0
    nodes: int = 0
    rounds: int = 0
    wall_time: float = 0.0

    @property
    def r_fcr(self) -> float:
        return self.r_n + self.r_du + self.r_dd

    def to_dict(self) -> dict:
        out = {f.name: getattr(self, f.name) for f in fields(self)}
        for f in _DAY_ARRAYS:
            out[f] = np.asarray(out[f], dtype=float).tolist()
        return out

    @classmethod
    def from_dict(cls, d: dict) -> "DaySolution":
        """The inverse of `to_dict`. A missing or unknown key raises
        KeyError or TypeError; an array of the wrong length, ValueError."""
        kw = dict(d)
        for f in _DAY_ARRAYS:
            kw[f] = np.asarray(kw[f], dtype=float)
        sol = cls(**kw)
        for f in _DAY_ARRAYS:
            if getattr(sol, f).shape != (sol.hours,):
                raise ValueError(f"{f} must hold {sol.hours} values")
        return sol


# the array fields; annotations are strings under `from __future__`
_DAY_ARRAYS = tuple(f.name for f in fields(DaySolution)
                    if f.type == "np.ndarray")


class DayPlan(NamedTuple):
    """A solve's hourly decisions (MW), the aging its objective priced
    (EUR), its objective and its record, as `DaySolution` names them."""

    ch_bl: np.ndarray
    ds_bl: np.ndarray
    bid_n: np.ndarray
    bid_du: np.ndarray
    bid_dd: np.ndarray
    c_deg_lin: float
    objective: float
    status: str
    gap: float
    nodes: int
    rounds: int
    wall_time: float


def extract_day_solution(model: MilpModel, result: SolveResult,
                         inputs: DayInputs) -> DayPlan:
    """Unpack a solve into its `DayPlan`: the five hourly decision
    families, a value below 1e-9 read as 0; `c_deg_lin`, the aging columns'
    priced cost plus the objective's constant (0.0 without aging columns);
    the objective; and the result's record. No money is read: a day's
    money is its stored decisions priced (`orchestrate.settle_day`)."""
    x = np.asarray(result.x, dtype=float)
    cols = {f: [model.col(f"{f}[h={h}]") for h in range(inputs.grid.hours)]
            for f in ("ch_bl", "ds_bl", "bid_n", "bid_du", "bid_dd")}
    # every priced column besides the decisions prices aging
    aging = model.objective_vector() * x
    aging[np.concatenate(list(cols.values()))] = 0.0
    return DayPlan(
        **{f: np.where(np.abs(x[c]) < 1e-9, 0.0, np.maximum(x[c], 0.0))
           for f, c in cols.items()},
        c_deg_lin=0.0 - float(aging.sum()) - model.objective_const,
        objective=model.objective_value(x), status=result.status,
        gap=result.gap, nodes=result.nodes, rounds=result.rounds,
        wall_time=result.wall_time)
