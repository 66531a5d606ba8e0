"""Day-model MILP assembly, solution validation and semantic extraction.

One model covers one day: hourly baseline charge/discharge and reserve bids,
the state-of-energy recursion driven by the droop activation of those bids,
reserve power and endurance requirements, and the linearized degradation
cost when it is priced in the objective: calendar aging once per hour on
the hour's mean SoE, cycle aging once per hour on an upper bound of the
hour's throughput. Per-step realized powers are columns only for a battery
with a positive minimum power; otherwise extraction rebuilds them from the
hourly decisions.

Variable registry names follow the `family[index]` pattern, e.g. `soe[t=37]`
or `bid_n[h=5]`; constraint names follow the same pattern. The exact count of
variables, binaries and rows for a given configuration is the closed form in
`model_size`, asserted by tests against every built model.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .degradation import CalendarLinearization, CycleLinearization
from .droop import EnergyContentSeries
from .errors import (
    InfeasibleBounds,
    InvalidParameter,
    RegistryMiss,
)
from .ingest import CASE_MARKETS, BatterySpec, PriceSeries, TimeGrid

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
    degradation_in_objective: bool = True
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
        if self.degradation_in_objective and (self.cal_lin is None
                                              or self.cyc_lin is None):
            raise InvalidParameter(
                "degradation in objective requires cal_lin and cyc_lin")

    @property
    def step_powers(self) -> bool:
        """Whether realized powers are per-step columns.

        Only a positive `p_min` needs them, with their charge/discharge
        binaries. With `p_min == 0` no row needs them: `req_up` and
        `req_dn` already keep the net power within `p_max`, the cycle cost
        is priced per hour, and `extract_day_solution` rebuilds the net
        power from the hourly decisions.
        """
        return self.spec.p_min > 0.0


def model_size(inputs: DayInputs) -> dict[str, int]:
    """Closed-form variable/binary/row counts for a day model.

    With H hours, T steps, A = number of case-allowed markets whose minimum
    bid is positive, deg = degradation in objective, F = number of falling
    kinks of the calendar secants (`CalendarLinearization.falling_kinks`,
    1 for the default coefficients) and pmin = (p_min > 0):

      vars  = 2H + 2H + 3H + A*H + T
            + (4T if pmin)                        step powers + binaries
            + ((3 + F)*H if deg)                  calendar fills + kink picks
            + (H if deg and not pmin)             hourly cycle cost
      bins  = 2H + A*H + (2T if pmin) + (F*H if deg)
      rows  = 2H + (2H if pmin) + H              baseline bounds + exclusivity
            + (6T if pmin)                        step bounds, exclusivity,
                                                  power pinning
            + T                                   SoE recursion
            + 2*A*H                               bid bounds
            + 2H + 10H                            power requirement + endurance
            + ((1 + 3F)*H if deg)                 hourly calendar rows
            + (H if deg and not pmin)             hourly cycle cost

    So the per-step power families (`p_ch`, `p_ds`, `b_ch`, `b_ds`, `pin`
    and the `st_*` rows) exist only when `p_min > 0`; otherwise `soe` is
    the one per-step column family.
    """
    H, T = inputs.grid.hours, inputs.grid.n_steps
    A = sum(1 for m in CASE_MARKETS[inputs.case_id]
            if inputs.spec.min_bid(m) > 0.0)
    deg = inputs.degradation_in_objective
    F = len(inputs.cal_lin.falling_kinks) if deg else 0
    pmin = inputs.step_powers
    hourly_cyc = H if deg and not pmin else 0
    n_vars = 2 * H + 2 * H + 3 * H + A * H + T + (4 * T if pmin else 0) \
        + ((3 + F) * H if deg else 0) + hourly_cyc
    n_bins = 2 * H + A * H + (2 * T if pmin else 0) + F * H
    n_rows = 2 * H + (2 * H if pmin else 0) + H + (6 * T if pmin else 0) \
        + T + 2 * A * H + 2 * H + 10 * H + ((1 + 3 * F) * H if deg else 0) \
        + hourly_cyc
    return {"n_vars": n_vars, "n_binaries": n_bins, "n_rows": n_rows}


def step_power_coeffs(contents: EnergyContentSeries) -> dict[str, np.ndarray]:
    """Per-step coefficient of each hourly decision in the realized net
    power (load convention, charging positive):
    `net_t = sum over families f of coeffs[f][t] * f[h(t)]`.

    The baseline enters at its set point, each bid at its droop activation
    fraction. The builder pins `p_ch - p_ds` to this sum when per-step
    powers are columns, prices the hourly cycle cost from its absolute
    values otherwise, and extraction rebuilds the net power from it.
    """
    ones = np.ones(contents.n_steps)
    return {"ch_bl": ones, "ds_bl": -ones,
            "bid_n": contents.frac_nd - contents.frac_nu,
            "bid_dd": contents.frac_dd, "bid_du": -contents.frac_du}


def _add_row_group(m: MilpModel, n: int, families: list[tuple]) -> None:
    """Add row families of `n` rows each, interleaved: row 0 of every
    family in the given order, then row 1, and so on.

    A family is `(name, terms, sense, rhs)`. `name` is a format string
    taking the row index; `terms` is a list of `(columns, coeffs)`, each a
    scalar or one entry per row; a negative column leaves the term out of
    that row. `rhs` is a scalar or one value per row.
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
    keep = cols >= 0
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
    hour = np.arange(T) // spH      # hour of each step

    def hour_sums(arr: np.ndarray) -> np.ndarray:
        return np.array([math.fsum(arr[h * spH:(h + 1) * spH])
                         for h in range(H)])

    def hourly(family: str, lo, hi, binary: bool = False) -> np.ndarray:
        return m.add_variables([f"{family}[h={h}]" for h in range(H)],
                               lo, hi, binary)

    def per_step(family: str, lo, hi, binary: bool = False) -> np.ndarray:
        return m.add_variables([f"{family}[t={t}]" for t in range(T)],
                               lo, hi, binary)

    bl_hi = 0.0 if inputs.force_zero_baseline else spec.p_max
    ch_bl = hourly("ch_bl", 0.0, bl_hi)
    ds_bl = hourly("ds_bl", 0.0, bl_hi)

    bid_caps = {"N": spec.p_max, "DU": 2.0 * spec.p_max, "DD": 2.0 * spec.p_max}
    bid = {}
    for mk, var in (("N", "bid_n"), ("DU", "bid_du"), ("DD", "bid_dd")):
        bid[mk] = hourly(var, 0.0, bid_caps[mk] if mk in allowed else 0.0)

    b_ch_bl = hourly("b_ch_bl", 0.0, 1.0, binary=True)
    b_ds_bl = hourly("b_ds_bl", 0.0, 1.0, binary=True)
    b_bid = {}
    for mk, var in (("N", "b_n"), ("DU", "b_du"), ("DD", "b_dd")):
        if mk in allowed and spec.min_bid(mk) > 0.0:
            b_bid[mk] = hourly(var, 0.0, 1.0, binary=True)

    if inputs.step_powers:
        p_ch = per_step("p_ch", 0.0, spec.p_max)
        p_ds = per_step("p_ds", 0.0, spec.p_max)
        b_ch = per_step("b_ch", 0.0, 1.0, binary=True)
        b_ds = per_step("b_ds", 0.0, 1.0, binary=True)
    soe = per_step("soe", spec.soe_min, spec.soe_max)

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
        if not inputs.step_powers:
            # the hour's throughput bound: per step at most p_max of each
            # baseline flow and FCR-N, 2 p_max of FCR-D, so this cap never
            # binds
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

    # realized power bounds and per-step exclusivity
    if inputs.step_powers:
        _add_row_group(m, T, [
            ("st_up_ch[t={}]", [(p_ch, 1.0), (b_ch, -spec.p_max)], "<=", 0.0),
            ("st_up_ds[t={}]", [(p_ds, 1.0), (b_ds, -spec.p_max)], "<=", 0.0),
            ("st_lo_ch[t={}]", [(p_ch, 1.0), (b_ch, -spec.p_min)], ">=", 0.0),
            ("st_lo_ds[t={}]", [(p_ds, 1.0), (b_ds, -spec.p_min)], ">=", 0.0),
            ("st_excl[t={}]", [(b_ch, 1.0), (b_ds, 1.0)], "<=", 1.0)])

    # state-of-energy recursion; efficiencies act on the baseline flows only,
    # activation energy enters unscaled. Step 0 starts from s0, not from a
    # previous soe column.
    prev_soe = np.concatenate(([-1], soe[:-1]))
    rhs = np.zeros(T)
    rhs[0] = inputs.s0
    _add_row_group(m, T, [(
        "soe_rec[t={}]",
        [(soe, 1.0),
         (ch_bl[hour], -spec.eta_ch * dt_h),
         (ds_bl[hour], dt_h / spec.eta_ds),
         (bid["N"][hour], -(cont.e_dr_n - cont.e_ur_n)),
         (bid["DD"][hour], -cont.e_dr_dd),
         (bid["DU"][hour], cont.e_ur_du),
         (prev_soe, -1.0)],
        "==", rhs)])

    # realized power pinned to baseline plus droop activation
    decisions = {"ch_bl": ch_bl, "ds_bl": ds_bl, "bid_n": bid["N"],
                 "bid_dd": bid["DD"], "bid_du": bid["DU"]}
    net_coeffs = step_power_coeffs(cont)
    if inputs.step_powers:
        _add_row_group(m, T, [(
            "pin[t={}]",
            [(p_ch, 1.0), (p_ds, -1.0)]
            + [(decisions[f][hour], -c) for f, c in net_coeffs.items()],
            "==", 0.0)])

    # minimum-bid linking
    for mk, var in (("N", "bid_n"), ("DU", "bid_du"), ("DD", "bid_dd")):
        if mk in b_bid:
            _add_row_group(m, H, [
                (var + "_lo[h={}]",
                 [(bid[mk], 1.0), (b_bid[mk], -spec.min_bid(mk))], ">=", 0.0),
                (var + "_up[h={}]",
                 [(bid[mk], 1.0), (b_bid[mk], -bid_caps[mk])], "<=", 0.0)])

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
    # 0 starts from s0, later hours from the last soe column of the hour
    # before
    third = 1.0 / 3.0
    prev = [(np.concatenate(([-1], soe[spH - 1:T - 1:spH])), 1.0)]
    prev_const = np.zeros(H)
    prev_const[0] = inputs.s0
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
                  spec.soe_max - prev_const),
                 (label + "_min[h={}]", prev + terms, ">=",
                  spec.soe_min - prev_const)]
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
        hour_steps = soe.reshape(H, spH)
        rows.append(("cal_link[h={}]",
                     [(d_cal[:, k], 1.0) for k in range(K)]
                     + [(hour_steps[:, j], -1.0 / spH) for j in range(spH)],
                     "==", 0.0))
        if not inputs.step_powers:
            # cyc bounds the hour's throughput sum_t |net_t|: one step's
            # activation terms share one sign, and so does the hour's
            # baseline, so the bound is exact unless the two oppose
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

    price((ds_bl, prices.spot + prices.tax),
          (ch_bl, -(prices.spot + prices.grid_tariff + prices.tax)),
          (bid["N"], prices.fcr_n + prices.up_reg * cont.eh_ur_n
           - prices.down_reg * cont.eh_dr_n),
          (bid["DU"], prices.fcr_du),
          (bid["DD"], prices.fcr_dd))
    if inputs.degradation_in_objective:
        k_cyc = inputs.cyc_lin.k_cyc
        if inputs.step_powers:
            price((p_ch, -k_cyc * dt_h), (p_ds, -k_cyc * dt_h))
        else:
            price((cyc, -k_cyc * dt_h))
        # the per-step secant cost, charged spH times at the hour's mean SoE:
        # its value at the first breakpoint plus each fill at its slope
        price((d_cal, [-spH * seg.slope_eur_per_mwh for seg in segs]))
        m.objective_const = -H * spH * segs[0].cost_at(segs[0].lo_mwh)

    built = model_size(inputs)
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
    tolerance: float

    @property
    def ok(self) -> bool:
        return not self.violations

    @property
    def max_violation(self) -> float:
        return max((v.amount for v in self.violations), default=0.0)

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
    for col in np.flatnonzero((bound_gap > VALIDATION_TOL)
                              | (frac > VALIDATION_TOL)):
        name = model.var_names[col]
        if bound_gap[col] > VALIDATION_TOL:
            found.append(Violation(name, "bounds", float(bound_gap[col])))
        if frac[col] > VALIDATION_TOL:
            found.append(Violation(name, "integrality", float(frac[col])))
    rows, cols, vals, lo, hi = model.triplets()
    lhs = np.bincount(rows, weights=vals * x[cols], minlength=model.n_rows)
    row_gap = np.maximum(lo - lhs, lhs - hi)
    for r in np.flatnonzero(row_gap > VALIDATION_TOL):
        name = model.row_names[r]
        found.append(Violation(name, name.split("[", 1)[0],
                               float(row_gap[r])))
    return ViolationReport(violations=tuple(found), tolerance=VALIDATION_TOL)


# -- extraction --------------------------------------------------------------

@dataclass(frozen=True)
class DaySolution:
    """Semantically unpacked optimum of one day, plus reporting fields.

    Post-calculated aging and profit are attached by the orchestrator via
    `dataclasses.replace`; they default to NaN until then.
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
    p_ch: np.ndarray
    p_ds: np.ndarray
    soe: np.ndarray
    r_da: float
    r_n: float
    r_du: float
    r_dd: float
    c_da: float
    c_deg_lin: float
    objective: float
    status: str = "Optimal"
    gap: float = 0.0
    nodes: int = 0
    wall_time: float = 0.0
    cal_cost: float = math.nan
    cyc_cost: float = math.nan
    cal_pct: float = math.nan
    cyc_pct: float = math.nan
    profit: float = math.nan

    @property
    def r_fcr(self) -> float:
        return self.r_n + self.r_du + self.r_dd

    @property
    def n_steps(self) -> int:
        return self.steps_per_hour * self.hours

    def to_dict(self) -> dict:
        out = {}
        for f in ("day_index", "steps_per_hour", "hours", "dt_seconds", "s0",
                  "r_da", "r_n", "r_du", "r_dd", "c_da", "c_deg_lin",
                  "objective", "status", "gap", "nodes", "wall_time",
                  "cal_cost", "cyc_cost", "cal_pct", "cyc_pct", "profit"):
            out[f] = getattr(self, f)
        for f in ("ch_bl", "ds_bl", "bid_n", "bid_du", "bid_dd",
                  "p_ch", "p_ds", "soe"):
            out[f] = [float(v) for v in getattr(self, f)]
        return out

    @classmethod
    def from_dict(cls, d: dict) -> "DaySolution":
        """The inverse of `to_dict`. A missing or unknown key raises
        KeyError or TypeError; an array of the wrong length, ValueError."""
        kw = dict(d)
        for f in ("ch_bl", "ds_bl", "bid_n", "bid_du", "bid_dd",
                  "p_ch", "p_ds", "soe"):
            kw[f] = np.asarray(kw[f], dtype=float)
        sol = cls(**kw)
        for f in ("ch_bl", "ds_bl", "bid_n", "bid_du", "bid_dd"):
            if getattr(sol, f).shape != (sol.hours,):
                raise ValueError(f"{f} must hold {sol.hours} hourly values")
        for f in ("p_ch", "p_ds", "soe"):
            if getattr(sol, f).shape != (sol.n_steps,):
                raise ValueError(f"{f} must hold {sol.n_steps} step values")
        return sol


def extract_day_solution(model: MilpModel, x: np.ndarray,
                         inputs: DayInputs,
                         status: str = "Optimal", gap: float = 0.0,
                         wall_time: float = 0.0, nodes: int = 0) -> DaySolution:
    """Unpack a solution vector into market units, one variable family
    (the registry name before `[`) at a time.

    Each money part is its families' share of the model's own objective,
    so the parts sum to the solver objective; the objective's constant,
    the calendar cost at the first breakpoint, goes to `c_deg_lin`.
    Tiny negative values are clamped to zero. Each step's realized net
    power is rebuilt from the reported hourly decisions through
    `step_power_coeffs` and split into charge or discharge, so that
    reported throughput is minimal.
    """
    x = np.asarray(x, dtype=float)
    grid = inputs.grid
    family_cols: dict[str, list[int]] = {}
    for col, name in enumerate(model.var_names):
        family_cols.setdefault(name.split("[", 1)[0], []).append(col)
    earned = model.objective_vector() * x

    def values(family: str) -> np.ndarray:
        return x[family_cols[family]]

    def share(*families: str) -> float:
        return float(sum(earned[family_cols.get(f, [])].sum()
                         for f in families))

    def cost(*families: str) -> float:
        return 0.0 - share(*families)   # +0.0, not -0.0, when nothing is spent

    def clean(arr: np.ndarray) -> np.ndarray:
        return np.where(np.abs(arr) < 1e-9, 0.0, np.maximum(arr, 0.0))

    hourly = {f: clean(values(f))
              for f in ("ch_bl", "ds_bl", "bid_n", "bid_du", "bid_dd")}
    hour = np.arange(grid.n_steps) // grid.steps_per_hour
    net = sum(c * hourly[f][hour]
              for f, c in step_power_coeffs(inputs.contents).items())
    return DaySolution(
        day_index=grid.day_index, steps_per_hour=grid.steps_per_hour,
        hours=grid.hours, dt_seconds=float(grid.step_seconds), s0=inputs.s0,
        **hourly,
        p_ch=clean(np.maximum(net, 0.0)), p_ds=clean(np.maximum(-net, 0.0)),
        soe=np.clip(values("soe"), inputs.spec.soe_min, inputs.spec.soe_max),
        r_da=share("ds_bl"), r_n=share("bid_n"), r_du=share("bid_du"),
        r_dd=share("bid_dd"), c_da=cost("ch_bl"),
        c_deg_lin=cost("p_ch", "p_ds", "d_cal", "cyc")
        - model.objective_const,
        objective=model.objective_value(x),
        status=status, gap=gap, nodes=nodes, wall_time=wall_time)
