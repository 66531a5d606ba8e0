"""Day-model MILP assembly, solution validation and semantic extraction.

One model covers one day: hourly baseline charge/discharge and reserve bids,
per-step realized powers pinned to the droop activation of those bids, the
state-of-energy recursion, reserve power and endurance requirements, and the
linearized degradation cost when it is priced in the objective: cycle
aging per step on the throughput, calendar aging once per hour on the
hour's mean SoE.

Variable registry names follow the `family[index]` pattern, e.g. `p_ch[t=37]`
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


class MilpModel:
    """Canonical named MILP: bounds, integrality, linear rows, linear objective.

    The objective sense is always maximize. Integer variables are binaries
    (bounds inside [0, 1]).
    """

    def __init__(self, name: str = "model"):
        self.name = name
        self.var_names: list[str] = []
        self.lb: list[float] = []
        self.ub: list[float] = []
        self.is_binary: list[bool] = []
        self.rows: list[tuple[str, list[tuple[int, float]], str, float]] = []
        self.objective: dict[int, float] = {}
        self.objective_const: float = 0.0
        self._registry: dict[str, int] = {}
        self._row_names: set[str] = set()

    # -- construction ----------------------------------------------------

    def add_variable(self, name: str, lo: float, hi: float,
                     binary: bool = False) -> int:
        if name in self._registry:
            raise InvalidParameter(f"duplicate variable name {name!r}")
        if not (math.isfinite(lo) and math.isfinite(hi)) or lo > hi:
            raise InfeasibleBounds(f"{name}: bad bounds [{lo}, {hi}]")
        if binary and not (lo >= 0.0 and hi <= 1.0):
            raise InvalidParameter(f"{name}: binary bounds must sit in [0, 1]")
        col = len(self.var_names)
        self.var_names.append(name)
        self.lb.append(lo)
        self.ub.append(hi)
        self.is_binary.append(binary)
        self._registry[name] = col
        return col

    def add_constraint(self, name: str, coeffs: list[tuple[int, float]],
                       sense: str, rhs: float) -> int:
        if name in self._row_names:
            raise InvalidParameter(f"duplicate constraint name {name!r}")
        if sense not in ("<=", ">=", "=="):
            raise InvalidParameter(f"bad sense {sense!r}")
        n = len(self.var_names)
        for col, _ in coeffs:
            if not 0 <= col < n:
                raise InvalidParameter(f"{name}: unknown column {col}")
        self._row_names.add(name)
        self.rows.append((name, list(coeffs), sense, float(rhs)))
        return len(self.rows) - 1

    def set_objective_coeff(self, col: int, coeff: float) -> None:
        self.objective[col] = self.objective.get(col, 0.0) + coeff

    # -- access ------------------------------------------------------------

    @property
    def n_vars(self) -> int:
        return len(self.var_names)

    @property
    def n_rows(self) -> int:
        return len(self.rows)

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
        for col, v in self.objective.items():
            c[col] = v
        return c

    def objective_value(self, x: np.ndarray) -> float:
        return float(sum(v * x[col] for col, v in self.objective.items())
                     + self.objective_const)

    def triplets(self) -> tuple[np.ndarray, np.ndarray, np.ndarray,
                                np.ndarray, np.ndarray]:
        """The rows as coordinates plus row bounds: `lo <= A @ x <= hi`,
        where A holds `vals[i]` at (`rows[i]`, `cols[i]`)."""
        counts = [len(coeffs) for _, coeffs, _, _ in self.rows]
        pairs = [p for _, coeffs, _, _ in self.rows for p in coeffs]
        rows = np.repeat(np.arange(self.n_rows), counts)
        cols = np.array([c for c, _ in pairs], dtype=int)
        vals = np.array([v for _, v in pairs], dtype=float)
        sense = np.array([s for _, _, s, _ in self.rows], dtype=object)
        rhs = np.array([r for _, _, _, r in self.rows], dtype=float)
        lo = np.where(sense == "<=", -np.inf, rhs)
        hi = np.where(sense == ">=", np.inf, rhs)
        return rows, cols, vals, lo, hi


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
    def step_binaries(self) -> bool:
        """Whether realized powers need charge/discharge binaries.

        Only a positive `p_min` needs them. With `p_min == 0` the pinned net
        power fixes p_ch - p_ds, and any overlap of the two only adds cycle
        cost in deg mode; `extract_day_solution` re-splits the net power.
        """
        return self.spec.p_min > 0.0


def model_size(inputs: DayInputs) -> dict[str, int]:
    """Closed-form variable/binary/row counts for a day model.

    With H hours, T steps, A = number of case-allowed markets whose minimum
    bid is positive, deg = degradation in objective and pmin = (p_min > 0):

      vars  = 2H + 2H + 3H + A*H + 2T + (2T if pmin) + T + (6H if deg)
      bins  = 2H + A*H + (2T if pmin) + (3H if deg)
      rows  = 2H + (2H if pmin) + H              baseline bounds + exclusivity
            + (5T if pmin)                        step bounds + exclusivity
            + 2T                                  SoE recursion + pinning
            + 2*A*H                               bid bounds
            + 2H + 10H                            power requirement + endurance
            + (8H if deg)                         hourly calendar rows
    """
    H, T = inputs.grid.hours, inputs.grid.n_steps
    A = sum(1 for m in CASE_MARKETS[inputs.case_id]
            if inputs.spec.min_bid(m) > 0.0)
    deg = inputs.degradation_in_objective
    pmin = inputs.step_binaries
    n_vars = 2 * H + 2 * H + 3 * H + A * H + 2 * T + (2 * T if pmin else 0) \
        + T + (6 * H if deg else 0)
    n_bins = 2 * H + A * H + (2 * T if pmin else 0) + (3 * H if deg else 0)
    n_rows = 2 * H + (2 * H if pmin else 0) + H + (5 * T if pmin else 0) \
        + 2 * T + 2 * A * H + 2 * H + 10 * H + (8 * H if deg else 0)
    return {"n_vars": n_vars, "n_binaries": n_bins, "n_rows": n_rows}


def build_day_model(inputs: DayInputs) -> MilpModel:
    """Assemble the day MILP (sense: maximize daily profit).

    Bids of markets outside the case stay in the model with bounds fixed to
    zero so the registry is identical across cases. Minimum-bid binaries are
    created only for allowed markets with a positive minimum bid.
    """
    grid, spec, prices, cont = inputs.grid, inputs.spec, inputs.prices, inputs.contents
    H, T, spH = grid.hours, grid.n_steps, grid.steps_per_hour
    dt_h = grid.dt_hours
    allowed = CASE_MARKETS[inputs.case_id]
    m = MilpModel(f"day{grid.day_index}_{inputs.case_id}")

    bl_hi = 0.0 if inputs.force_zero_baseline else spec.p_max
    ch_bl = [m.add_variable(f"ch_bl[h={h}]", 0.0, bl_hi) for h in range(H)]
    ds_bl = [m.add_variable(f"ds_bl[h={h}]", 0.0, bl_hi) for h in range(H)]

    bid_caps = {"N": spec.p_max, "DU": 2.0 * spec.p_max, "DD": 2.0 * spec.p_max}
    bid = {}
    for mk, var in (("N", "bid_n"), ("DU", "bid_du"), ("DD", "bid_dd")):
        hi = bid_caps[mk] if mk in allowed else 0.0
        bid[mk] = [m.add_variable(f"{var}[h={h}]", 0.0, hi) for h in range(H)]

    b_ch_bl = [m.add_variable(f"b_ch_bl[h={h}]", 0.0, 1.0, binary=True)
               for h in range(H)]
    b_ds_bl = [m.add_variable(f"b_ds_bl[h={h}]", 0.0, 1.0, binary=True)
               for h in range(H)]
    b_bid = {}
    for mk, var in (("N", "b_n"), ("DU", "b_du"), ("DD", "b_dd")):
        if mk in allowed and spec.min_bid(mk) > 0.0:
            b_bid[mk] = [m.add_variable(f"{var}[h={h}]", 0.0, 1.0, binary=True)
                         for h in range(H)]

    p_ch = [m.add_variable(f"p_ch[t={t}]", 0.0, spec.p_max) for t in range(T)]
    p_ds = [m.add_variable(f"p_ds[t={t}]", 0.0, spec.p_max) for t in range(T)]
    if inputs.step_binaries:
        b_ch = [m.add_variable(f"b_ch[t={t}]", 0.0, 1.0, binary=True)
                for t in range(T)]
        b_ds = [m.add_variable(f"b_ds[t={t}]", 0.0, 1.0, binary=True)
                for t in range(T)]
    soe = [m.add_variable(f"soe[t={t}]", spec.soe_min, spec.soe_max)
           for t in range(T)]

    if inputs.degradation_in_objective:
        segs = inputs.cal_lin.segments
        z_cal = [[m.add_variable(f"z_cal[h={h},k={k}]", 0.0, 1.0, binary=True)
                  for k in range(3)] for h in range(H)]
        s_cal = [[m.add_variable(f"s_cal[h={h},k={k}]", 0.0, segs[k].hi_mwh)
                  for k in range(3)] for h in range(H)]

    # baseline bounds and hourly exclusivity
    for h in range(H):
        m.add_constraint(f"bl_up_ch[h={h}]",
                         [(ch_bl[h], 1.0), (b_ch_bl[h], -spec.p_max)], "<=", 0.0)
        m.add_constraint(f"bl_up_ds[h={h}]",
                         [(ds_bl[h], 1.0), (b_ds_bl[h], -spec.p_max)], "<=", 0.0)
        if spec.p_min > 0.0:
            m.add_constraint(f"bl_lo_ch[h={h}]",
                             [(ch_bl[h], 1.0), (b_ch_bl[h], -spec.p_min)], ">=", 0.0)
            m.add_constraint(f"bl_lo_ds[h={h}]",
                             [(ds_bl[h], 1.0), (b_ds_bl[h], -spec.p_min)], ">=", 0.0)
        m.add_constraint(f"bl_excl[h={h}]",
                         [(b_ch_bl[h], 1.0), (b_ds_bl[h], 1.0)], "<=", 1.0)

    # realized power bounds and per-step exclusivity
    if inputs.step_binaries:
        for t in range(T):
            m.add_constraint(f"st_up_ch[t={t}]",
                             [(p_ch[t], 1.0), (b_ch[t], -spec.p_max)], "<=", 0.0)
            m.add_constraint(f"st_up_ds[t={t}]",
                             [(p_ds[t], 1.0), (b_ds[t], -spec.p_max)], "<=", 0.0)
            m.add_constraint(f"st_lo_ch[t={t}]",
                             [(p_ch[t], 1.0), (b_ch[t], -spec.p_min)], ">=", 0.0)
            m.add_constraint(f"st_lo_ds[t={t}]",
                             [(p_ds[t], 1.0), (b_ds[t], -spec.p_min)], ">=", 0.0)
            m.add_constraint(f"st_excl[t={t}]",
                             [(b_ch[t], 1.0), (b_ds[t], 1.0)], "<=", 1.0)

    # state-of-energy recursion; efficiencies act on the baseline flows only,
    # activation energy enters unscaled
    for t in range(T):
        h = grid.hour_of_step(t)
        coeffs = [(soe[t], 1.0),
                  (ch_bl[h], -spec.eta_ch * dt_h),
                  (ds_bl[h], dt_h / spec.eta_ds),
                  (bid["N"][h], -(cont.e_dr_n[t] - cont.e_ur_n[t])),
                  (bid["DD"][h], -cont.e_dr_dd[t]),
                  (bid["DU"][h], cont.e_ur_du[t])]
        rhs = 0.0
        if t == 0:
            rhs = inputs.s0
        else:
            coeffs.append((soe[t - 1], -1.0))
        m.add_constraint(f"soe_rec[t={t}]", coeffs, "==", rhs)

    # realized power pinned to baseline plus droop activation
    for t in range(T):
        h = grid.hour_of_step(t)
        m.add_constraint(
            f"pin[t={t}]",
            [(p_ch[t], 1.0), (p_ds[t], -1.0),
             (ch_bl[h], -1.0), (ds_bl[h], 1.0),
             (bid["N"][h], -(cont.frac_nd[t] - cont.frac_nu[t])),
             (bid["DD"][h], -cont.frac_dd[t]),
             (bid["DU"][h], cont.frac_du[t])],
            "==", 0.0)

    # minimum-bid linking
    for mk, var in (("N", "bid_n"), ("DU", "bid_du"), ("DD", "bid_dd")):
        if mk not in b_bid:
            continue
        for h in range(H):
            m.add_constraint(f"{var}_lo[h={h}]",
                             [(bid[mk][h], 1.0), (b_bid[mk][h], -spec.min_bid(mk))],
                             ">=", 0.0)
            m.add_constraint(f"{var}_up[h={h}]",
                             [(bid[mk][h], 1.0), (b_bid[mk][h], -bid_caps[mk])],
                             "<=", 0.0)

    # reserve power requirements around the baseline (load convention)
    for h in range(H):
        m.add_constraint(
            f"req_up[h={h}]",
            [(bid["N"][h], REQ_FACTOR_OWN), (bid["DU"][h], 1.0),
             (bid["DD"][h], REQ_FACTOR_OPP),
             (ch_bl[h], -1.0), (ds_bl[h], 1.0)],
            "<=", spec.p_max)
        m.add_constraint(
            f"req_dn[h={h}]",
            [(bid["N"][h], REQ_FACTOR_OWN), (bid["DD"][h], 1.0),
             (bid["DU"][h], REQ_FACTOR_OPP),
             (ch_bl[h], 1.0), (ds_bl[h], -1.0)],
            "<=", spec.p_max)

    # endurance: worst-case hour-start SoE scenarios, both bound sides
    third = 1.0 / 3.0
    for h in range(H):
        prev: list[tuple[int, float]]
        if h == 0:
            prev, prev_const = [], inputs.s0
        else:
            prev, prev_const = [(soe[h * spH - 1], 1.0)], 0.0
        scenarios = {
            "endur_bl": [(ch_bl[h], 1.0), (ds_bl[h], -1.0)],
            "endur_act20_dn": [(ch_bl[h], third), (ds_bl[h], -third),
                               (bid["N"][h], third), (bid["DD"][h], third)],
            "endur_act20_up": [(ch_bl[h], third), (ds_bl[h], -third),
                               (bid["N"][h], -third), (bid["DU"][h], -third)],
            "endur_act60_dn": [(ch_bl[h], 1.0), (ds_bl[h], -1.0),
                               (bid["N"][h], 1.0), (bid["DD"][h], third)],
            "endur_act60_up": [(ch_bl[h], 1.0), (ds_bl[h], -1.0),
                               (bid["N"][h], -1.0), (bid["DU"][h], -third)],
        }
        for label, terms in scenarios.items():
            m.add_constraint(f"{label}_max[h={h}]", prev + terms, "<=",
                             spec.soe_max - prev_const)
            m.add_constraint(f"{label}_min[h={h}]", prev + terms, ">=",
                             spec.soe_min - prev_const)

    # calendar piecewise selection, linked to each hour's mean SoE
    if inputs.degradation_in_objective:
        for h in range(H):
            m.add_constraint(f"cal_pick[h={h}]",
                             [(z_cal[h][k], 1.0) for k in range(3)], "==", 1.0)
            for k in range(3):
                m.add_constraint(
                    f"cal_lo[h={h},k={k}]",
                    [(s_cal[h][k], 1.0), (z_cal[h][k], -segs[k].lo_mwh)], ">=", 0.0)
                m.add_constraint(
                    f"cal_up[h={h},k={k}]",
                    [(s_cal[h][k], 1.0), (z_cal[h][k], -segs[k].hi_mwh)], "<=", 0.0)
            m.add_constraint(f"cal_link[h={h}]",
                             [(s_cal[h][k], 1.0) for k in range(3)]
                             + [(soe[t], -1.0 / spH)
                                for t in range(h * spH, (h + 1) * spH)],
                             "==", 0.0)

    # objective: spot revenue + reserve revenue - charging cost - degradation
    for h in range(H):
        m.set_objective_coeff(ds_bl[h], prices.spot[h] + prices.tax)
        m.set_objective_coeff(ch_bl[h], -(prices.spot[h] + prices.grid_tariff
                                          + prices.tax))
        m.set_objective_coeff(bid["N"][h],
                              prices.fcr_n[h]
                              + prices.up_reg[h] * cont.eh_ur_n[h]
                              - prices.down_reg[h] * cont.eh_dr_n[h])
        m.set_objective_coeff(bid["DU"][h], prices.fcr_du[h])
        m.set_objective_coeff(bid["DD"][h], prices.fcr_dd[h])
    if inputs.degradation_in_objective:
        k_cyc = inputs.cyc_lin.k_cyc
        for t in range(T):
            m.set_objective_coeff(p_ch[t], -k_cyc * dt_h)
            m.set_objective_coeff(p_ds[t], -k_cyc * dt_h)
        # the per-step secant cost, charged spH times at the hour's mean SoE
        for h in range(H):
            for k in range(3):
                m.set_objective_coeff(s_cal[h][k],
                                      -spH * segs[k].slope_eur_per_mwh)
                m.set_objective_coeff(z_cal[h][k], -spH * segs[k].intercept_eur)

    built = model_size(inputs)
    assert (m.n_vars, m.n_binaries, m.n_rows) == (
        built["n_vars"], built["n_binaries"], built["n_rows"]), \
        "model size drifted from the documented closed form"
    return m


# -- validation ------------------------------------------------------------

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


def validate_solution(model: MilpModel, x: np.ndarray,
                      tol: float = 1e-6) -> ViolationReport:
    """Re-evaluate every bound, integrality and row against `tol` (absolute)."""
    x = np.asarray(x, dtype=float)
    if x.shape != (model.n_vars,):
        raise InvalidParameter(
            f"solution length {x.size} != variable count {model.n_vars}")
    lb, ub = np.array(model.lb), np.array(model.ub)
    bound_gap = np.where(np.isfinite(x), np.maximum(lb - x, x - ub), np.inf)
    frac = np.where(model.is_binary, np.abs(x - np.round(x)), 0.0)
    found: list[Violation] = []
    for col in np.flatnonzero((bound_gap > tol) | (frac > tol)):
        name = model.var_names[col]
        if bound_gap[col] > tol:
            found.append(Violation(name, "bounds", float(bound_gap[col])))
        if frac[col] > tol:
            found.append(Violation(name, "integrality", float(frac[col])))
    rows, cols, vals, lo, hi = model.triplets()
    lhs = np.bincount(rows, weights=vals * x[cols], minlength=model.n_rows)
    row_gap = np.maximum(lo - lhs, lhs - hi)
    for r in np.flatnonzero(row_gap > tol):
        name = model.rows[r][0]
        found.append(Violation(name, name.split("[", 1)[0],
                               float(row_gap[r])))
    return ViolationReport(violations=tuple(found), tolerance=tol)


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
        kw = dict(d)
        for f in ("ch_bl", "ds_bl", "bid_n", "bid_du", "bid_dd",
                  "p_ch", "p_ds", "soe"):
            kw[f] = np.asarray(kw[f], dtype=float)
        return cls(**kw)


def extract_day_solution(model: MilpModel, x: np.ndarray,
                         inputs: DayInputs,
                         status: str = "Optimal", gap: float = 0.0,
                         wall_time: float = 0.0, nodes: int = 0) -> DaySolution:
    """Unpack a solution vector into market units, one variable family
    (the registry name before `[`) at a time.

    Each money part is its families' share of the model's own objective,
    so the parts sum to the solver objective. Realized powers are split
    from the pinned net power `p_ch - p_ds`, so that reported throughput
    is minimal. Tiny negative values are clamped to zero.
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

    net = values("p_ch") - values("p_ds")
    return DaySolution(
        day_index=grid.day_index, steps_per_hour=grid.steps_per_hour,
        hours=grid.hours, dt_seconds=float(grid.step_seconds), s0=inputs.s0,
        ch_bl=clean(values("ch_bl")), ds_bl=clean(values("ds_bl")),
        bid_n=clean(values("bid_n")), bid_du=clean(values("bid_du")),
        bid_dd=clean(values("bid_dd")),
        p_ch=clean(np.maximum(net, 0.0)), p_ds=clean(np.maximum(-net, 0.0)),
        soe=np.clip(values("soe"), inputs.spec.soe_min, inputs.spec.soe_max),
        r_da=share("ds_bl"), r_n=share("bid_n"), r_du=share("bid_du"),
        r_dd=share("bid_dd"), c_da=cost("ch_bl"),
        c_deg_lin=cost("p_ch", "p_ds", "s_cal", "z_cal"),
        objective=model.objective_value(x),
        status=status, gap=gap, nodes=nodes, wall_time=wall_time)
