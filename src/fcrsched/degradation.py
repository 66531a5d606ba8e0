"""Battery aging model and its MILP-ready linearizations.

Calendar aging follows the empirical NMC+LMO capacity-fade law: a per-span
quadratic in state of charge (percent scale), an Arrhenius temperature
factor and square-root-of-time dependence. Cycle aging is exponential in
C-rate and linear in throughput. Both are expressed as percent capacity
loss, converted to EUR through the battery's net present value and the
end-of-life retention threshold.

For use inside the MILP, calendar cost per step becomes a three-segment
piecewise-linear function of SoE (secants between the span breakpoints) and
cycle cost becomes a single EUR per MWh-throughput coefficient fitted by
least squares over the charger's power range.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .errors import FitToleranceExceeded, InvalidParameter

if TYPE_CHECKING:  # pragma: no cover
    from .ingest import BatterySpec


@dataclass(frozen=True)
class AgingCoefficients:
    """Empirical aging coefficients.

    The calendar quadratics a/b/c take state of charge in PERCENT (0..100);
    their spans are [0, 50], (50, 70] and (70, 100] percent. q_poly_at_temp
    is the temperature polynomial already evaluated at the operating
    temperature; q4 multiplies the C-rate in the cycle exponent. ah_scale
    converts per-unit-capacity energy throughput into the model's
    throughput unit (1.0 = use per-unit throughput directly).
    """

    a1: float = -1.1
    a2: float = 89.7
    a3: float = 1224.6
    b1: float = 10.3
    b2: float = -1083.6
    b3: float = 31447.0
    c1: float = 2.6
    c2: float = -409.5
    c3: float = 22035.0
    Ea: float = 24_500.0        # J/mol
    R_gas: float = 8.314        # J/(mol K)
    q_poly_at_temp: float = 0.0008
    q4: float = 0.3903
    ah_scale: float = 1.0

    def __post_init__(self):
        for name in ("a1", "a2", "a3", "b1", "b2", "b3", "c1", "c2", "c3",
                     "Ea", "R_gas", "q_poly_at_temp", "q4", "ah_scale"):
            if not math.isfinite(getattr(self, name)):
                raise InvalidParameter(f"aging coefficient {name} must be finite")
        if self.q_poly_at_temp <= 0:
            raise InvalidParameter("q_poly_at_temp must be > 0")

    def g_of_soc(self, soc_pct: float) -> float:
        """Calendar pre-factor G on the percent SoC scale, per-span quadratic."""
        if not 0.0 <= soc_pct <= 100.0:
            raise InvalidParameter(f"soc_pct {soc_pct} outside [0, 100]")
        if soc_pct <= 50.0:
            k1, k2, k3 = self.a1, self.a2, self.a3
        elif soc_pct <= 70.0:
            k1, k2, k3 = self.b1, self.b2, self.b3
        else:
            k1, k2, k3 = self.c1, self.c2, self.c3
        return (k1 * soc_pct + k2) * soc_pct + k3


@dataclass(frozen=True)
class BatteryNpv:
    """Net present value of the battery in EUR, with the inputs echoed."""

    value: float
    replacement_cost: float
    om_cost: float
    lifetime_years: int
    interest_rate: float
    salvage_ratio: float


@dataclass(frozen=True)
class CalendarSegment:
    lo_mwh: float
    hi_mwh: float
    slope_eur_per_mwh: float
    intercept_eur: float
    max_gap_eur: float  # largest |secant - nonlinear| inside the span

    def cost_at(self, soe: float) -> float:
        return self.slope_eur_per_mwh * soe + self.intercept_eur


@dataclass(frozen=True)
class CalendarLinearization:
    """Per-step calendar cost as three secant segments over SoE in MWh."""

    segments: tuple[CalendarSegment, CalendarSegment, CalendarSegment]
    temperature: float
    age_days: float
    dt_seconds: float
    npv_eur: float

    def cost_at(self, soe: float) -> float:
        for seg in self.segments:
            if soe <= seg.hi_mwh or seg is self.segments[-1]:
                return seg.cost_at(soe)
        raise InvalidParameter(f"soe {soe} outside linearization domain")

    @property
    def falling_kinks(self) -> tuple[int, ...]:
        """Each breakpoint j (between segments j-1 and j) where the secant
        slope falls: the kinks at which the cost is not convex."""
        slopes = [seg.slope_eur_per_mwh for seg in self.segments]
        return tuple(j for j in range(1, len(slopes))
                     if slopes[j] < slopes[j - 1])


@dataclass(frozen=True)
class CycleLinearization:
    """Single cycle-aging cost coefficient in EUR per MWh of throughput.

    max_rel_err is the largest |linear - nonlinear| over the sampled powers,
    normalized by the nonlinear cost at p_max (full-scale error). A single
    coefficient cannot bound the pointwise ratio at small powers, so the
    full-scale normalization is the metric both stored and asserted.
    """

    k_cyc: float
    max_rel_err: float
    p_lo: float
    p_hi: float


def battery_npv(spec: "BatterySpec") -> BatteryNpv:
    """Discounted replacement-plus-O&M value of the battery in EUR.

    value = (1 - r_sv) * C_rep / (1+i)^L + C_om * ((1+i)^L - 1) / (alpha (1+i)^L)
    with alpha defaulting to the interest rate i (standard annuity form).
    """
    if spec.lifetime_years < 1:
        raise InvalidParameter("lifetime_years must be >= 1")
    if spec.interest_rate <= 0:
        raise InvalidParameter("interest_rate must be > 0")
    alpha = spec.npv_alpha if spec.npv_alpha is not None else spec.interest_rate
    if alpha <= 0:
        raise InvalidParameter("npv_alpha must be > 0")
    c_rep = spec.replacement_cost * spec.capacity
    growth = (1.0 + spec.interest_rate) ** spec.lifetime_years
    value = (1.0 - spec.salvage_ratio) * c_rep / growth \
        + spec.om_cost * (growth - 1.0) / (alpha * growth)
    return BatteryNpv(value=value, replacement_cost=spec.replacement_cost,
                      om_cost=spec.om_cost, lifetime_years=spec.lifetime_years,
                      interest_rate=spec.interest_rate,
                      salvage_ratio=spec.salvage_ratio)


def eur_per_pct(npv: BatteryNpv | float, eol_retained: float) -> float:
    """EUR value of one percent of capacity loss."""
    value = npv.value if isinstance(npv, BatteryNpv) else float(npv)
    return value / (100.0 * (1.0 - eol_retained))


def _arrhenius(coeffs: AgingCoefficients, temp_K: float) -> float:
    return math.exp(-coeffs.Ea / (coeffs.R_gas * temp_K))


def calendar_aging_step(soe: float, temp_K: float, age_days: float,
                        dt_seconds: float, coeffs: AgingCoefficients,
                        capacity: float) -> float:
    """Percent capacity lost to calendar aging over one step.

    Uses the incremental square-root-of-time form
    G(SoC%) * exp(-Ea/(R K)) * (sqrt(age + dt) - sqrt(age)), which
    telescopes to the cumulative law over consecutive steps at constant SoC.
    """
    if not 0.0 <= soe <= capacity:
        raise InvalidParameter(f"soe {soe} outside [0, {capacity}]")
    if age_days < 0:
        raise InvalidParameter("age_days must be >= 0")
    if dt_seconds < 0:
        raise InvalidParameter("dt_seconds must be >= 0")
    g = coeffs.g_of_soc(100.0 * soe / capacity)
    arr = _arrhenius(coeffs, temp_K)
    dt_days = dt_seconds / 86400.0
    return g * arr * (math.sqrt(age_days + dt_days) - math.sqrt(age_days))


def cycle_aging_step(p_ch: float, p_ds: float, dt_seconds: float,
                     coeffs: AgingCoefficients, capacity: float) -> float:
    """Percent capacity lost to cycle aging over one step.

    C-rate is (p_ch + p_ds) / capacity; throughput is per-unit-capacity
    energy moved, scaled by ah_scale into the model's throughput unit.
    """
    if p_ch < 0 or p_ds < 0:
        raise InvalidParameter("powers must be >= 0")
    if min(p_ch, p_ds) > 1e-9:
        raise InvalidParameter("simultaneous charge and discharge")
    p = p_ch + p_ds
    c_rate = p / capacity
    throughput = p * (dt_seconds / 3600.0) / capacity * coeffs.ah_scale
    return coeffs.q_poly_at_temp * math.exp(coeffs.q4 * c_rate) * throughput


def linearize_calendar(spec: "BatterySpec", temp_K: float, age_days: float,
                       dt_seconds: float,
                       npv: BatteryNpv | float) -> CalendarLinearization:
    """Secant linearization of per-step calendar cost over SoE.

    Breakpoints sit at 0, 0.5, 0.7 and 1.0 of capacity; the nonlinear cost
    at each breakpoint is evaluated with the span-inclusion rule of the
    quadratic definition (0.5Q belongs to the low span, 0.7Q to the middle
    one), and consecutive breakpoints are joined by secants. The result is
    continuous and exact at all four breakpoints; each segment reports its
    worst absolute gap to the quadratic inside the span.
    """
    q = spec.capacity
    scale = eur_per_pct(npv, spec.eol_retained)

    def cost(soe: float) -> float:
        return scale * calendar_aging_step(
            soe, temp_K, age_days, dt_seconds, spec.aging, q)

    breaks = [0.0, 0.5 * q, 0.7 * q, 1.0 * q]
    values = [cost(s) for s in breaks]
    arr = _arrhenius(spec.aging, temp_K)
    dtf = math.sqrt(age_days + dt_seconds / 86400.0) - math.sqrt(age_days)
    curvatures = (spec.aging.a1, spec.aging.b1, spec.aging.c1)

    segments = []
    for k in range(3):
        lo, hi = breaks[k], breaks[k + 1]
        v_lo, v_hi = values[k], values[k + 1]
        slope = (v_hi - v_lo) / (hi - lo)
        intercept = v_lo - slope * lo
        # worst secant-vs-quadratic gap inside the span: the quadratic part
        # contributes |k1| * (d_pct/2)^2 at most (vertex form), plus any jump
        # of the piecewise G at the lower breakpoint carried by the secant
        d_pct = 100.0 * (hi - lo) / q
        sag = abs(curvatures[k]) * (d_pct / 2.0) ** 2 * arr * dtf * scale
        soc_lo = 100.0 * lo / q
        jump = abs(spec.aging.g_of_soc(min(soc_lo + 1e-9, 100.0))
                   - spec.aging.g_of_soc(soc_lo)) * arr * dtf * scale
        segments.append(CalendarSegment(
            lo_mwh=lo, hi_mwh=hi, slope_eur_per_mwh=slope,
            intercept_eur=intercept, max_gap_eur=sag + jump))
    return CalendarLinearization(
        segments=tuple(segments), temperature=temp_K, age_days=age_days,
        dt_seconds=dt_seconds,
        npv_eur=npv.value if isinstance(npv, BatteryNpv) else float(npv))


CYCLE_FIT_SAMPLES = 50
CYCLE_FIT_TOL = 0.10        # cap on the fit's full-scale relative error


def linearize_cycle(spec: "BatterySpec", temp_K: float,
                    npv: BatteryNpv | float) -> CycleLinearization:
    """Least-squares EUR/MWh-throughput coefficient over the power range.

    Fits k so that k * p approximates c * p * exp(q4 * p / capacity) over 50
    evenly spaced powers in [0.1, 1.0] * p_max, where c is the nonlinear
    per-MWh cost at zero C-rate. Raises FitToleranceExceeded when the
    full-scale relative error exceeds the 10 % cap.
    """
    co = spec.aging
    scale = eur_per_pct(npv, spec.eol_retained)
    # nonlinear cost of moving 1 MWh at constant power p:
    #   scale * q_poly * exp(q4 p / cap) * ah_scale / cap
    c0 = scale * co.q_poly_at_temp * co.ah_scale / spec.capacity
    p_lo, p_hi = 0.1 * spec.p_max, 1.0 * spec.p_max
    p = np.linspace(p_lo, p_hi, CYCLE_FIT_SAMPLES)
    nonlin = c0 * p * np.exp(co.q4 * p / spec.capacity)
    k_cyc = float(np.dot(p, nonlin) / np.dot(p, p))
    full_scale = c0 * p_hi * math.exp(co.q4 * p_hi / spec.capacity)
    max_rel_err = float(np.max(np.abs(k_cyc * p - nonlin)) / full_scale)
    if max_rel_err > CYCLE_FIT_TOL:
        raise FitToleranceExceeded(
            f"cycle fit error {max_rel_err:.3f} exceeds {CYCLE_FIT_TOL}")
    if k_cyc <= 0:
        raise InvalidParameter("k_cyc must be > 0")
    return CycleLinearization(k_cyc=k_cyc, max_rel_err=max_rel_err,
                              p_lo=p_lo, p_hi=p_hi)


def post_calculate_aging(solution, spec: "BatterySpec", temp_K: float,
                         age_days: float) -> tuple[float, float, float, float]:
    """Exact nonlinear aging of a solved day: (cal EUR, cyc EUR, cal %, cyc %).

    `solution` must expose per-step arrays `soe`, `p_ch`, `p_ds` and the
    step length `dt_seconds`. Battery age advances step by step so the
    square-root-of-time increments telescope across the day.
    """
    soe = np.asarray(solution.soe, dtype=float)
    p_ch = np.asarray(solution.p_ch, dtype=float)
    p_ds = np.asarray(solution.p_ds, dtype=float)
    if not soe.shape == p_ch.shape == p_ds.shape:
        raise InvalidParameter("solution arrays must share one length")
    dt = float(solution.dt_seconds)
    dt_days = dt / 86400.0
    cal_pct = 0.0
    cyc_pct = 0.0
    for t in range(soe.size):
        cal_pct += calendar_aging_step(
            float(soe[t]), temp_K, age_days + t * dt_days, dt, spec.aging,
            spec.capacity)
        cyc_pct += cycle_aging_step(float(p_ch[t]), float(p_ds[t]), dt,
                                    spec.aging, spec.capacity)
    scale = eur_per_pct(battery_npv(spec), spec.eol_retained)
    return cal_pct * scale, cyc_pct * scale, cal_pct, cyc_pct
