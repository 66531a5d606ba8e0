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


def battery_npv(spec: "BatterySpec") -> float:
    """Discounted replacement-plus-O&M value of the battery in EUR.

    value = (1 - r_sv) * C_rep / (1+i)^L + C_om * ((1+i)^L - 1) / (alpha (1+i)^L)
    with alpha defaulting to the interest rate i (standard annuity form).
    """
    alpha = spec.npv_alpha if spec.npv_alpha is not None else spec.interest_rate
    c_rep = spec.replacement_cost * spec.capacity
    growth = (1.0 + spec.interest_rate) ** spec.lifetime_years
    return (1.0 - spec.salvage_ratio) * c_rep / growth \
        + spec.om_cost * (growth - 1.0) / (alpha * growth)


def eur_per_pct(spec: "BatterySpec") -> float:
    """EUR value of one percent of capacity loss."""
    return battery_npv(spec) / (100.0 * (1.0 - spec.eol_retained))


def _arrhenius(spec: "BatterySpec") -> float:
    co = spec.aging
    return math.exp(-co.Ea / (co.R_gas * spec.temperature))


# G jumps at the span breakpoints (50 and 70 % SoC), and the LP puts the SoE
# exactly on them; an SoE this close (MWh) to one reads as that breakpoint,
# so float noise cannot pick the upper span.
BREAKPOINT_TOL_MWH = 1e-9


def calendar_aging_step(spec: "BatterySpec", soe: float, age_days: float,
                        dt_seconds: float) -> float:
    """Percent capacity lost to calendar aging over one step.

    Uses the incremental square-root-of-time form
    G(SoC%) * exp(-Ea/(R K)) * (sqrt(age + dt) - sqrt(age)), which
    telescopes to the cumulative law over consecutive steps at constant SoC.
    An SoE within `BREAKPOINT_TOL_MWH` of 0.5 or 0.7 of capacity is priced
    at that breakpoint, which belongs to the lower span.
    """
    if not 0.0 <= soe <= spec.capacity:
        raise InvalidParameter(f"soe {soe} outside [0, {spec.capacity}]")
    if age_days < 0:
        raise InvalidParameter("age_days must be >= 0")
    if dt_seconds < 0:
        raise InvalidParameter("dt_seconds must be >= 0")
    soc_pct = 100.0 * soe / spec.capacity
    for pct in (50.0, 70.0):
        if abs(soe - pct / 100.0 * spec.capacity) <= BREAKPOINT_TOL_MWH:
            soc_pct = pct
    g = spec.aging.g_of_soc(soc_pct)
    dt_days = dt_seconds / 86400.0
    return g * _arrhenius(spec) \
        * (math.sqrt(age_days + dt_days) - math.sqrt(age_days))


def cycle_aging_step(spec: "BatterySpec", p_ch: float, p_ds: float,
                     dt_seconds: float) -> float:
    """Percent capacity lost to cycle aging over one step.

    C-rate is (p_ch + p_ds) / capacity; throughput is per-unit-capacity
    energy moved, scaled by ah_scale into the model's throughput unit.
    """
    if p_ch < 0 or p_ds < 0:
        raise InvalidParameter("powers must be >= 0")
    if min(p_ch, p_ds) > 1e-9:
        raise InvalidParameter("simultaneous charge and discharge")
    co = spec.aging
    p = p_ch + p_ds
    c_rate = p / spec.capacity
    throughput = p * (dt_seconds / 3600.0) / spec.capacity * co.ah_scale
    return co.q_poly_at_temp * math.exp(co.q4 * c_rate) * throughput


def linearize_calendar(spec: "BatterySpec", age_days: float,
                       dt_seconds: float) -> CalendarLinearization:
    """Secant linearization of per-step calendar cost over SoE.

    Breakpoints sit at 0, 0.5, 0.7 and 1.0 of capacity; the nonlinear cost
    at each breakpoint is evaluated with the span-inclusion rule of the
    quadratic definition (0.5Q belongs to the low span, 0.7Q to the middle
    one), and consecutive breakpoints are joined by secants. The result is
    continuous and exact at all four breakpoints; each segment reports its
    worst absolute gap to the quadratic inside the span.
    """
    q = spec.capacity
    scale = eur_per_pct(spec)
    breaks = [0.0, 0.5 * q, 0.7 * q, 1.0 * q]
    values = [scale * calendar_aging_step(spec, s, age_days, dt_seconds)
              for s in breaks]
    arr = _arrhenius(spec)
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
    return CalendarLinearization(segments=tuple(segments))


CYCLE_FIT_SAMPLES = 50
CYCLE_FIT_TOL = 0.10        # cap on the fit's full-scale relative error


def linearize_cycle(spec: "BatterySpec") -> CycleLinearization:
    """Least-squares EUR/MWh-throughput coefficient over the power range.

    Fits k so that k * p approximates c * p * exp(q4 * p / capacity) over 50
    evenly spaced powers in [0.1, 1.0] * p_max, where c is the nonlinear
    per-MWh cost at zero C-rate. Raises FitToleranceExceeded when the
    full-scale relative error exceeds the 10 % cap.
    """
    co = spec.aging
    scale = eur_per_pct(spec)
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
    return CycleLinearization(k_cyc=k_cyc, max_rel_err=max_rel_err)


def post_calculate_aging(soe, net, dt_seconds: float, spec: "BatterySpec",
                         age_days: float) -> tuple[float, float, float, float]:
    """Exact nonlinear aging of a solved day: (cal EUR, cyc EUR, cal %, cyc %).

    `soe` is the SoE at the end of each step (`milp.step_soe`) and `net`
    each step's realized net power (charging positive,
    `milp.step_net_power`), both per step of `dt_seconds`. The cycle term
    prices the charge part `max(net, 0)` and the discharge part
    `max(-net, 0)` of each step. Battery age advances step by step so the
    square-root-of-time increments telescope across the day.
    """
    soe = np.asarray(soe, dtype=float)
    net = np.asarray(net, dtype=float)
    if soe.shape != net.shape:
        raise InvalidParameter("soe and net power must share one length")
    dt = float(dt_seconds)
    dt_days = dt / 86400.0
    cal_pct = 0.0
    cyc_pct = 0.0
    for t, (s, p) in enumerate(zip(soe.tolist(), net.tolist())):
        cal_pct += calendar_aging_step(spec, s, age_days + t * dt_days, dt)
        cyc_pct += cycle_aging_step(spec, max(p, 0.0), max(-p, 0.0), dt)
    scale = eur_per_pct(spec)
    return cal_pct * scale, cyc_pct * scale, cal_pct, cyc_pct
