"""Droop-curve activation fractions and energy contents.

Converts a frequency trace into normalized per-unit activation fractions
for FCR-N and FCR-D up/down and integrates them into per-step and per-hour
energy contents (hours of activated energy per MW of bid).

Sign convention: load convention, so positive FCR-N fraction means
down-regulation (charging) at over-frequency and negative means
up-regulation (discharging) at under-frequency.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import AlignmentError, InvalidParameter
from .ingest import FrequencyTrace, TimeGrid


@dataclass(frozen=True)
class DroopParams:
    """Frequency breakpoints of the activation curves (Hz)."""

    f_n: float = 50.0
    f_min_n: float = 49.9
    f_max_n: float = 50.1
    f_min_d: float = 49.5
    f_max_d: float = 50.5

    def __post_init__(self):
        if not (self.f_min_d < self.f_min_n < self.f_n
                < self.f_max_n < self.f_max_d):
            raise InvalidParameter("droop breakpoints must be strictly ordered")


def fcrn_fraction(f: float, params: DroopParams | None = None) -> float:
    """Signed FCR-N activation fraction in [-1, 1].

    Linear between the normal-band edges, saturated outside; positive above
    nominal frequency (down-regulation / charging), negative below.
    """
    params = params or DroopParams()
    if not math.isfinite(f):
        raise InvalidParameter(f"frequency must be finite, got {f}")
    if f >= params.f_max_n:
        return 1.0
    if f <= params.f_min_n:
        return -1.0
    if f >= params.f_n:
        return (f - params.f_n) / (params.f_max_n - params.f_n)
    return -((f - params.f_n) / (params.f_min_n - params.f_n))


def fcrd_up_fraction(f: float, params: DroopParams | None = None) -> float:
    """FCR-D up activation fraction in [0, 1].

    Zero at and above the normal-band lower edge, ramping linearly to full
    activation at the disturbance edge. The boundary frequency itself is
    assigned to the zero branch for determinism; both branches agree there
    in value.
    """
    params = params or DroopParams()
    if not math.isfinite(f):
        raise InvalidParameter(f"frequency must be finite, got {f}")
    if f >= params.f_min_n:
        return 0.0
    if f <= params.f_min_d:
        return 1.0
    return (f - params.f_min_n) / (params.f_min_d - params.f_min_n)


def fcrd_down_fraction(f: float, params: DroopParams | None = None) -> float:
    """FCR-D down activation fraction in [0, 1], mirror of the up curve."""
    params = params or DroopParams()
    if not math.isfinite(f):
        raise InvalidParameter(f"frequency must be finite, got {f}")
    if f <= params.f_max_n:
        return 0.0
    if f >= params.f_max_d:
        return 1.0
    return (f - params.f_max_n) / (params.f_max_d - params.f_max_n)


@dataclass(frozen=True)
class EnergyContentSeries:
    """Per-step and per-hour activation energies per unit of bid.

    Per-step arrays are in hours (fraction times the step length); each
    entry lies in [0, dt_hours]. The frac_* arrays hold the raw activation
    fractions used by the baseline-deviation coupling rows. Hourly arrays
    are exact fsum aggregates of the per-step values.
    """

    e_ur_n: np.ndarray
    e_dr_n: np.ndarray
    e_ur_du: np.ndarray
    e_dr_dd: np.ndarray
    frac_nd: np.ndarray
    frac_nu: np.ndarray
    frac_du: np.ndarray
    frac_dd: np.ndarray
    eh_ur_n: np.ndarray
    eh_dr_n: np.ndarray
    steps_per_hour: int

    def __post_init__(self):
        for name in ("e_ur_n", "e_dr_n", "e_ur_du", "e_dr_dd",
                     "frac_nd", "frac_nu", "frac_du", "frac_dd",
                     "eh_ur_n", "eh_dr_n"):
            arr = np.asarray(getattr(self, name), dtype=np.float64)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        n = self.e_ur_n.size
        if any(getattr(self, name).size != n
               for name in ("e_dr_n", "e_ur_du", "e_dr_dd",
                            "frac_nd", "frac_nu", "frac_du", "frac_dd")):
            raise AlignmentError("per-step arrays must share one length")
        if n % self.steps_per_hour != 0:
            raise AlignmentError("length must be a whole number of hours")
        if self.eh_ur_n.size != n // self.steps_per_hour:
            raise AlignmentError("hourly arrays must cover every hour")

    @property
    def n_steps(self) -> int:
        return self.e_ur_n.size

    @property
    def n_hours(self) -> int:
        return self.eh_ur_n.size

    def hour_slice(self, h: int) -> slice:
        return slice(h * self.steps_per_hour, (h + 1) * self.steps_per_hour)


def energy_content(trace: FrequencyTrace, grid: TimeGrid,
                   params: DroopParams | None = None) -> EnergyContentSeries:
    """Evaluate the droop curves over a trace and integrate per step and hour.

    Covers every day in the trace (trace length must be a whole multiple of
    the grid's day length). Hourly FCR-N contents are exact fsum aggregates
    of the per-step values, so they always lie in [0, 1] hour.
    """
    params = params or DroopParams()
    if trace.steps_per_day != grid.n_steps:
        raise AlignmentError(
            f"trace has {trace.steps_per_day} steps/day, grid expects {grid.n_steps}")
    f = trace.values
    dt_h = grid.dt_hours

    # branch-for-branch mirror of the scalar functions so that vector and
    # scalar results are bit-identical at every sample
    frac_nd = np.where(
        f >= params.f_max_n, 1.0,
        np.where(f >= params.f_n,
                 (f - params.f_n) / (params.f_max_n - params.f_n), 0.0))
    frac_nu = np.where(
        f <= params.f_min_n, 1.0,
        np.where(f < params.f_n,
                 (f - params.f_n) / (params.f_min_n - params.f_n), 0.0))
    frac_du = np.where(
        f >= params.f_min_n, 0.0,
        np.where(f <= params.f_min_d, 1.0,
                 (f - params.f_min_n) / (params.f_min_d - params.f_min_n)))
    frac_dd = np.where(
        f <= params.f_max_n, 0.0,
        np.where(f >= params.f_max_d, 1.0,
                 (f - params.f_max_n) / (params.f_max_d - params.f_max_n)))

    e_ur_n = frac_nu * dt_h
    e_dr_n = frac_nd * dt_h
    e_ur_du = frac_du * dt_h
    e_dr_dd = frac_dd * dt_h

    n_hours = f.size // grid.steps_per_hour
    eh_ur_n = np.empty(n_hours)
    eh_dr_n = np.empty(n_hours)
    for h in range(n_hours):
        s = slice(h * grid.steps_per_hour, (h + 1) * grid.steps_per_hour)
        eh_ur_n[h] = math.fsum(e_ur_n[s])
        eh_dr_n[h] = math.fsum(e_dr_n[s])

    return EnergyContentSeries(
        e_ur_n=e_ur_n, e_dr_n=e_dr_n, e_ur_du=e_ur_du, e_dr_dd=e_dr_dd,
        frac_nd=frac_nd, frac_nu=frac_nu, frac_du=frac_du, frac_dd=frac_dd,
        eh_ur_n=eh_ur_n, eh_dr_n=eh_dr_n, steps_per_hour=grid.steps_per_hour)
