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


# Frequency breakpoints of the activation curves (Hz): fixed market rules.
F_N = 50.0
F_MIN_N = 49.9
F_MAX_N = 50.1
F_MIN_D = 49.5
F_MAX_D = 50.5


def _fractions(f):
    """FCR-N down, FCR-N up, FCR-D up and FCR-D down fractions of `f`, each
    in [0, 1]. A boundary frequency takes the zero branch of the FCR-D
    curves; both branches agree there in value."""
    frac_nd = np.where(
        f >= F_MAX_N, 1.0,
        np.where(f >= F_N, (f - F_N) / (F_MAX_N - F_N), 0.0))
    frac_nu = np.where(
        f <= F_MIN_N, 1.0,
        np.where(f < F_N, (f - F_N) / (F_MIN_N - F_N), 0.0))
    frac_du = np.where(
        f >= F_MIN_N, 0.0,
        np.where(f <= F_MIN_D, 1.0, (f - F_MIN_N) / (F_MIN_D - F_MIN_N)))
    frac_dd = np.where(
        f <= F_MAX_N, 0.0,
        np.where(f >= F_MAX_D, 1.0, (f - F_MAX_N) / (F_MAX_D - F_MAX_N)))
    return frac_nd, frac_nu, frac_du, frac_dd


def _scalar_fractions(f: float) -> list[float]:
    if not math.isfinite(f):
        raise InvalidParameter(f"frequency must be finite, got {f}")
    return [float(v) for v in _fractions(np.float64(f))]


def fcrn_fraction(f: float) -> float:
    """Signed FCR-N activation fraction in [-1, 1].

    Linear between the normal-band edges, saturated outside; positive above
    nominal frequency (down-regulation / charging), negative below.
    """
    frac_nd, frac_nu, _, _ = _scalar_fractions(f)
    return frac_nd - frac_nu


def fcrd_up_fraction(f: float) -> float:
    """FCR-D up activation fraction in [0, 1].

    Zero at and above the normal-band lower edge, ramping linearly to full
    activation at the disturbance edge.
    """
    return _scalar_fractions(f)[2]


def fcrd_down_fraction(f: float) -> float:
    """FCR-D down activation fraction in [0, 1], mirror of the up curve."""
    return _scalar_fractions(f)[3]


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


def energy_content(trace: FrequencyTrace, grid: TimeGrid) -> EnergyContentSeries:
    """Evaluate the droop curves over a trace and integrate per step and hour.

    Covers every day in the trace (trace length must be a whole multiple of
    the grid's day length). Hourly FCR-N contents are exact fsum aggregates
    of the per-step values, so they always lie in [0, 1] hour.
    """
    if trace.steps_per_day != grid.n_steps:
        raise AlignmentError(
            f"trace has {trace.steps_per_day} steps/day, grid expects {grid.n_steps}")
    f = trace.values
    dt_h = grid.dt_hours
    frac_nd, frac_nu, frac_du, frac_dd = _fractions(f)

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
