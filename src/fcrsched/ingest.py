"""File ingest and run configuration.

Reads frequency traces and hourly price series from CSV into validated
in-memory arrays aligned on a common time grid, and parses the flat JSON run
configuration. Also provides deterministic synthetic inputs for desk-scale
runs without the real datasets.

Units: power MW, energy MWh, energy prices EUR/MWh, capacity prices EUR/MW
per hour, temperature Kelvin.
"""

from __future__ import annotations

import csv
import dataclasses
import hashlib
import itertools
import json
import math
from dataclasses import dataclass, field
from datetime import datetime, timedelta, timezone
from pathlib import Path

import numpy as np

from .degradation import AgingCoefficients
from .errors import (
    AlignmentError,
    GapTooLong,
    InvalidParameter,
    MissingFile,
    MissingHour,
    OutOfRangeSample,
    SchemaMismatch,
)

FREQ_WINDOW_HZ = (45.0, 55.0)
FREQUENCY_HEADER = ["timestamp", "hz"]
PRICE_HEADER = ["hour_start", "spot", "fcr_n", "fcr_du", "fcr_dd", "up_reg", "down_reg"]

CASES = ("WO_FCR", "FCR_N", "FCR_DU", "FCR_DD", "MULTI")

# markets (N, DU, DD) whose bids may be nonzero per case
CASE_MARKETS = {
    "WO_FCR": (),
    "FCR_N": ("N",),
    "FCR_DU": ("DU",),
    "FCR_DD": ("DD",),
    "MULTI": ("N", "DU", "DD"),
}


@dataclass(frozen=True)
class TimeGrid:
    """Sub-hourly timestep index of one day.

    `steps_per_hour` must divide 3600 so that `step_seconds` is an integer.
    `hours` defaults to a full day; short grids are used by small tests.
    """

    day_index: int
    steps_per_hour: int
    hours: int = 24

    def __post_init__(self):
        if self.day_index < 0:
            raise InvalidParameter(f"day_index must be >= 0, got {self.day_index}")
        if self.steps_per_hour < 1 or 3600 % self.steps_per_hour != 0:
            raise InvalidParameter(
                f"steps_per_hour must divide 3600, got {self.steps_per_hour}")
        if self.hours < 1:
            raise InvalidParameter(f"hours must be >= 1, got {self.hours}")

    @property
    def step_seconds(self) -> int:
        return 3600 // self.steps_per_hour

    @property
    def n_steps(self) -> int:
        return self.steps_per_hour * self.hours

    @property
    def dt_hours(self) -> float:
        return self.step_seconds / 3600.0


@dataclass(frozen=True)
class FrequencyTrace:
    """Per-timestep grid frequency in Hz over one or more days."""

    values: np.ndarray
    steps_per_day: int

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=np.float64)
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)
        if vals.ndim != 1 or vals.size == 0:
            raise AlignmentError("frequency trace must be a non-empty 1-D array")
        if self.steps_per_day < 1 or vals.size % self.steps_per_day != 0:
            raise AlignmentError(
                f"trace length {vals.size} is not a multiple of "
                f"steps_per_day={self.steps_per_day}")
        bad = np.flatnonzero(~np.isfinite(vals)
                             | (vals < FREQ_WINDOW_HZ[0])
                             | (vals > FREQ_WINDOW_HZ[1]))
        if bad.size:
            i = int(bad[0])
            raise OutOfRangeSample(f"step {i}", float(vals[i]))

    @property
    def n_days(self) -> int:
        return self.values.size // self.steps_per_day

    def day_values(self, day: int) -> np.ndarray:
        if not 0 <= day < self.n_days:
            raise AlignmentError(f"day {day} outside trace of {self.n_days} days")
        lo = day * self.steps_per_day
        return self.values[lo:lo + self.steps_per_day]


@dataclass(frozen=True)
class PriceSeries:
    """Hourly market prices plus the two scalar charges.

    Array fields have one entry per hour of the horizon. `spot`, `up_reg`
    and `down_reg` are EUR/MWh; the fcr_* fields are EUR/MW per hour and
    must be non-negative. `grid_tariff` and `tax` (EUR/MWh) are scalars that
    come from the run configuration, not from the price CSV.
    """

    spot: np.ndarray
    fcr_n: np.ndarray
    fcr_du: np.ndarray
    fcr_dd: np.ndarray
    up_reg: np.ndarray
    down_reg: np.ndarray
    grid_tariff: float = 0.0
    tax: float = 0.0

    def __post_init__(self):
        n = None
        for name in PRICE_HEADER[1:]:
            arr = np.asarray(getattr(self, name), dtype=np.float64)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
            if arr.ndim != 1:
                raise InvalidParameter(f"{name} must be 1-D")
            if n is None:
                n = arr.size
            elif arr.size != n:
                raise InvalidParameter("price series lengths differ")
            if not np.all(np.isfinite(arr)):
                raise InvalidParameter(f"{name} contains non-finite values")
        for name in ("fcr_n", "fcr_du", "fcr_dd"):
            if np.any(getattr(self, name) < 0.0):
                raise InvalidParameter(f"capacity price {name} must be >= 0")
        if not (math.isfinite(self.grid_tariff) and math.isfinite(self.tax)):
            raise InvalidParameter("grid_tariff and tax must be finite")

    @property
    def n_hours(self) -> int:
        return self.spot.size

    def day_slice(self, day: int, hours_per_day: int) -> "PriceSeries":
        lo = day * hours_per_day
        hi = lo + hours_per_day
        if hi > self.n_hours:
            raise AlignmentError(
                f"day {day} needs hours {lo}..{hi - 1}, series has {self.n_hours}")
        return PriceSeries(
            **{name: getattr(self, name)[lo:hi] for name in PRICE_HEADER[1:]},
            grid_tariff=self.grid_tariff, tax=self.tax)


@dataclass(frozen=True)
class BatterySpec:
    """Physical, economic and aging parameters of the battery.

    Defaults reproduce the reference 1 MWh unit: 10-90% SoC window, 93%
    one-way efficiencies, 0.1 MW minimum bids, 137 kEUR/MWh replacement cost
    with 2%/yr O&M, 80% end-of-life retention, 10-year life at 5% interest,
    0.5 salvage ratio, 20 C operating temperature.
    """

    capacity: float = 1.0              # MWh
    p_min: float = 0.0                 # MW, minimum nonzero charger power
    p_max: float = 1.0                 # MW
    soc_min: float = 0.1               # fraction
    soc_max: float = 0.9               # fraction
    eta_ch: float = 0.93
    eta_ds: float = 0.93
    min_bid_n: float = 0.1             # MW
    min_bid_du: float = 0.1            # MW
    min_bid_dd: float = 0.1            # MW
    replacement_cost: float = 137_000.0   # EUR per MWh of capacity
    om_cost: float = 2_740.0           # EUR per year, absolute
    eol_retained: float = 0.8          # fraction of capacity at end of life
    lifetime_years: int = 10
    interest_rate: float = 0.05
    salvage_ratio: float = 0.5
    temperature: float = 293.15        # K
    npv_alpha: float | None = None     # annuity denominator; None = interest_rate
    aging: AgingCoefficients = field(default_factory=AgingCoefficients)

    def __post_init__(self):
        if self.capacity <= 0:
            raise InvalidParameter("capacity must be > 0")
        if not 0.0 <= self.soc_min < self.soc_max <= 1.0:
            raise InvalidParameter("need 0 <= soc_min < soc_max <= 1")
        if not 0.0 <= self.p_min <= self.p_max:
            raise InvalidParameter("need 0 <= p_min <= p_max")
        if not (0.0 < self.eta_ch <= 1.0 and 0.0 < self.eta_ds <= 1.0):
            raise InvalidParameter("efficiencies must lie in (0, 1]")
        if not 0.0 < self.eol_retained < 1.0:
            raise InvalidParameter("eol_retained must lie in (0, 1)")
        for market in ("N", "DU", "DD"):
            if not 0.0 <= self.min_bid(market) <= self.bid_cap(market):
                raise InvalidParameter(
                    f"min_bid_{market.lower()} must lie in "
                    f"[0, {self.bid_cap(market)}] MW, the market's bid cap")
        if self.lifetime_years < 1:
            raise InvalidParameter("lifetime_years must be >= 1")
        # `not x > 0` also refuses NaN, which would turn every cost into NaN
        if not self.interest_rate > 0:
            raise InvalidParameter("interest_rate must be > 0")
        if self.npv_alpha is not None and not self.npv_alpha > 0:
            raise InvalidParameter("npv_alpha must be > 0")
        if self.temperature <= 0:
            raise InvalidParameter("temperature must be in Kelvin and > 0")
        # NaN passes a check such as `x <= 0` above
        for name in ("capacity", "p_min", "p_max", "soc_min", "soc_max",
                     "eta_ch", "eta_ds", "min_bid_n", "min_bid_du",
                     "min_bid_dd", "replacement_cost", "om_cost",
                     "eol_retained", "interest_rate", "salvage_ratio",
                     "temperature", "npv_alpha"):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise InvalidParameter(f"battery {name} must be finite")

    @property
    def soe_min(self) -> float:
        return self.soc_min * self.capacity

    @property
    def soe_max(self) -> float:
        return self.soc_max * self.capacity

    def min_bid(self, market: str) -> float:
        return {"N": self.min_bid_n, "DU": self.min_bid_du, "DD": self.min_bid_dd}[market]

    def bid_cap(self, market: str) -> float:
        """The largest bid of a market, MW: p_max for FCR-N, 2*p_max for
        FCR-D up and down."""
        return self.p_max if market == "N" else 2.0 * self.p_max

    def to_dict(self) -> dict:
        d = dataclasses.asdict(self)
        d["aging"] = dataclasses.asdict(self.aging)
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "BatterySpec":
        d = dict(d)
        aging = d.pop("aging", None)
        unknown = set(d) - {f.name for f in dataclasses.fields(cls)}
        if unknown:
            raise InvalidParameter(f"unknown battery keys: {sorted(unknown)}")
        if aging is not None:
            bad = set(aging) - {f.name for f in dataclasses.fields(AgingCoefficients)}
            if bad:
                raise InvalidParameter(f"unknown aging keys: {sorted(bad)}")
            d["aging"] = AgingCoefficients(**aging)
        return cls(**d)


@dataclass(frozen=True)
class RunConfig:
    """One experiment run: case, mode, horizon, grid, solver and file paths."""

    case_id: str = "MULTI"
    degradation_in_objective: bool = True
    days: tuple[int, ...] = (0,)
    initial_soe: float | None = None   # MWh; None = mid-window
    steps_per_hour: int = 60
    hours_per_day: int = 24
    solver: str = "scipy"              # "scipy" | "micro" | "external:<template>"
    time_limit_s: float = 600.0
    mip_gap: float = 1e-6              # of the objective with its constant
    outdir: str = "runs"
    start_age_days: float = 0.0
    grid_tariff: float = 0.0           # EUR/MWh on charged energy
    tax: float = 0.0                   # EUR/MWh
    relinearize_daily: bool = False
    force_zero_baseline: bool = False
    max_gap_seconds: int = 300
    frequency_csv: str | None = None
    prices_csv: str | None = None
    battery: BatterySpec = field(default_factory=BatterySpec)

    def __post_init__(self):
        if self.case_id not in CASES:
            raise InvalidParameter(
                f"case_id must be one of {CASES}, got {self.case_id!r}")
        if not self.days:
            raise InvalidParameter("days must be non-empty")
        if any(d < 0 for d in self.days):
            raise InvalidParameter("day indices must be >= 0")
        object.__setattr__(self, "days", tuple(int(d) for d in self.days))
        # grid validity
        TimeGrid(0, self.steps_per_hour, self.hours_per_day)
        if self.initial_soe is None:
            object.__setattr__(self, "initial_soe", 0.5 * self.battery.capacity)
        s0 = self.initial_soe
        if not self.battery.soe_min <= s0 <= self.battery.soe_max:
            raise InvalidParameter(
                f"initial_soe {s0} outside [{self.battery.soe_min}, "
                f"{self.battery.soe_max}] MWh")
        if self.time_limit_s <= 0 or self.mip_gap < 0:
            raise InvalidParameter("time_limit_s must be > 0 and mip_gap >= 0")
        if self.start_age_days < 0:
            raise InvalidParameter("start_age_days must be >= 0")
        if self.max_gap_seconds < 0:
            raise InvalidParameter("max_gap_seconds must be >= 0")
        for name in ("initial_soe", "time_limit_s", "mip_gap",
                     "start_age_days", "grid_tariff", "tax"):
            if not math.isfinite(getattr(self, name)):
                raise InvalidParameter(f"{name} must be finite")

    def grid_for(self, day_index: int) -> TimeGrid:
        return TimeGrid(day_index, self.steps_per_hour, self.hours_per_day)

    def to_dict(self) -> dict:
        d = dataclasses.asdict(self)
        d["days"] = list(self.days)
        d["battery"] = self.battery.to_dict()
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "RunConfig":
        d = dict(d)
        if "days" in d and isinstance(d["days"], int):
            d["days"] = tuple(range(d["days"]))
        elif "days" in d:
            d["days"] = tuple(int(x) for x in d["days"])
        battery = d.pop("battery", None)
        unknown = set(d) - {f.name for f in dataclasses.fields(cls)}
        if unknown:
            raise InvalidParameter(f"unknown config keys: {sorted(unknown)}")
        if battery is not None:
            d["battery"] = BatterySpec.from_dict(battery)
        return cls(**d)

    @classmethod
    def from_file(cls, path: str | Path) -> "RunConfig":
        path = Path(path)
        if not path.exists():
            raise MissingFile(str(path))
        try:
            raw = json.loads(path.read_text())
        except json.JSONDecodeError as exc:
            raise InvalidParameter(f"config {path} is not valid JSON: {exc}") from exc
        if not isinstance(raw, dict):
            raise InvalidParameter("config root must be a JSON object")
        return cls.from_dict(raw)

    def config_hash(self) -> str:
        """Digest of everything that affects results.

        File locations (`outdir`, the two CSV paths) are excluded: moving a
        run directory or its inputs must not invalidate checkpoints, and the
        actual data content is covered by the bundle's data hash. So are the
        default `case_id` and `degradation_in_objective`: a checkpoint
        records the case and mode it was solved for, and its run directory
        is named after them.
        """
        d = self.to_dict()
        for key in ("outdir", "frequency_csv", "prices_csv", "case_id",
                    "degradation_in_objective"):
            d.pop(key, None)
        blob = json.dumps(d, sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()[:16]


# -- CSV input/output ----------------------------------------------------------

def _parse_ts(text: str, where: str) -> datetime:
    try:
        dt = datetime.fromisoformat(text.replace("Z", "+00:00"))
    except ValueError as exc:
        raise SchemaMismatch(f"bad timestamp {text!r} at {where}") from exc
    if dt.tzinfo is None:
        dt = dt.replace(tzinfo=timezone.utc)
    return dt.astimezone(timezone.utc)


def _fmt_ts(dt: datetime) -> str:
    return dt.astimezone(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")


def _parse_float(text: str, where: str) -> float:
    try:
        v = float(text)
    except ValueError as exc:
        raise SchemaMismatch(f"bad number {text!r} at {where}") from exc
    return v


def _read_rows(path: str | Path, expect_header: list[str]) -> list[list[str]]:
    path = Path(path)
    if not path.exists():
        raise MissingFile(str(path))
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows or [c.strip() for c in rows[0]] != expect_header:
        raise SchemaMismatch(
            f"{path}: expected header {','.join(expect_header)!r}")
    body = [r for r in rows[1:] if r and any(c.strip() for c in r)]
    for i, r in enumerate(body):
        if len(r) != len(expect_header):
            raise SchemaMismatch(f"{path}: row {i + 2} has {len(r)} cells")
    return body


def load_frequency(path: str | Path, grid: TimeGrid, days: int = 1,
                   max_gap_seconds: int = 300) -> FrequencyTrace:
    """Read a `timestamp,hz` CSV covering `days` consecutive grid days.

    Rows must advance by the grid step. Missing rows are filled by holding
    the previous value as long as the gap is at most `max_gap_seconds`,
    otherwise GapTooLong is raised. Samples outside the 45-55 Hz window
    raise OutOfRangeSample.
    """
    body = _read_rows(path, FREQUENCY_HEADER)
    if not body:
        raise SchemaMismatch(f"{path}: no data rows")
    n_expected = grid.n_steps * days
    step = timedelta(seconds=grid.step_seconds)
    t0 = _parse_ts(body[0][0], "row 2")

    values = np.empty(n_expected, dtype=np.float64)
    row_i = 0
    gap_run = 0
    for k in range(n_expected):
        slot = t0 + k * step
        if row_i < len(body):
            ts = _parse_ts(body[row_i][0], f"row {row_i + 2}")
            if ts < slot:
                raise SchemaMismatch(
                    f"{path}: duplicate or out-of-order timestamp {_fmt_ts(ts)}")
            if ts == slot:
                hz = _parse_float(body[row_i][1], f"row {row_i + 2}")
                if not (math.isfinite(hz)
                        and FREQ_WINDOW_HZ[0] <= hz <= FREQ_WINDOW_HZ[1]):
                    raise OutOfRangeSample(_fmt_ts(ts), hz)
                values[k] = hz
                row_i += 1
                gap_run = 0
                continue
        # missing slot: hold previous value if the running gap stays short
        gap_run += 1
        if k == 0 or gap_run * grid.step_seconds > max_gap_seconds:
            raise GapTooLong(_fmt_ts(slot))
        values[k] = values[k - 1]
    if row_i < len(body):
        raise SchemaMismatch(
            f"{path}: {len(body) - row_i} extra rows beyond "
            f"{n_expected} expected samples")
    return FrequencyTrace(values=values, steps_per_day=grid.n_steps)


def write_frequency(trace: FrequencyTrace, path: str | Path,
                    t0: datetime | None = None, step_seconds: int = 60) -> None:
    """Write a trace back to the `timestamp,hz` schema (round-trip exact)."""
    t0 = t0 or datetime(2022, 1, 1, tzinfo=timezone.utc)
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(FREQUENCY_HEADER)
        for k, v in enumerate(trace.values):
            w.writerow([_fmt_ts(t0 + timedelta(seconds=k * step_seconds)),
                        repr(float(v))])


def load_prices(path: str | Path, horizon_hours: int,
                grid_tariff: float = 0.0, tax: float = 0.0) -> PriceSeries:
    """Read the hourly price CSV; scalars come from the run configuration."""
    body = _read_rows(path, PRICE_HEADER)
    if len(body) < horizon_hours:
        raise MissingHour(len(body))
    if len(body) > horizon_hours:
        raise SchemaMismatch(
            f"{path}: {len(body)} rows for a {horizon_hours}-hour horizon")
    cols = {name: np.empty(horizon_hours) for name in PRICE_HEADER[1:]}
    prev = None
    for i, row in enumerate(body):
        ts = _parse_ts(row[0], f"row {i + 2}")
        if prev is not None and ts != prev + timedelta(hours=1):
            raise MissingHour(i)
        prev = ts
        for j, name in enumerate(PRICE_HEADER[1:], start=1):
            v = _parse_float(row[j], f"row {i + 2} col {name}")
            if not math.isfinite(v):
                raise SchemaMismatch(f"{path}: non-finite {name} in row {i + 2}")
            cols[name][i] = v
    for name in ("fcr_n", "fcr_du", "fcr_dd"):
        if np.any(cols[name] < 0.0):
            raise SchemaMismatch(f"{path}: negative capacity price in {name}")
    return PriceSeries(**cols, grid_tariff=grid_tariff, tax=tax)


def write_prices(prices: PriceSeries, path: str | Path,
                 t0: datetime | None = None) -> None:
    t0 = t0 or datetime(2022, 1, 1, tzinfo=timezone.utc)
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(PRICE_HEADER)
        for h in range(prices.n_hours):
            w.writerow([_fmt_ts(t0 + timedelta(hours=h))]
                       + [repr(float(getattr(prices, name)[h]))
                          for name in PRICE_HEADER[1:]])


# -- synthetic inputs ----------------------------------------------------------

# Discrete-time Ornstein-Uhlenbeck recipe of the synthetic frequency.
SYNTH_MEAN_HZ = 50.0
SYNTH_KAPPA = 0.15          # per-step pull toward the mean
SYNTH_SIGMA_HZ = 0.008      # per-step innovation
SYNTH_CLAMP_HZ = (49.0, 51.0)


def synth_frequency(seed: int, grid: TimeGrid, days: int = 1) -> FrequencyTrace:
    """Deterministic mean-reverting synthetic frequency trace."""
    rng = np.random.default_rng(seed)
    n = grid.n_steps * days
    noise = rng.standard_normal(n - 1) * SYNTH_SIGMA_HZ
    kappa, mean, (lo, hi) = SYNTH_KAPPA, SYNTH_MEAN_HZ, SYNTH_CLAMP_HZ

    def step(f: float, e: float) -> float:
        f = f + kappa * (mean - f) + e
        return lo if f < lo else hi if f > hi else f

    values = np.fromiter(itertools.accumulate(noise.tolist(), step,
                                              initial=mean),
                         dtype=float, count=n)
    return FrequencyTrace(values=values, steps_per_day=grid.n_steps)


def synth_prices(seed: int, hours: int, grid_tariff: float = 0.0,
                 tax: float = 0.0) -> PriceSeries:
    """Deterministic synthetic hourly prices with a daily spot shape.

    Companion to synth_frequency for desk-scale runs; magnitudes are chosen
    so that all three reserve markets are worth bidding into.
    """
    if hours < 1:
        raise InvalidParameter("hours must be >= 1")
    rng = np.random.default_rng(seed)
    h = np.arange(hours)
    spot = 60.0 + 25.0 * np.sin(2.0 * np.pi * (h % 24) / 24.0 - 2.0) \
        + rng.normal(0.0, 6.0, hours)
    up_spread = np.abs(rng.normal(12.0, 8.0, hours))
    dn_spread = np.abs(rng.normal(12.0, 8.0, hours))
    return PriceSeries(
        spot=spot,
        fcr_n=np.abs(rng.normal(18.0, 7.0, hours)),
        fcr_du=np.abs(rng.normal(14.0, 6.0, hours)),
        fcr_dd=np.abs(rng.normal(9.0, 5.0, hours)),
        up_reg=spot + up_spread,
        down_reg=spot - dn_spread,
        grid_tariff=grid_tariff, tax=tax)
