"""Result tables, bid statistics and byte-deterministic report files.

Quartiles and histograms are computed by an explicit sort-and-interpolate
implementation here (not delegated to numpy's quantile machinery) so the
reported statistics are pinned by this module's own definition:
quantile position = p * (n - 1) with linear interpolation between ranks.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameter
from .ingest import CASES, PRICE_HEADER
from .orchestrate import BID_ACTIVE_MW, MIX_LABELS, DataBundle, HorizonResult

MONETARY_COLUMNS = ("case", "mode", "profit_eur_yr", "r_da_eur_yr",
                    "r_n_eur_yr", "r_du_eur_yr", "r_dd_eur_yr", "c_da_eur_yr",
                    "cal_cost_eur_yr", "cyc_cost_eur_yr", "aging_pct_yr",
                    "lifetime_yr")
MIX_COLUMNS = ("case", "mode", "total_hours") + MIX_LABELS
BID_STAT_COLUMNS = ("case", "mode", "market", "hours_active", "share_active",
                    "mean_mw", "min_mw", "q1_mw", "median_mw", "q3_mw",
                    "max_mw")
DELTA_COLUMNS = ("case", "aging_pct_yr_deg", "aging_pct_yr_nodeg",
                 "aging_delta_pct_yr", "profit_eur_yr_deg",
                 "profit_eur_yr_nodeg", "profit_delta_eur_yr")
DAY_COLUMNS = ("case", "mode", "day", "profit_eur", "r_da_eur", "r_n_eur",
               "r_du_eur", "r_dd_eur", "c_da_eur", "cal_pct", "cyc_pct",
               "soe_end_mwh", "objective_eur", "status")
HISTOGRAM_COLUMNS = ("case", "mode", "market", "bin_lo_mw", "bin_hi_mw",
                     "count")


def quartiles(values) -> tuple[float, float, float, float, float]:
    """(min, q1, median, q3, max) with linear rank interpolation."""
    arr = sorted(float(v) for v in values)
    if not arr:
        raise InvalidParameter("quartiles of an empty sequence")

    def at(p: float) -> float:
        pos = p * (len(arr) - 1)
        lo = math.floor(pos)
        hi = math.ceil(pos)
        frac = pos - lo
        return arr[lo] * (1.0 - frac) + arr[hi] * frac

    return arr[0], at(0.25), at(0.5), at(0.75), arr[-1]


@dataclass(frozen=True)
class HistogramSpec:
    """Fixed, explicit binning; values outside [lo, hi] join the edge bins."""

    lo: float
    hi: float
    n_bins: int

    def __post_init__(self):
        if self.n_bins < 1 or not self.lo < self.hi:
            raise InvalidParameter("need lo < hi and at least one bin")

    @property
    def edges(self) -> np.ndarray:
        return np.linspace(self.lo, self.hi, self.n_bins + 1)


def histogram(values, spec: HistogramSpec) -> np.ndarray:
    """Counts per bin; bins are [lo, hi) except the last, which is closed."""
    counts = np.zeros(spec.n_bins, dtype=int)
    width = (spec.hi - spec.lo) / spec.n_bins
    for v in values:
        k = int(math.floor((float(v) - spec.lo) / width))
        counts[min(max(k, 0), spec.n_bins - 1)] += 1
    return counts


def bid_histogram(result: HorizonResult,
                  market: str) -> tuple[HistogramSpec, np.ndarray]:
    """Histogram of active awarded bids of one market over the horizon, in
    ten bins up to the market's bid cap."""
    spec = HistogramSpec(0.0, result.config.battery.bid_cap(market), 10)
    bids = result.bid_series(market)
    return spec, histogram(bids[bids > BID_ACTIVE_MW], spec)


# -- tables ------------------------------------------------------------------

def _sorted_results(results: dict[tuple[str, str], HorizonResult]):
    order = {case: i for i, case in enumerate(CASES)}
    mode_order = {"deg": 0, "nodeg": 1}
    return sorted(results.items(),
                  key=lambda kv: (order.get(kv[0][0], 99), mode_order.get(kv[0][1], 9)))


def monetary_table(results: dict[tuple[str, str], HorizonResult]) -> list[dict]:
    rows = []
    for (case, mode), res in _sorted_results(results):
        ann = res.annualized()
        rows.append({
            "case": case, "mode": mode,
            "profit_eur_yr": ann["profit"],
            "r_da_eur_yr": ann["r_da"],
            "r_n_eur_yr": ann["r_n"],
            "r_du_eur_yr": ann["r_du"],
            "r_dd_eur_yr": ann["r_dd"],
            "c_da_eur_yr": ann["c_da"],
            "cal_cost_eur_yr": ann["cal_cost"],
            "cyc_cost_eur_yr": ann["cyc_cost"],
            "aging_pct_yr": ann["aging_pct"],
            "lifetime_yr": res.lifetime_years,
        })
    return rows


def market_mix_table(results: dict[tuple[str, str], HorizonResult]) -> list[dict]:
    rows = []
    for (case, mode), res in _sorted_results(results):
        mix = res.market_mix()
        row = {"case": case, "mode": mode,
               "total_hours": sum(mix.values())}
        row.update(mix)
        rows.append(row)
    return rows


def bid_stats_table(results: dict[tuple[str, str], HorizonResult]) -> list[dict]:
    """Per-market statistics of nonzero bids (size in MW, activity share)."""
    rows = []
    for (case, mode), res in _sorted_results(results):
        total_hours = sum(sol.hours for sol in res.days)
        for market in ("N", "DU", "DD"):
            bids = res.bid_series(market)
            active = bids[bids > BID_ACTIVE_MW]
            if active.size:
                mn, q1, med, q3, mx = quartiles(active)
                mean = float(active.mean())
            else:
                mn = q1 = med = q3 = mx = mean = 0.0
            rows.append({
                "case": case, "mode": mode, "market": market,
                "hours_active": int(active.size),
                "share_active": active.size / total_hours if total_hours else 0.0,
                "mean_mw": mean, "min_mw": mn, "q1_mw": q1, "median_mw": med,
                "q3_mw": q3, "max_mw": mx,
            })
    return rows


def aging_delta_table(results: dict[tuple[str, str], HorizonResult]) -> list[dict]:
    """Pair deg/nodeg runs of each case; negative delta means pricing
    degradation in the objective reduced realized aging."""
    rows = []
    for case in CASES:
        with_deg = results.get((case, "deg"))
        without = results.get((case, "nodeg"))
        if with_deg is None or without is None:
            continue
        a_deg = with_deg.aging_pct_per_year
        a_no = without.aging_pct_per_year
        p_deg = with_deg.annualized()["profit"]
        p_no = without.annualized()["profit"]
        rows.append({
            "case": case,
            "aging_pct_yr_deg": a_deg,
            "aging_pct_yr_nodeg": a_no,
            "aging_delta_pct_yr": a_deg - a_no,
            "profit_eur_yr_deg": p_deg,
            "profit_eur_yr_nodeg": p_no,
            "profit_delta_eur_yr": p_deg - p_no,
        })
    return rows


def day_table(results: dict[tuple[str, str], HorizonResult]) -> list[dict]:
    rows = []
    for (case, mode), res in _sorted_results(results):
        for sol in res.days:
            rows.append({
                "case": case, "mode": mode, "day": sol.day_index,
                "profit_eur": sol.profit, "r_da_eur": sol.r_da,
                "r_n_eur": sol.r_n, "r_du_eur": sol.r_du,
                "r_dd_eur": sol.r_dd, "c_da_eur": sol.c_da,
                "cal_pct": sol.cal_pct, "cyc_pct": sol.cyc_pct,
                "soe_end_mwh": float(sol.soe[-1]),
                "objective_eur": sol.objective, "status": sol.status,
            })
    return rows


# -- rendering and files ------------------------------------------------------

def _cell(value) -> str:
    if isinstance(value, bool):
        return str(value)
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, float):
        if math.isnan(value):
            return "nan"
        if math.isinf(value):
            return "inf" if value > 0 else "-inf"
        return f"{value:.2f}"
    return str(value)


def format_table(rows: list[dict], columns) -> str:
    """Fixed-width text table for terminal output."""
    header = [str(c) for c in columns]
    body = [[_cell(row.get(c, "")) for c in columns] for row in rows]
    widths = [max(len(header[i]), *(len(r[i]) for r in body)) if body
              else len(header[i]) for i in range(len(header))]
    lines = ["  ".join(h.ljust(w) for h, w in zip(header, widths)).rstrip()]
    lines.append("  ".join("-" * w for w in widths))
    for r in body:
        lines.append("  ".join(v.rjust(w) if _is_numeric(v) else v.ljust(w)
                               for v, w in zip(r, widths)).rstrip())
    return "\n".join(lines)


def _is_numeric(text: str) -> bool:
    try:
        float(text)
        return True
    except ValueError:
        return False


def _csv_cell(value) -> str:
    if isinstance(value, bool):
        return str(value)
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def write_csv(path: str, rows: list[dict], columns) -> None:
    """Plain deterministic CSV (LF endings, repr-formatted floats)."""
    lines = [",".join(columns)]
    for row in rows:
        lines.append(",".join(_csv_cell(row.get(c, "")) for c in columns))
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write("\n".join(lines))
        fh.write("\n")


def data_hashes(bundle: DataBundle) -> dict[str, str]:
    freq = hashlib.sha256(bundle.frequency.values.tobytes()).hexdigest()[:16]
    h = hashlib.sha256()
    for name in PRICE_HEADER[1:]:
        arr = getattr(bundle.prices, name)
        h.update(np.ascontiguousarray(arr).tobytes())
    return {"frequency": freq, "prices": h.hexdigest()[:16]}


def write_report(results: dict[tuple[str, str], HorizonResult], outdir: str,
                 bundle: DataBundle | None = None) -> str:
    """Write every table as CSV plus a manifest; returns the manifest path.

    Output bytes depend only on the results and data, so re-running the
    report over the same runs reproduces identical files.
    """
    if not results:
        raise InvalidParameter("write_report needs at least one result")
    os.makedirs(outdir, exist_ok=True)
    files = {
        "monetary.csv": (monetary_table(results), MONETARY_COLUMNS),
        "market_mix.csv": (market_mix_table(results), MIX_COLUMNS),
        "bid_stats.csv": (bid_stats_table(results), BID_STAT_COLUMNS),
        "aging_delta.csv": (aging_delta_table(results), DELTA_COLUMNS),
        "days.csv": (day_table(results), DAY_COLUMNS),
    }
    hist_rows = []
    for (case, mode), res in _sorted_results(results):
        for market in ("N", "DU", "DD"):
            spec, counts = bid_histogram(res, market)
            edges = spec.edges
            for k in range(spec.n_bins):
                hist_rows.append({
                    "case": case, "mode": mode, "market": market,
                    "bin_lo_mw": float(edges[k]),
                    "bin_hi_mw": float(edges[k + 1]),
                    "count": int(counts[k]),
                })
    files["bid_histogram.csv"] = (hist_rows, HISTOGRAM_COLUMNS)

    digests = {}
    for name, (rows, columns) in sorted(files.items()):
        path = os.path.join(outdir, name)
        write_csv(path, rows, columns)
        with open(path, "rb") as fh:
            digests[name] = hashlib.sha256(fh.read()).hexdigest()

    any_result = next(iter(results.values()))
    manifest = {
        "config_hash": any_result.config.config_hash(),
        "files": digests,
        "runs": {f"{case}_{mode}": {
            "days": res.n_days,
            "profit_eur_yr": res.annualized()["profit"],
            "aging_pct_yr": res.aging_pct_per_year,
        } for (case, mode), res in _sorted_results(results)},
    }
    if bundle is not None:
        manifest["data"] = data_hashes(bundle)
    path = os.path.join(outdir, "manifest.json")
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(json.dumps(manifest, sort_keys=True, indent=2))
        fh.write("\n")
    return path
