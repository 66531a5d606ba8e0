"""Statistics, tables and deterministic report files."""

from __future__ import annotations

import hashlib
import json
import math
import os
from pathlib import Path

import numpy as np
import pytest

from fcrsched import (
    DaySolution,
    HistogramSpec,
    HorizonResult,
    bid_histogram,
    histogram,
    load_bundle,
    quartiles,
    run_matrix,
    write_report,
)
from fcrsched.errors import InvalidParameter
from fcrsched.report import (
    BID_STAT_COLUMNS,
    DAY_COLUMNS,
    MONETARY_COLUMNS,
    aging_delta_table,
    bid_stats_table,
    data_hashes,
    day_table,
    format_table,
    market_mix_table,
    monetary_table,
    write_csv,
)

from helpers import toy_config


# -- quartiles -------------------------------------------------------------------


def test_quartiles_pinned():
    assert quartiles([1.0, 2.0, 3.0, 4.0]) == (1.0, 1.75, 2.5, 3.25, 4.0)
    assert quartiles([5.0, 1.0, 3.0, 2.0, 4.0]) == (1.0, 2.0, 3.0, 4.0, 5.0)
    assert quartiles([7.0]) == (7.0, 7.0, 7.0, 7.0, 7.0)
    assert quartiles([2.0, 2.0, 2.0]) == (2.0, 2.0, 2.0, 2.0, 2.0)


def test_quartiles_match_linear_interpolation():
    rng = np.random.default_rng(3)
    for _ in range(25):
        vals = rng.normal(size=rng.integers(1, 40))
        mn, q1, med, q3, mx = quartiles(vals)
        ref = np.quantile(vals, [0.0, 0.25, 0.5, 0.75, 1.0])
        np.testing.assert_allclose([mn, q1, med, q3, mx], ref, atol=1e-12)


def test_quartiles_empty_raises():
    with pytest.raises(InvalidParameter):
        quartiles([])


# -- histograms ------------------------------------------------------------------


def test_histogram_spec_validation():
    spec = HistogramSpec(0.0, 1.0, 4)
    np.testing.assert_allclose(spec.edges, [0.0, 0.25, 0.5, 0.75, 1.0])
    with pytest.raises(InvalidParameter):
        HistogramSpec(0.0, 1.0, 0)
    with pytest.raises(InvalidParameter):
        HistogramSpec(1.0, 1.0, 4)
    with pytest.raises(InvalidParameter):
        HistogramSpec(2.0, 1.0, 4)


def test_histogram_bin_semantics():
    spec = HistogramSpec(0.0, 1.0, 4)
    # bins are [lo, hi): an edge value belongs to the bin it starts
    np.testing.assert_array_equal(histogram([0.0, 0.25, 0.5, 0.75], spec),
                                  [1, 1, 1, 1])
    # ... except the global upper edge, which is closed
    np.testing.assert_array_equal(histogram([1.0], spec), [0, 0, 0, 1])
    # out-of-range values join the edge bins instead of vanishing
    np.testing.assert_array_equal(histogram([-3.0, 7.5], spec), [1, 0, 0, 1])
    np.testing.assert_array_equal(histogram([], spec), [0, 0, 0, 0])


def test_histogram_counts_every_value():
    rng = np.random.default_rng(11)
    vals = rng.uniform(-0.5, 1.5, size=500)
    spec = HistogramSpec(0.0, 1.0, 7)
    assert histogram(vals, spec).sum() == 500


# -- fixture results built from hand-made day solutions ----------------------------


def make_solution(day_index, *, bid_n=0.0, bid_du=0.0, bid_dd=0.0,
                  r_da=10.0, r_n=5.0, r_du=2.0, r_dd=1.0, c_da=4.0,
                  cal_pct=0.002, cyc_pct=0.001, profit=12.5, hours=4):
    z = np.zeros(hours)
    return DaySolution(
        day_index=day_index, steps_per_hour=1, hours=hours, dt_seconds=3600.0,
        s0=0.5, ch_bl=z, ds_bl=z,
        bid_n=np.full(hours, bid_n), bid_du=np.full(hours, bid_du),
        bid_dd=np.full(hours, bid_dd), soe=np.full(hours, 0.5),
        r_da=r_da, r_n=r_n, r_du=r_du, r_dd=r_dd, c_da=c_da, c_deg_lin=0.5,
        objective=13.5, cal_cost=1.0, cyc_cost=0.5, cal_pct=cal_pct,
        cyc_pct=cyc_pct, profit=profit)


def make_result(cfg, case="MULTI", deg=False, days=None):
    days = days if days is not None else (make_solution(0, bid_n=0.3),)
    return HorizonResult(case_id=case, degradation_in_objective=deg,
                         config=cfg, days=tuple(days))


def test_bid_histogram_defaults_and_zero_filter(tmp_path):
    cfg = toy_config(tmp_path)
    res = make_result(cfg, days=(make_solution(0, bid_n=0.55),
                                 make_solution(1, bid_n=0.0)))
    spec, counts = bid_histogram(res, "N")
    assert (spec.lo, spec.hi, spec.n_bins) == (0.0, 1.0, 10)
    assert counts.sum() == 4          # only the nonzero bids are counted
    assert counts[5] == 4             # 0.55 falls in [0.5, 0.6)

    spec_du, counts_du = bid_histogram(res, "DU")
    assert (spec_du.lo, spec_du.hi) == (0.0, 2.0)  # up/down markets bid to 2x
    assert counts_du.sum() == 0


# -- tables ----------------------------------------------------------------------


def test_monetary_table_rows_and_order(tmp_path):
    cfg = toy_config(tmp_path)
    results = {
        ("MULTI", "nodeg"): make_result(cfg, "MULTI", False),
        ("WO_FCR", "nodeg"): make_result(cfg, "WO_FCR", False),
        ("MULTI", "deg"): make_result(cfg, "MULTI", True),
    }
    rows = monetary_table(results)
    # canonical order: case declaration order, deg before nodeg
    assert [(r["case"], r["mode"]) for r in rows] == [
        ("WO_FCR", "nodeg"), ("MULTI", "deg"), ("MULTI", "nodeg")]
    row = rows[0]
    assert set(row) == set(MONETARY_COLUMNS)
    assert row["profit_eur_yr"] == pytest.approx(12.5 * 365.0)
    assert row["r_da_eur_yr"] == pytest.approx(10.0 * 365.0)
    assert row["aging_pct_yr"] == pytest.approx(0.003 * 365.0)
    assert row["lifetime_yr"] == pytest.approx(20.0 / (0.003 * 365.0))


def test_market_mix_table(tmp_path):
    cfg = toy_config(tmp_path)
    res = make_result(cfg, days=(make_solution(0, bid_n=0.3),
                                 make_solution(1)))
    rows = market_mix_table({("MULTI", "nodeg"): res})
    assert len(rows) == 1
    row = rows[0]
    assert row["total_hours"] == 8
    assert row["N"] == 4
    assert row["None"] == 4
    assert row["All"] == 0


def test_bid_stats_table(tmp_path):
    cfg = toy_config(tmp_path)
    days = (make_solution(0, bid_n=0.2), make_solution(1, bid_n=0.4))
    rows = bid_stats_table({("FCR_N", "nodeg"): make_result(cfg, "FCR_N",
                                                            days=days)})
    assert [r["market"] for r in rows] == ["N", "DU", "DD"]
    n_row = rows[0]
    assert set(n_row) == set(BID_STAT_COLUMNS)
    assert n_row["hours_active"] == 8
    assert n_row["share_active"] == pytest.approx(1.0)
    assert n_row["mean_mw"] == pytest.approx(0.3)
    assert n_row["min_mw"] == pytest.approx(0.2)
    assert n_row["median_mw"] == pytest.approx(0.3)
    assert n_row["max_mw"] == pytest.approx(0.4)
    # markets never bid into report as all-zero rows, not NaN
    assert rows[1]["hours_active"] == 0
    assert rows[1]["mean_mw"] == 0.0
    assert rows[1]["share_active"] == 0.0


def test_aging_delta_table(tmp_path):
    cfg = toy_config(tmp_path)
    results = {
        ("MULTI", "deg"): make_result(
            cfg, "MULTI", True,
            days=(make_solution(0, cal_pct=0.001, cyc_pct=0.001, profit=10.0),)),
        ("MULTI", "nodeg"): make_result(
            cfg, "MULTI", False,
            days=(make_solution(0, cal_pct=0.002, cyc_pct=0.002, profit=11.0),)),
        ("FCR_N", "deg"): make_result(cfg, "FCR_N", True),  # unpaired: skipped
    }
    rows = aging_delta_table(results)
    assert len(rows) == 1
    row = rows[0]
    assert row["case"] == "MULTI"
    assert row["aging_delta_pct_yr"] == pytest.approx(-0.002 * 365.0)
    assert row["profit_delta_eur_yr"] == pytest.approx(-365.0)


def test_day_table(tmp_path):
    cfg = toy_config(tmp_path)
    res = make_result(cfg, days=(make_solution(0), make_solution(3)))
    rows = day_table({("MULTI", "nodeg"): res})
    assert list(rows[0]) == list(DAY_COLUMNS)
    assert [r["day"] for r in rows] == [0, 3]
    assert rows[0]["profit_eur"] == pytest.approx(12.5)
    assert rows[0]["status"] == "Optimal"
    assert rows[0]["soe_end_mwh"] == pytest.approx(0.5)


# -- rendering -------------------------------------------------------------------


def test_format_table_pinned():
    rows = [{"case": "MULTI", "profit": 1234.5678, "days": 7},
            {"case": "WO_FCR", "profit": -3.0, "days": 365}]
    text = format_table(rows, ("case", "profit", "days"))
    assert text.splitlines() == [
        "case    profit   days",
        "------  -------  ----",
        "MULTI   1234.57     7",
        "WO_FCR    -3.00   365",
    ]


def test_format_table_handles_empty_and_special():
    text = format_table([], ("a", "bb"))
    assert text.splitlines() == ["a  bb", "-  --"]
    text = format_table([{"a": math.inf, "bb": math.nan}], ("a", "bb"))
    assert "inf" in text and "nan" in text


def test_write_csv_deterministic(tmp_path):
    rows = [{"a": 1, "b": 0.1, "c": "x"}, {"a": 2, "b": float("inf"), "c": ""}]
    p1, p2 = str(tmp_path / "one.csv"), str(tmp_path / "two.csv")
    write_csv(p1, rows, ("a", "b", "c"))
    write_csv(p2, rows, ("a", "b", "c"))
    b1 = Path(p1).read_bytes()
    assert b1 == Path(p2).read_bytes()
    assert b1 == b"a,b,c\n1,0.1,x\n2,inf,\n"


# -- full report -----------------------------------------------------------------


def run_small_matrix(tmp_path):
    cfg = toy_config(tmp_path / "runs", case_id="FCR_N",
                     hours_per_day=2, steps_per_hour=2)
    bundle = load_bundle(cfg, synthetic_seed=7)
    results = run_matrix(bundle, cases=("FCR_N",), modes=(True, False))
    return bundle, results


def test_write_report_bytes_reproducible(tmp_path):
    bundle, results = run_small_matrix(tmp_path)
    out_a = str(tmp_path / "rep_a")
    out_b = str(tmp_path / "rep_b")
    manifest_a = write_report(results, out_a, bundle=bundle)
    manifest_b = write_report(results, out_b, bundle=bundle)

    names = sorted(os.listdir(out_a))
    assert names == sorted(os.listdir(out_b))
    assert "manifest.json" in names and "monetary.csv" in names
    for name in names:
        with open(os.path.join(out_a, name), "rb") as fh:
            bytes_a = fh.read()
        with open(os.path.join(out_b, name), "rb") as fh:
            bytes_b = fh.read()
        assert bytes_a == bytes_b, f"{name} differs between identical runs"
    assert Path(manifest_a).read_bytes() == Path(manifest_b).read_bytes()


def test_write_report_manifest_digests(tmp_path):
    bundle, results = run_small_matrix(tmp_path)
    outdir = str(tmp_path / "rep")
    manifest_path = write_report(results, outdir, bundle=bundle)
    with open(manifest_path) as fh:
        manifest = json.load(fh)

    assert manifest["config_hash"] == bundle.config.config_hash()
    assert set(manifest["runs"]) == {"FCR_N_deg", "FCR_N_nodeg"}
    for name, digest in manifest["files"].items():
        with open(os.path.join(outdir, name), "rb") as fh:
            assert hashlib.sha256(fh.read()).hexdigest() == digest
    assert manifest["data"] == data_hashes(bundle)
    for digest in manifest["data"].values():
        assert len(digest) == 16


def test_write_report_empty_raises(tmp_path):
    with pytest.raises(InvalidParameter):
        write_report({}, str(tmp_path))


def test_data_digests_are_pinned(tmp_path):
    # every checkpoint records the bundle's data hash, so digests that
    # change their bytes make every checkpoint stale
    bundle = load_bundle(toy_config(tmp_path, days=(0, 1)), synthetic_seed=7)
    assert bundle.data_hash() == "a58108da23e20617"
    assert data_hashes(bundle) == {"frequency": "9f9d6fea547445fc",
                                   "prices": "49aac38d820da915"}


def test_data_hashes_sensitivity(tmp_path):
    cfg = toy_config(tmp_path)
    a = data_hashes(load_bundle(cfg, synthetic_seed=7))
    b = data_hashes(load_bundle(cfg, synthetic_seed=7))
    c = data_hashes(load_bundle(cfg, synthetic_seed=9))
    assert a == b
    assert a["frequency"] != c["frequency"]
    assert a["prices"] != c["prices"]
