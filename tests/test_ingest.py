"""Data contracts: grids, traces, prices, battery spec, config, CSV IO."""

from __future__ import annotations

import dataclasses
import json
import math
from datetime import datetime, timedelta, timezone

import numpy as np
import pytest

from fcrsched import (
    AlignmentError,
    BatterySpec,
    FrequencyTrace,
    GapTooLong,
    InvalidParameter,
    MissingFile,
    MissingHour,
    OutOfRangeSample,
    PriceSeries,
    RunConfig,
    SchemaMismatch,
    TimeGrid,
    load_frequency,
    load_prices,
    synth_frequency,
    synth_prices,
    write_frequency,
    write_prices,
)

T0 = datetime(2022, 1, 1, tzinfo=timezone.utc)


# -- grids and traces -----------------------------------------------------------

def test_time_grid_properties():
    g = TimeGrid(0, 4, 24)
    assert g.step_seconds == 900
    assert g.n_steps == 96
    assert g.dt_hours == 0.25


@pytest.mark.parametrize("kwargs", [
    dict(day_index=-1, steps_per_hour=4),
    dict(day_index=0, steps_per_hour=0),
    dict(day_index=0, steps_per_hour=7),      # does not divide 3600
    dict(day_index=0, steps_per_hour=4, hours=0),
])
def test_time_grid_validation(kwargs):
    with pytest.raises(InvalidParameter):
        TimeGrid(**kwargs)


def test_frequency_trace_validation():
    with pytest.raises(AlignmentError):
        FrequencyTrace(values=np.full(10, 50.0), steps_per_day=4)
    with pytest.raises(OutOfRangeSample):
        FrequencyTrace(values=np.array([50.0, 44.0]), steps_per_day=2)
    with pytest.raises(OutOfRangeSample):
        FrequencyTrace(values=np.array([50.0, np.nan]), steps_per_day=2)
    tr = FrequencyTrace(values=np.full(8, 50.0), steps_per_day=4)
    assert tr.n_days == 2
    np.testing.assert_array_equal(tr.day_values(1), np.full(4, 50.0))
    with pytest.raises(AlignmentError):
        tr.day_values(2)


def test_price_series_validation():
    ones = np.ones(4)
    with pytest.raises(InvalidParameter):
        PriceSeries(spot=ones, fcr_n=np.ones(3), fcr_du=ones, fcr_dd=ones,
                    up_reg=ones, down_reg=ones)
    with pytest.raises(InvalidParameter):
        PriceSeries(spot=ones, fcr_n=-ones, fcr_du=ones, fcr_dd=ones,
                    up_reg=ones, down_reg=ones)
    with pytest.raises(InvalidParameter):
        PriceSeries(spot=ones * np.inf, fcr_n=ones, fcr_du=ones, fcr_dd=ones,
                    up_reg=ones, down_reg=ones)


def test_price_day_slice_preserves_scalars():
    pr = synth_prices(1, 48, grid_tariff=5.0, tax=2.0)
    day1 = pr.day_slice(1, 24)
    assert day1.n_hours == 24
    assert day1.grid_tariff == 5.0 and day1.tax == 2.0
    np.testing.assert_array_equal(day1.spot, pr.spot[24:48])
    with pytest.raises(AlignmentError):
        pr.day_slice(2, 24)


# -- battery spec ---------------------------------------------------------------

def test_battery_spec_soe_window():
    spec = BatterySpec()
    assert spec.soe_min == pytest.approx(0.1)
    assert spec.soe_max == pytest.approx(0.9)
    spec2 = BatterySpec(capacity=2.0, soc_min=0.2, soc_max=0.8)
    assert spec2.soe_min == pytest.approx(0.4)
    assert spec2.soe_max == pytest.approx(1.6)


def float_fields(cls) -> list[str]:
    return [f.name for f in dataclasses.fields(cls)
            if f.type in ("float", "float | None")]


@pytest.mark.parametrize("kwargs", [
    dict(capacity=0.0),
    dict(soc_min=0.5, soc_max=0.5),
    dict(p_min=2.0, p_max=1.0),
    dict(eta_ch=0.0),
    dict(eol_retained=1.0),
    dict(min_bid_n=5.0),
    dict(lifetime_years=0),
    # NaN passes a range check; `replacement_cost`, `om_cost`,
    # `salvage_ratio` and `temperature` once took NaN
    *({name: value} for name in float_fields(BatterySpec)
      for value in (math.nan, math.inf)),
    # above FCR-N's bid cap, p_max, though within FCR-D's, 2*p_max
    dict(min_bid_n=1.5),
])
def test_battery_spec_validation(kwargs):
    with pytest.raises(InvalidParameter):
        BatterySpec(**kwargs)


def test_minimum_bid_is_checked_against_its_market_cap():
    spec = BatterySpec(min_bid_du=1.5, min_bid_dd=2.0)
    assert [spec.bid_cap(m) for m in ("N", "DU", "DD")] == [1.0, 2.0, 2.0]


# -- run config -----------------------------------------------------------------

def test_run_config_defaults_and_grid():
    cfg = RunConfig(days=(0, 1), steps_per_hour=4)
    assert cfg.initial_soe == pytest.approx(0.5)
    g = cfg.grid_for(1)
    assert g.day_index == 1 and g.n_steps == 96


def test_run_config_validation():
    with pytest.raises(InvalidParameter):
        RunConfig(case_id="NOPE")
    with pytest.raises(InvalidParameter):
        RunConfig(days=())
    with pytest.raises(InvalidParameter):
        RunConfig(initial_soe=0.95)   # outside the 10-90% window
    with pytest.raises(InvalidParameter):
        RunConfig(mip_gap=-1.0)


def test_run_config_dict_roundtrip(tmp_path):
    cfg = RunConfig(case_id="FCR_N", days=(0, 2), steps_per_hour=4,
                    hours_per_day=6, grid_tariff=11.18, tax=0.5,
                    battery=BatterySpec(capacity=2.0))
    clone = RunConfig.from_dict(cfg.to_dict())
    assert clone == cfg
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(cfg.to_dict()))
    assert RunConfig.from_file(p) == cfg


def test_run_config_days_as_count():
    cfg = RunConfig.from_dict({"days": 3})
    assert cfg.days == (0, 1, 2)


def test_run_config_unknown_key_and_missing_file(tmp_path):
    with pytest.raises(InvalidParameter):
        RunConfig.from_dict({"not_a_key": 1})
    with pytest.raises(MissingFile):
        RunConfig.from_file(tmp_path / "absent.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    with pytest.raises(InvalidParameter):
        RunConfig.from_file(bad)


@pytest.mark.parametrize("battery", [{"interest_rate": 0.0},
                                     {"interest_rate": float("nan")},
                                     {"npv_alpha": -1.0},
                                     {"npv_alpha": float("nan")}])
def test_run_config_refuses_nonpositive_npv_rates(battery):
    # the battery NPV divides by both; refused at load, not after a solve
    (key,) = battery
    with pytest.raises(InvalidParameter, match=f"{key} must be > 0"):
        RunConfig.from_dict({"battery": battery})


@pytest.mark.parametrize("value", [math.nan, math.inf])
@pytest.mark.parametrize("key", float_fields(RunConfig))
def test_run_config_refuses_non_finite_fields(key, value):
    with pytest.raises(InvalidParameter):
        RunConfig.from_dict({key: value})


@pytest.mark.parametrize("key", ["relax_step_binaries",
                                 "efficiency_on_activation",
                                 "tax_on_discharge", "arrhenius_positive"])
def test_run_config_rejects_removed_keys(key):
    # the step binaries follow from p_min, and the day model has one
    # formulation; an old config naming a removed switch fails loudly
    with pytest.raises(InvalidParameter, match=f"unknown config keys.*{key}"):
        RunConfig.from_dict({key: True})


def test_config_hash_ignores_file_locations():
    a = RunConfig(outdir="runs/a", frequency_csv="x.csv")
    b = RunConfig(outdir="runs/b", frequency_csv="y.csv", prices_csv="p.csv")
    assert a.config_hash() == b.config_hash()
    # checkpoints key the case and the mode themselves
    for key, value in (("case_id", "FCR_DU"),
                       ("degradation_in_objective", True)):
        assert RunConfig(**{key: value}).config_hash() == a.config_hash()
    c = RunConfig(steps_per_hour=4)
    assert c.config_hash() != a.config_hash()


# -- CSV round trips and failure taxonomy ---------------------------------------

def test_frequency_roundtrip(tmp_path):
    grid = TimeGrid(0, 4, 6)
    trace = synth_frequency(9, grid)
    p = tmp_path / "freq.csv"
    write_frequency(trace, p, t0=T0, step_seconds=grid.step_seconds)
    back = load_frequency(p, grid)
    np.testing.assert_array_equal(back.values, trace.values)


def _freq_rows(grid, values, t0=T0):
    rows = ["timestamp,hz"]
    for k, v in enumerate(values):
        ts = t0 + timedelta(seconds=k * grid.step_seconds)
        rows.append(f"{ts.strftime('%Y-%m-%dT%H:%M:%SZ')},{float(v)!r}")
    return rows


def test_frequency_gap_fill_and_gap_too_long(tmp_path):
    grid = TimeGrid(0, 12, 1)  # 12 steps of 300 s
    vals = np.full(12, 50.02)
    rows = _freq_rows(grid, vals)
    del rows[4]  # one missing step of 300 s: exactly max_gap_seconds
    p = tmp_path / "gap.csv"
    p.write_text("\n".join(rows) + "\n")
    tr = load_frequency(p, grid, max_gap_seconds=300)
    assert tr.values[3] == tr.values[2]  # held value
    del rows[4]  # second consecutive missing step: 600 s gap
    p.write_text("\n".join(rows) + "\n")
    with pytest.raises(GapTooLong):
        load_frequency(p, grid, max_gap_seconds=300)


def test_frequency_error_taxonomy(tmp_path):
    grid = TimeGrid(0, 4, 1)
    p = tmp_path / "f.csv"
    with pytest.raises(MissingFile):
        load_frequency(p, grid)
    p.write_text("wrong,header\n")
    with pytest.raises(SchemaMismatch):
        load_frequency(p, grid)
    rows = _freq_rows(grid, [50.0, 50.0, 44.0, 50.0])
    p.write_text("\n".join(rows) + "\n")
    with pytest.raises(OutOfRangeSample):
        load_frequency(p, grid)
    rows = _freq_rows(grid, [50.0] * 4)
    rows[2] = rows[1]  # duplicate timestamp
    p.write_text("\n".join(rows) + "\n")
    with pytest.raises(SchemaMismatch):
        load_frequency(p, grid, max_gap_seconds=3600)
    rows = _freq_rows(grid, [50.0] * 6)  # two rows too many
    p.write_text("\n".join(rows) + "\n")
    with pytest.raises(SchemaMismatch):
        load_frequency(p, grid)


def test_prices_roundtrip(tmp_path):
    pr = synth_prices(3, 24)
    p = tmp_path / "prices.csv"
    write_prices(pr, p, t0=T0)
    back = load_prices(p, 24, grid_tariff=7.0, tax=1.0)
    for name in ("spot", "fcr_n", "fcr_du", "fcr_dd", "up_reg", "down_reg"):
        np.testing.assert_array_equal(getattr(back, name), getattr(pr, name))
    assert back.grid_tariff == 7.0 and back.tax == 1.0


def test_prices_error_taxonomy(tmp_path):
    pr = synth_prices(4, 24)
    p = tmp_path / "prices.csv"
    write_prices(pr, p, t0=T0)
    with pytest.raises(MissingHour):
        load_prices(p, 48)                   # horizon longer than the file
    with pytest.raises(SchemaMismatch):
        load_prices(p, 12)                   # file longer than the horizon
    lines = p.read_text().splitlines()
    del lines[5]                             # hour jump inside the file
    short = tmp_path / "jump.csv"
    short.write_text("\n".join(lines) + "\n")
    with pytest.raises(MissingHour):
        load_prices(short, 23)


# -- synthetic generators -------------------------------------------------------

def test_synth_frequency_deterministic_and_in_window():
    grid = TimeGrid(0, 60, 24)
    a = synth_frequency(5, grid, days=2)
    b = synth_frequency(5, grid, days=2)
    np.testing.assert_array_equal(a.values, b.values)
    assert a.n_days == 2
    assert np.all(a.values >= 49.0) and np.all(a.values <= 51.0)
    c = synth_frequency(6, grid, days=2)
    assert not np.array_equal(a.values, c.values)


def test_synth_prices_deterministic_and_valid():
    a = synth_prices(2, 48, grid_tariff=3.0, tax=1.5)
    b = synth_prices(2, 48, grid_tariff=3.0, tax=1.5)
    for name in ("spot", "fcr_n", "fcr_du", "fcr_dd", "up_reg", "down_reg"):
        np.testing.assert_array_equal(getattr(a, name), getattr(b, name))
    assert a.n_hours == 48
    assert np.all(a.fcr_n >= 0) and np.all(a.fcr_du >= 0) and np.all(a.fcr_dd >= 0)
    assert np.all(a.up_reg >= a.spot) and np.all(a.down_reg <= a.spot)
    with pytest.raises(InvalidParameter):
        synth_prices(1, 0)
