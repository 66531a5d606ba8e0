"""Command line interface: subcommands, exit codes, produced files."""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from importlib.metadata import EntryPoint

import pytest

from fcrsched import (
    RunConfig,
    battery_npv,
    build_day_model,
    linearize_calendar,
    load_bundle,
)
from fcrsched.cli import main
from fcrsched.orchestrate import day_inputs
from fcrsched.solvers import SolveResult, parse_mps


def write_config(tmp_path, name="cfg.json", **overrides) -> str:
    base = dict(
        case_id="FCR_N",
        degradation_in_objective=False,
        days=[0],
        steps_per_hour=2,
        hours_per_day=2,
        solver="scipy",
        mip_gap=1e-9,
        outdir=str(tmp_path / "out"),
    )
    base.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(base))
    return str(path)


# -- run -------------------------------------------------------------------------


def test_run_single_case(tmp_path, capsys):
    cfg = write_config(tmp_path)
    assert main(["run", "--config", cfg, "--synthetic-seed", "3"]) == 0
    out = capsys.readouterr().out
    assert "profit_eur_yr" in out
    assert "FCR_N" in out
    outdir = tmp_path / "out"
    assert (outdir / "meta.json").exists()
    assert (outdir / "FCR_N_nodeg" / "day_0000.json").exists()
    assert (outdir / "FCR_N_nodeg" / "horizon.json").exists()
    meta = json.loads((outdir / "meta.json").read_text())
    assert meta["synthetic_seed"] == 3
    assert meta["config"]["case_id"] == "FCR_N"


def test_run_case_and_mode_overrides(tmp_path):
    cfg = write_config(tmp_path, case_id="MULTI",
                       degradation_in_objective=True)
    rc = main(["run", "--config", cfg, "--synthetic-seed", "3",
               "--case", "WO_FCR", "--no-deg-objective"])
    assert rc == 0
    assert (tmp_path / "out" / "WO_FCR_nodeg" / "day_0000.json").exists()
    assert not (tmp_path / "out" / "MULTI_deg").exists()


def test_run_outdir_override(tmp_path):
    cfg = write_config(tmp_path)
    other = str(tmp_path / "elsewhere")
    assert main(["run", "--config", cfg, "--synthetic-seed", "3",
                 "--outdir", other]) == 0
    assert os.path.exists(os.path.join(other, "FCR_N_nodeg", "day_0000.json"))
    assert not (tmp_path / "out").exists()


def test_run_matrix_sweeps_everything(tmp_path, capsys):
    cfg = write_config(tmp_path)
    assert main(["run", "--config", cfg, "--synthetic-seed", "3",
                 "--matrix"]) == 0
    out = capsys.readouterr().out
    assert "aging_delta_pct_yr" in out  # both modes present: delta table shows
    for case in ("WO_FCR", "FCR_N", "FCR_DU", "FCR_DD", "MULTI"):
        for mode in ("deg", "nodeg"):
            assert (tmp_path / "out" / f"{case}_{mode}"
                    / "day_0000.json").exists(), (case, mode)


def test_run_missing_config_is_data_error(tmp_path, capsys):
    rc = main(["run", "--config", str(tmp_path / "absent.json"),
               "--synthetic-seed", "1"])
    assert rc == 4
    assert "error:" in capsys.readouterr().err


def test_run_bad_json_is_config_error(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{this is not json")
    assert main(["run", "--config", str(path), "--synthetic-seed", "1"]) == 2
    assert "error:" in capsys.readouterr().err


def test_run_unknown_key_is_config_error(tmp_path, capsys):
    cfg = write_config(tmp_path, typo_key=1)
    assert main(["run", "--config", cfg, "--synthetic-seed", "1"]) == 2
    assert "typo_key" in capsys.readouterr().err


def test_run_without_data_source_is_config_error(tmp_path, capsys):
    cfg = write_config(tmp_path)
    assert main(["run", "--config", cfg]) == 2
    assert "no frequency_csv" in capsys.readouterr().err


def test_run_solver_failure_exit_code(tmp_path, capsys, monkeypatch):
    cfg = write_config(tmp_path)

    def hopeless(model, time_limit_s=600.0, mip_gap=1e-6):
        return SolveResult(status="Infeasible", x=None, objective=None,
                           gap=float("inf"), wall_time=0.0, backend="fake")

    monkeypatch.setattr("fcrsched.orchestrate.get_backend",
                        lambda name: hopeless)
    assert main(["run", "--config", cfg, "--synthetic-seed", "3"]) == 3
    err = capsys.readouterr().err
    assert "day 0" in err
    assert (tmp_path / "out" / "FCR_N_nodeg" / "failure.json").exists()


# -- report ----------------------------------------------------------------------


def test_report_roundtrip(tmp_path, capsys):
    cfg = write_config(tmp_path)
    assert main(["run", "--config", cfg, "--synthetic-seed", "3"]) == 0
    capsys.readouterr()

    outdir = str(tmp_path / "out")
    assert main(["report", "--from", outdir]) == 0
    out = capsys.readouterr().out
    assert "profit_eur_yr" in out
    assert "report written:" in out
    report_dir = tmp_path / "out" / "report"
    for name in ("monetary.csv", "market_mix.csv", "bid_stats.csv",
                 "bid_histogram.csv", "days.csv", "manifest.json"):
        assert (report_dir / name).exists(), name


def test_report_without_run_is_data_error(tmp_path, capsys):
    os.makedirs(tmp_path / "empty")
    assert main(["report", "--from", str(tmp_path / "empty")]) == 4
    assert "meta.json" in capsys.readouterr().err


def test_report_with_meta_but_no_runs(tmp_path, capsys):
    cfg = write_config(tmp_path)
    outdir = tmp_path / "out"
    os.makedirs(outdir)
    (outdir / "meta.json").write_text(json.dumps(
        {"config": json.loads((tmp_path / "cfg.json").read_text()),
         "synthetic_seed": 1}))
    assert main(["report", "--from", str(outdir)]) == 4
    assert "no completed runs" in capsys.readouterr().err
    assert cfg  # config file itself was fine


@pytest.mark.parametrize("meta", [
    pytest.param('{"config": {"case_id": "MU', id="truncated"),
    pytest.param('{"synthetic_seed": 1}', id="no_config"),
])
def test_report_damaged_meta_is_data_error(tmp_path, capsys, meta):
    outdir = tmp_path / "out"
    os.makedirs(outdir)
    (outdir / "meta.json").write_text(meta)
    assert main(["report", "--from", str(outdir)]) == 4
    err = capsys.readouterr().err
    assert "error:" in err and "meta.json" in err


@pytest.mark.parametrize("damage", [
    pytest.param(lambda sol: sol.clear(), id="solution_empty"),
    pytest.param(lambda sol: sol.pop("soe"), id="field_missing"),
    pytest.param(lambda sol: sol.update(extra=1.0), id="unknown_key"),
])
def test_report_damaged_checkpoint_is_data_error(tmp_path, capsys, damage):
    cfg = write_config(tmp_path)
    assert main(["run", "--config", cfg, "--synthetic-seed", "3"]) == 0
    path = tmp_path / "out" / "FCR_N_nodeg" / "day_0000.json"
    payload = json.loads(path.read_text())
    damage(payload["solution"])
    path.write_text(json.dumps(payload))
    capsys.readouterr()
    assert main(["report", "--from", str(tmp_path / "out")]) == 4
    err = capsys.readouterr().err
    assert "error:" in err and "day_0000.json" in err and "day 0" in err


# -- export-model ------------------------------------------------------------------


def test_export_model_default_mps(tmp_path, capsys):
    cfg = write_config(tmp_path)
    assert main(["export-model", "--config", cfg, "--day", "0",
                 "--synthetic-seed", "3"]) == 0
    out = capsys.readouterr().out
    path = tmp_path / "out" / "day_0000.mps"
    assert path.exists()
    assert str(path) in out
    assert "variables" in out and "rows" in out
    assert "name map:" in out
    assert (tmp_path / "out" / "day_0000.mps.names.json").exists()
    model = parse_mps(str(path))  # exported file must parse back
    assert model.n_vars > 0


def test_export_model_lp_custom_path(tmp_path, capsys):
    cfg = write_config(tmp_path)
    out_path = str(tmp_path / "models" / "toy.lp")
    assert main(["export-model", "--config", cfg, "--day", "0",
                 "--synthetic-seed", "3", "--format", "lp",
                 "--out", out_path]) == 0
    assert os.path.exists(out_path)
    text = open(out_path).read()
    assert text.startswith(("\\", "Maximize", "Minimize"))


def test_export_model_day_beyond_configured_horizon(tmp_path):
    cfg = write_config(tmp_path, days=[0])
    assert main(["export-model", "--config", cfg, "--day", "2",
                 "--synthetic-seed", "3"]) == 0
    assert (tmp_path / "out" / "day_0002.mps").exists()


def test_export_model_negative_day(tmp_path, capsys):
    cfg = write_config(tmp_path)
    assert main(["export-model", "--config", cfg, "--day", "-1",
                 "--synthetic-seed", "3"]) == 2
    assert "--day" in capsys.readouterr().err


def test_export_model_deg_objective(tmp_path):
    cfg = write_config(tmp_path, degradation_in_objective=True)
    out_path = str(tmp_path / "deg.mps")
    assert main(["export-model", "--config", cfg, "--day", "0",
                 "--synthetic-seed", "3", "--out", out_path]) == 0
    model = parse_mps(out_path)
    assert any(name.startswith("d_cal") for name in model.var_names)
    assert any(name.startswith("y_cal") for name in model.var_names)
    # the calendar cost at SoE 0 comes back as the objective's constant
    assert model.objective_const < 0.0


def test_export_model_is_the_model_run_solved(tmp_path):
    cfg_path = write_config(tmp_path, case_id="MULTI", days=[0, 1],
                            degradation_in_objective=True)
    assert main(["run", "--config", cfg_path, "--synthetic-seed", "3"]) == 0
    day0 = json.loads((tmp_path / "out" / "MULTI_deg" / "day_0000.json")
                      .read_text())["solution"]
    out_path = str(tmp_path / "day1.mps")
    assert main(["export-model", "--config", cfg_path, "--day", "1",
                 "--synthetic-seed", "3", "--out", out_path]) == 0
    model = parse_mps(out_path)

    # day 1 starts from day 0's final SoE
    rows = {name: (coeffs, sense, rhs) for name, coeffs, sense, rhs
            in model.rows}
    assert rows["soe_rec[t=0]"][2] == day0["soe"][-1]
    # the calendar cost is priced at the mid-horizon age, 0 + 0.5 * 2 days
    cfg = RunConfig.from_file(cfg_path)
    spec = cfg.battery
    cal = linearize_calendar(spec, spec.temperature, 1.0,
                             cfg.grid_for(1).step_seconds, battery_npv(spec))
    sph = cfg.steps_per_hour
    for k, seg in enumerate(cal.segments):
        col = model.col(f"d_cal[h=0,k={k}]")
        assert model.objective[col] == pytest.approx(
            -sph * seg.slope_eur_per_mwh, rel=1e-12)
    hours = len(day0["ch_bl"])
    assert model.objective_const == pytest.approx(
        -hours * sph * cal.cost_at(0.0), rel=1e-12)
    # and it is, row by row, the model run built
    bundle = load_bundle(cfg, synthetic_seed=3)
    built = build_day_model(day_inputs(bundle, 1, day0["soe"][-1], 1.0,
                                       "MULTI", True))
    assert model.var_names == built.var_names
    assert {n: (sorted(c), s, r) for n, c, s, r in model.rows} == \
        {n: (sorted(c), s, r) for n, c, s, r in built.rows}
    assert model.objective == pytest.approx(built.objective, rel=1e-12)
    assert model.objective_const == pytest.approx(built.objective_const,
                                                  rel=1e-12)


def test_export_model_without_checkpoint_starts_from_initial_soe(tmp_path):
    cfg_path = write_config(tmp_path, days=[0, 1])
    out_path = str(tmp_path / "day1.mps")
    assert main(["export-model", "--config", cfg_path, "--day", "1",
                 "--synthetic-seed", "3", "--out", out_path]) == 0
    rows = {name: rhs for name, _, _, rhs in parse_mps(out_path).rows}
    assert rows["soe_rec[t=0]"] == 0.5   # initial_soe of the 1 MWh default


# -- declared entry point -----------------------------------------------------------

PYPROJECT = os.path.join(os.path.dirname(__file__), os.pardir, "pyproject.toml")


def check_help(proc):
    assert proc.returncode == 0, proc.stderr
    for sub in ("run", "report", "export-model"):
        assert sub in proc.stdout


def test_console_script_help(tmp_path):
    """Run the ``fcr-sched`` script declared in ``pyproject.toml``.

    The launcher is built here the way pip generates it, so the check needs
    no install: it holds from a checkout with ``fcrsched`` importable.
    """
    tomllib = pytest.importorskip("tomllib")
    with open(PYPROJECT, "rb") as fh:
        scripts = tomllib.load(fh)["project"].get("scripts", {})
    assert "fcr-sched" in scripts
    entry = EntryPoint(name="fcr-sched", value=scripts["fcr-sched"],
                       group="console_scripts")
    assert callable(entry.load())
    launcher = (f"import sys; from {entry.module} import {entry.attr}; "
                f"sys.argv[0] = 'fcr-sched'; sys.exit({entry.attr}())")

    def launch(*args):
        return subprocess.run([sys.executable, "-c", launcher, *args],
                              capture_output=True, text=True)

    proc = launch("--help")
    check_help(proc)
    assert proc.stdout.startswith("usage: fcr-sched")
    # main() returns the exit code; the launcher must pass it on.
    os.makedirs(tmp_path / "empty")
    proc = launch("report", "--from", str(tmp_path / "empty"))
    assert proc.returncode == 4, proc.stderr


@pytest.mark.skipif(shutil.which("fcr-sched") is None,
                    reason="no fcr-sched launcher on PATH (package not installed)")
def test_installed_console_script_help():
    check_help(subprocess.run(["fcr-sched", "--help"], capture_output=True,
                              text=True))


def test_module_invocation(tmp_path):
    cfg = write_config(tmp_path)
    proc = subprocess.run(
        [sys.executable, "-m", "fcrsched.cli", "run", "--config", cfg,
         "--synthetic-seed", "3"],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert "profit_eur_yr" in proc.stdout
