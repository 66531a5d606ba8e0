"""Command line interface.

Subcommands:

* ``fcr-sched run --config cfg.json [--case X] [--no-deg-objective]
  [--synthetic-seed N] [--matrix]`` - optimize the configured horizon and
  print the result tables. ``--matrix`` sweeps all cases and both
  degradation modes instead of the single configured combination.
* ``fcr-sched report --from <outdir>`` - rebuild tables from a previous
  run's checkpoints and write the CSV report files.
* ``fcr-sched export-model --config cfg.json --day D [--format mps]`` -
  write one day's optimization model to a solver-exchange file: the model
  ``run`` solves for that day, started from day D-1's checkpointed final
  SoE when ``run`` would reuse the checkpoint of every configured day
  before D (else from ``initial_soe``).

Exit codes: 0 success, 2 configuration error, 3 solver error, 4 data error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import os
import sys

from .errors import (
    ConfigError,
    DataError,
    FcrSchedError,
    InfeasibleBounds,
)
from .ingest import CASES, RunConfig
from .milp import build_day_model
from .orchestrate import (
    _run_dir,
    calendar_age,
    carried_soe,
    day_inputs,
    load_bundle,
    load_horizon,
    run_case,
    run_matrix,
)
from .report import (
    DELTA_COLUMNS,
    MIX_COLUMNS,
    MONETARY_COLUMNS,
    aging_delta_table,
    format_table,
    market_mix_table,
    monetary_table,
    write_report,
)
from .solvers import EXPORT_FORMATS, export_model

log = logging.getLogger("fcrsched")


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", required=True, help="JSON run configuration")
    p.add_argument("--case", choices=CASES, default=None,
                   help="override the configured case")
    p.add_argument("--no-deg-objective", action="store_true",
                   help="drop the linearized degradation cost from the objective")
    p.add_argument("--synthetic-seed", type=int, default=None, metavar="N",
                   help="generate synthetic inputs instead of reading CSVs")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fcr-sched",
        description="Day-ahead baseline and FCR capacity bid optimizer "
                    "for a battery storage unit.")
    parser.add_argument("-v", "--verbose", action="store_true",
                        help="log per-day progress to stderr")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="optimize the configured horizon")
    _add_common(p_run)
    p_run.add_argument("--matrix", action="store_true",
                       help="run every case in both degradation modes")
    p_run.add_argument("--no-resume", action="store_true",
                       help="ignore existing checkpoints")
    p_run.add_argument("--outdir", default=None,
                       help="override the configured output directory")
    p_run.set_defaults(func=cmd_run)

    p_rep = sub.add_parser("report", help="rebuild tables from checkpoints")
    p_rep.add_argument("--from", dest="from_dir", required=True,
                       help="output directory of a previous run")
    p_rep.set_defaults(func=cmd_report)

    p_exp = sub.add_parser("export-model",
                           help="write one day's model to a file")
    _add_common(p_exp)
    p_exp.add_argument("--day", type=int, required=True,
                       help="day index to export")
    p_exp.add_argument("--format", choices=EXPORT_FORMATS, default="mps",
                       help="mps: free MPS with registry-derived names; "
                            "mps-fixed: free MPS with generated 8-character "
                            "names; lp: CPLEX-style LP text")
    p_exp.add_argument("--out", default=None,
                       help="output path (default: <outdir>/day_<D>.<ext>)")
    p_exp.set_defaults(func=cmd_export)
    return parser


def _load_config(args) -> RunConfig:
    cfg = RunConfig.from_file(args.config)
    if getattr(args, "outdir", None):
        cfg = dataclasses.replace(cfg, outdir=args.outdir)
    return cfg


def _write_meta(cfg: RunConfig, synthetic_seed: int | None) -> None:
    os.makedirs(cfg.outdir, exist_ok=True)
    payload = {"config": cfg.to_dict(), "synthetic_seed": synthetic_seed}
    with open(os.path.join(cfg.outdir, "meta.json"), "w",
              encoding="ascii") as fh:
        fh.write(json.dumps(payload, sort_keys=True, indent=2))
        fh.write("\n")


def _print_tables(results: dict) -> None:
    """Print the monetary, market-mix and (when both modes ran) aging-delta
    tables."""
    print(format_table(monetary_table(results), MONETARY_COLUMNS))
    print()
    print(format_table(market_mix_table(results), MIX_COLUMNS))
    delta = aging_delta_table(results)
    if delta:
        print()
        print(format_table(delta, DELTA_COLUMNS))


def cmd_run(args) -> int:
    cfg = _load_config(args)
    bundle = load_bundle(cfg, synthetic_seed=args.synthetic_seed)
    _write_meta(cfg, args.synthetic_seed)
    resume = not args.no_resume
    if args.matrix:
        results = run_matrix(bundle, resume=resume)
    else:
        deg = False if args.no_deg_objective else None
        res = run_case(bundle, case_id=args.case,
                       degradation_in_objective=deg, resume=resume)
        results = {(res.case_id, res.degmode): res}
    _print_tables(results)
    return 0


def cmd_report(args) -> int:
    meta_path = os.path.join(args.from_dir, "meta.json")
    if not os.path.exists(meta_path):
        raise DataError(f"{meta_path} not found; is this a run directory?")
    try:
        with open(meta_path, encoding="ascii") as fh:
            meta = json.load(fh)
    except ValueError as exc:
        raise DataError(f"{meta_path} is not valid JSON: {exc}") from exc
    if not isinstance(meta, dict) or not isinstance(meta.get("config"), dict):
        raise DataError(f"{meta_path} holds no run configuration")
    cfg = RunConfig.from_dict(meta["config"])
    cfg = dataclasses.replace(cfg, outdir=args.from_dir)
    results = {}
    for case in CASES:
        for deg in (True, False):
            run_dir = _run_dir(cfg, case, deg)
            if os.path.exists(os.path.join(run_dir, "horizon.json")):
                res = load_horizon(cfg, case, deg)
                results[(case, res.degmode)] = res
    if not results:
        raise DataError(f"no completed runs under {args.from_dir}")
    _print_tables(results)
    manifest = write_report(results, os.path.join(args.from_dir, "report"))
    print(f"\nreport written: {manifest}")
    return 0


def cmd_export(args) -> int:
    cfg = _load_config(args)
    if args.day < 0:
        raise ConfigError("--day must be >= 0")
    if args.day not in cfg.days:
        cfg = dataclasses.replace(cfg, days=tuple(sorted(set(cfg.days)
                                                         | {args.day})))
    bundle = load_bundle(cfg, synthetic_seed=args.synthetic_seed)
    case = args.case or cfg.case_id
    deg = not args.no_deg_objective and cfg.degradation_in_objective
    k = cfg.days.index(args.day)
    inputs = day_inputs(bundle, args.day, carried_soe(bundle, case, deg, k),
                        calendar_age(cfg, k), case, deg)
    model = build_day_model(inputs)
    ext = "lp" if args.format == "lp" else "mps"
    out = args.out or os.path.join(cfg.outdir, f"day_{args.day:04d}.{ext}")
    os.makedirs(os.path.dirname(out) or ".", exist_ok=True)
    sidecar = export_model(model, out, args.format)
    print(f"wrote {out} ({model.n_vars} variables, "
          f"{model.n_binaries} binaries, {model.n_rows} rows)")
    print(f"name map: {sidecar}")
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    logging.basicConfig(stream=sys.stderr, format="%(message)s",
                        level=logging.INFO if args.verbose else logging.WARNING)
    try:
        return args.func(args)
    except FcrSchedError as exc:
        print(f"error: {exc}", file=sys.stderr)
        if isinstance(exc, (ConfigError, InfeasibleBounds)):
            return 2
        return 4 if isinstance(exc, DataError) else 3


if __name__ == "__main__":
    sys.exit(main())
