"""Horizon runs: day-by-day optimization with state carry-over.

`run_case` optimizes each configured day in order, carrying the final
state of energy of one day into the next, post-calculating the exact
nonlinear aging of every solved day, and checkpointing each day to disk so
interrupted horizons resume where they stopped. `run_matrix` sweeps the
case x degradation-mode grid used by the comparison tables.

Reported profit always charges the post-calculated aging (the nonlinear
model evaluated on the realized schedule), whether or not the linearized
degradation cost was part of the objective.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import json
import logging
import math
import os
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .degradation import (
    linearize_calendar,
    linearize_cycle,
    post_calculate_aging,
)
from .droop import energy_content
from .errors import (
    AlignmentError,
    ConfigError,
    DataError,
    InvalidParameter,
    MissingFile,
    SolverFailure,
)
from .ingest import (
    CASES,
    PRICE_HEADER,
    FrequencyTrace,
    PriceSeries,
    RunConfig,
    load_frequency,
    load_prices,
    synth_frequency,
    synth_prices,
)
from .milp import (
    DayInputs,
    DaySolution,
    build_day_model,
    extract_day_solution,
    step_net_power,
    step_soe,
    validate_solution,
)
from .solvers import get_backend

log = logging.getLogger("fcrsched")

MIX_LABELS = ("None", "N", "DU", "DD", "N+DU", "N+DD", "DU+DD", "All")
# A bid counts as active above this size (MW); smaller ones are solver noise.
BID_ACTIVE_MW = 1e-9


@dataclass(frozen=True)
class DataBundle:
    """One horizon worth of aligned input data."""

    frequency: FrequencyTrace
    prices: PriceSeries
    config: RunConfig

    def __post_init__(self):
        cfg = self.config
        need_days = max(cfg.days) + 1
        if self.frequency.steps_per_day != cfg.grid_for(0).n_steps:
            raise AlignmentError(
                f"trace has {self.frequency.steps_per_day} steps/day, the "
                f"configuration expects {cfg.grid_for(0).n_steps}")
        if self.frequency.n_days < need_days:
            raise AlignmentError(
                f"trace covers {self.frequency.n_days} days, "
                f"day {need_days - 1} was requested")
        if self.prices.n_hours < need_days * cfg.hours_per_day:
            raise AlignmentError(
                f"prices cover {self.prices.n_hours} hours, "
                f"{need_days * cfg.hours_per_day} are needed")

    def data_hash(self) -> str:
        """Digest of the actual numeric inputs (frequency and prices)."""
        h = hashlib.sha256()
        h.update(self.frequency.values.tobytes())
        for name in PRICE_HEADER[1:]:
            arr = getattr(self.prices, name)
            h.update(np.ascontiguousarray(arr).tobytes())
        return h.hexdigest()[:16]


def load_bundle(config: RunConfig, synthetic_seed: int | None = None) -> DataBundle:
    """Assemble the bundle from CSV paths or from the synthetic generators."""
    need_days = max(config.days) + 1
    grid0 = config.grid_for(0)
    if config.frequency_csv:
        freq = load_frequency(config.frequency_csv, grid0, days=need_days,
                              max_gap_seconds=config.max_gap_seconds)
    elif synthetic_seed is not None:
        freq = synth_frequency(synthetic_seed, grid0, days=need_days)
    else:
        raise ConfigError(
            "no frequency_csv configured and no synthetic seed given")
    if config.prices_csv:
        prices = load_prices(config.prices_csv,
                             need_days * config.hours_per_day,
                             grid_tariff=config.grid_tariff, tax=config.tax)
    elif synthetic_seed is not None:
        prices = synth_prices(synthetic_seed + 1,
                              need_days * config.hours_per_day,
                              grid_tariff=config.grid_tariff, tax=config.tax)
    else:
        raise ConfigError("no prices_csv configured and no synthetic seed given")
    return DataBundle(frequency=freq, prices=prices, config=config)


@dataclass(frozen=True)
class HorizonResult:
    """All solved days of one (case, degradation mode) run plus aggregates."""

    case_id: str
    degradation_in_objective: bool
    config: RunConfig
    days: tuple[DaySolution, ...]

    @property
    def degmode(self) -> str:
        return "deg" if self.degradation_in_objective else "nodeg"

    @property
    def n_days(self) -> int:
        return len(self.days)

    def totals(self) -> dict[str, float]:
        out = {key: 0.0 for key in
               ("r_da", "r_n", "r_du", "r_dd", "r_fcr", "c_da", "c_deg_lin",
                "cal_cost", "cyc_cost", "cal_pct", "cyc_pct", "aging_pct",
                "profit")}
        for sol in self.days:
            out["r_da"] += sol.r_da
            out["r_n"] += sol.r_n
            out["r_du"] += sol.r_du
            out["r_dd"] += sol.r_dd
            out["r_fcr"] += sol.r_fcr
            out["c_da"] += sol.c_da
            out["c_deg_lin"] += sol.c_deg_lin
            out["cal_cost"] += sol.cal_cost
            out["cyc_cost"] += sol.cyc_cost
            out["cal_pct"] += sol.cal_pct
            out["cyc_pct"] += sol.cyc_pct
            out["profit"] += sol.profit
        out["aging_pct"] = out["cal_pct"] + out["cyc_pct"]
        return out

    def annualized(self) -> dict[str, float]:
        if not self.days:
            raise InvalidParameter("cannot annualize an empty horizon")
        factor = 365.0 / self.n_days
        return {key: val * factor for key, val in self.totals().items()}

    @property
    def aging_pct_per_year(self) -> float:
        return self.annualized()["aging_pct"]

    @property
    def lifetime_years(self) -> float:
        """Years until retained capacity hits end of life at this aging rate."""
        headroom = (1.0 - self.config.battery.eol_retained) * 100.0
        rate = self.aging_pct_per_year
        return math.inf if rate <= 0.0 else headroom / rate

    def market_mix(self) -> dict[str, int]:
        return classify_market_mix(self.days)

    def bid_series(self, market: str) -> np.ndarray:
        field = {"N": "bid_n", "DU": "bid_du", "DD": "bid_dd"}[market]
        if not self.days:
            return np.zeros(0)
        return np.concatenate([getattr(sol, field) for sol in self.days])


def classify_market_mix(days) -> dict[str, int]:
    """Count hours by the set of markets bid into (8 fixed labels)."""
    counts = {label: 0 for label in MIX_LABELS}
    for sol in days:
        for h in range(sol.hours):
            active = []
            if sol.bid_n[h] > BID_ACTIVE_MW:
                active.append("N")
            if sol.bid_du[h] > BID_ACTIVE_MW:
                active.append("DU")
            if sol.bid_dd[h] > BID_ACTIVE_MW:
                active.append("DD")
            if not active:
                label = "None"
            elif len(active) == 3:
                label = "All"
            else:
                label = "+".join(active)
            counts[label] += 1
    return counts


# -- checkpointing -----------------------------------------------------------

def _run_dir(config: RunConfig, case_id: str, deg: bool) -> str:
    return os.path.join(config.outdir, f"{case_id}_{'deg' if deg else 'nodeg'}")


def _checkpoint_path(run_dir: str, day: int) -> str:
    return os.path.join(run_dir, f"day_{day:04d}.json")


def _write_checkpoint(path: str, config_hash: str, data_hash: str,
                      case_id: str, deg: bool, sol: DaySolution) -> None:
    payload = {"config_hash": config_hash, "data_hash": data_hash,
               "case_id": case_id, "degradation_in_objective": deg,
               "day": sol.day_index, "solution": sol.to_dict()}
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="ascii") as fh:
        json.dump(payload, fh, sort_keys=True)
        fh.write("\n")
    os.replace(tmp, path)


# `_read_day`'s reason for a day whose checkpoint file does not exist
_NEVER_SOLVED = "was never solved"


class _Checkpoint(NamedTuple):
    """What one read of a day's checkpoint found."""

    solution: DaySolution | None    # the solution `run_case` would reuse
    why: str                        # why it would not, when it is None
    data_hash: str | None           # the data hash the file records


def _read_day(config: RunConfig, config_hash: str, data_hash: str | None,
              case_id: str, deg: bool, k: int, s0: float) -> _Checkpoint:
    """Read the checkpoint of the k-th configured day once.

    `run_case` reuses it when it records the configuration hash
    `config_hash`, the data hash `data_hash` (any, when None), the case,
    the degradation mode and the day, and started from `s0`; otherwise
    `why` says which of these differs. A file that cannot be read or
    holds no JSON object, or a matching one whose solution is missing or
    does not rebuild a `DaySolution`, raises DataError naming the file.
    """
    day = config.days[k]
    path = _checkpoint_path(_run_dir(config, case_id, deg), day)
    try:
        with open(path, encoding="ascii") as fh:
            payload = json.load(fh)
    except FileNotFoundError:
        return _Checkpoint(None, _NEVER_SOLVED, None)
    except OSError as exc:
        raise DataError(f"{path}: not readable ({exc})") from exc
    except ValueError as exc:
        raise DataError(f"{path}: not a JSON checkpoint ({exc})") from exc
    if not isinstance(payload, dict):
        raise DataError(f"{path}: not a JSON checkpoint object")
    recorded = payload.get("data_hash")
    expected = {"config_hash": config_hash,
                "data_hash": recorded if data_hash is None else data_hash,
                "case_id": case_id, "degradation_in_objective": deg,
                "day": day}
    for field, want in expected.items():
        got = payload.get(field)
        if got == want:
            continue
        if field == "config_hash":
            why = (f"was produced under a different configuration "
                   f"(configuration hash {got}, not {want})")
        elif field == "data_hash":
            why = (f"was solved on a different data set than day "
                   f"{config.days[0]} (data hash {got}, not {want})")
        else:
            why = f"records {field} {got!r}, not {want!r}"
        return _Checkpoint(None, why, recorded)
    try:
        sol = DaySolution.from_dict(payload["solution"])
    except (KeyError, TypeError, ValueError) as exc:
        raise DataError(f"{path}: the checkpoint of day {day} is damaged "
                        f"({type(exc).__name__}: {exc})") from exc
    if abs(sol.s0 - s0) > 1e-9:     # carry-over changed upstream
        start = "the configured initial SoE" if k == 0 \
            else f"the final SoE of day {config.days[k - 1]}"
        return _Checkpoint(None, f"started from SoE {sol.s0!r}, but {start} "
                                 f"is {s0!r}", recorded)
    return _Checkpoint(sol, "", recorded)


# -- one day's model inputs ------------------------------------------------------

def calendar_age(config: RunConfig, k: int) -> float:
    """Battery age (days) at which the k-th day's calendar cost is priced:
    the mid-horizon age, or the day's own age with `relinearize_daily`."""
    if config.relinearize_daily:
        return config.start_age_days + float(k)
    return config.start_age_days + 0.5 * len(config.days)


def day_inputs(bundle: DataBundle, day: int, s0: float, age: float,
               case_id: str, deg: bool) -> DayInputs:
    """The inputs of one day's model, as `run_case` and `export-model` build
    them: energy contents from the day's trace and, in deg mode, the
    calendar cost linearized at `age` days and the cycle cost."""
    cfg = bundle.config
    spec = cfg.battery
    grid = cfg.grid_for(day)
    cal_lin = cyc_lin = None
    if deg:
        cal_lin = linearize_calendar(spec, age, grid.step_seconds)
        cyc_lin = linearize_cycle(spec)
    day_trace = FrequencyTrace(bundle.frequency.day_values(day), grid.n_steps)
    return DayInputs(
        grid=grid,
        prices=bundle.prices.day_slice(day, cfg.hours_per_day),
        contents=energy_content(day_trace, grid),
        spec=spec, s0=s0, case_id=case_id,
        cal_lin=cal_lin, cyc_lin=cyc_lin,
        force_zero_baseline=cfg.force_zero_baseline)


def carried_soe(bundle: DataBundle, case_id: str, deg: bool, k: int) -> float:
    """Start SoE of the k-th configured day: the final SoE of day k-1 when,
    walking the days before it from `initial_soe`, `run_case` would reuse
    the checkpoint of every one of them; else `initial_soe`."""
    cfg = bundle.config
    chash, dhash = cfg.config_hash(), bundle.data_hash()
    s0 = cfg.initial_soe
    for j in range(k):
        try:
            sol = _read_day(cfg, chash, dhash, case_id, deg, j, s0).solution
        except DataError:
            sol = None
        if sol is None:
            return cfg.initial_soe
        s0 = float(sol.soe[-1])
    return s0


# -- the horizon loop ---------------------------------------------------------

def run_case(bundle: DataBundle, case_id: str | None = None,
             degradation_in_objective: bool | None = None,
             resume: bool = True) -> HorizonResult:
    """Optimize every configured day of one case, in order.

    On solver failure the completed days remain checkpointed under the run
    directory and `SolverFailure` (carrying the failing day index) is raised.
    """
    cfg = bundle.config
    case = cfg.case_id if case_id is None else case_id
    if case not in CASES:
        raise InvalidParameter(f"unknown case {case!r}")
    deg = cfg.degradation_in_objective if degradation_in_objective is None \
        else degradation_in_objective
    spec = cfg.battery
    backend = get_backend(cfg.solver)
    run_dir = _run_dir(cfg, case, deg)
    os.makedirs(run_dir, exist_ok=True)
    chash = cfg.config_hash()
    dhash = bundle.data_hash()

    s0 = cfg.initial_soe
    solutions: list[DaySolution] = []
    solved: list[DaySolution] = []      # days not taken from a checkpoint
    for k, day in enumerate(cfg.days):
        age_k = cfg.start_age_days + float(k)
        ckpt = _checkpoint_path(run_dir, day)
        sol = None
        if resume:
            try:
                sol = _read_day(cfg, chash, dhash, case, deg, k, s0).solution
            except DataError as exc:
                log.warning("%s; solving the day again", exc)
        if sol is None:
            inputs = day_inputs(bundle, day, s0, calendar_age(cfg, k), case,
                                deg)
            model = build_day_model(inputs)
            result = backend(model, time_limit_s=cfg.time_limit_s,
                             mip_gap=cfg.mip_gap)
            if result.status != "Optimal" or result.x is None:
                _write_failure(run_dir, day, result.status, result.message)
                raise SolverFailure(
                    day, f"solver ended with {result.status} ({result.message})")
            report = validate_solution(model, result.x)
            if not report.ok:
                worst = report.worst_by_family()
                _write_failure(run_dir, day, "InvalidSolution", str(worst))
                raise SolverFailure(day, f"solution violates {worst}")
            sol = extract_day_solution(model, result, inputs)
            log.info("day %d case %s (%s): objective %.2f EUR, gap %.2e, "
                     "%d nodes in %d rounds in %.2fs", day, case,
                     "deg" if deg else "nodeg", sol.objective, sol.gap,
                     sol.nodes, sol.rounds, result.wall_time)
            cal_eur, cyc_eur, cal_pct, cyc_pct = post_calculate_aging(
                step_soe(sol, inputs.contents, spec),
                step_net_power(sol, inputs.contents),
                sol.dt_seconds, spec, age_k)
            profit = sol.r_da + sol.r_fcr - sol.c_da - cal_eur - cyc_eur
            sol = dataclasses.replace(sol, cal_cost=cal_eur, cyc_cost=cyc_eur,
                                      cal_pct=cal_pct, cyc_pct=cyc_pct,
                                      profit=profit)
            _write_checkpoint(ckpt, chash, dhash, case, deg, sol)
            solved.append(sol)
        else:
            # the checkpoint already holds this day's post-calculated aging
            log.info("day %d case %s: checkpoint reused", day, case)
        solutions.append(sol)
        s0 = float(sol.soe[-1])

    result = HorizonResult(case_id=case, degradation_in_objective=deg,
                           config=cfg, days=tuple(solutions))
    _write_horizon_summary(run_dir, result, chash, solved)
    # every day is done, so an earlier run's failure no longer holds
    with contextlib.suppress(FileNotFoundError):
        os.remove(os.path.join(run_dir, "failure.json"))
    return result


def _write_failure(run_dir: str, day: int, status: str, message: str) -> None:
    path = os.path.join(run_dir, "failure.json")
    with open(path, "w", encoding="ascii") as fh:
        json.dump({"day": day, "status": status, "message": message}, fh,
                  sort_keys=True)
        fh.write("\n")


def _write_horizon_summary(run_dir: str, result: HorizonResult,
                           config_hash: str,
                           solved: list[DaySolution]) -> None:
    """`horizon.json`: the run's aggregates, plus the solver seconds, nodes
    and rounds spent in this call and how many days came from
    checkpoints."""
    payload = {
        "config_hash": config_hash,
        "case_id": result.case_id,
        "degradation_in_objective": result.degradation_in_objective,
        "days": [sol.day_index for sol in result.days],
        "totals": result.totals(),
        "annualized": result.annualized(),
        "aging_pct_per_year": result.aging_pct_per_year,
        "lifetime_years": result.lifetime_years,
        "market_mix": result.market_mix(),
        "solver_s": sum(sol.wall_time for sol in solved),
        "nodes": sum(sol.nodes for sol in solved),
        "rounds": sum(sol.rounds for sol in solved),
        "reused_days": result.n_days - len(solved),
    }
    with open(os.path.join(run_dir, "horizon.json"), "w", encoding="ascii") as fh:
        json.dump(payload, fh, sort_keys=True, indent=2, allow_nan=True)
        fh.write("\n")


def load_horizon(config: RunConfig, case_id: str,
                 degradation_in_objective: bool) -> HorizonResult:
    """Rebuild a HorizonResult from its checkpoints (for reporting).

    Every day must be one `run_case` would reuse: same configuration, the
    data of the first day's checkpoint, and the previous day's final SoE.
    A damaged checkpoint raises DataError, which `run_case` would re-solve.
    """
    run_dir = _run_dir(config, case_id, degradation_in_objective)
    chash = config.config_hash()
    dhash = None
    s0 = config.initial_soe
    solutions = []
    for k, day in enumerate(config.days):
        sol, why, dhash = _read_day(config, chash, dhash, case_id,
                                    degradation_in_objective, k, s0)
        path = _checkpoint_path(run_dir, day)
        if why == _NEVER_SOLVED:
            raise MissingFile(f"{path} (day {day} {why})")
        if sol is None:
            raise ConfigError(f"{path}: day {day} {why}")
        solutions.append(sol)
        s0 = float(sol.soe[-1])
    return HorizonResult(case_id=case_id,
                         degradation_in_objective=degradation_in_objective,
                         config=config, days=tuple(solutions))


def run_matrix(bundle: DataBundle, cases=CASES, modes=(True, False),
               resume: bool = True) -> dict[tuple[str, str], HorizonResult]:
    """Sweep cases x degradation modes; keys are (case_id, "deg"/"nodeg")."""
    out: dict[tuple[str, str], HorizonResult] = {}
    for case in cases:
        for deg in modes:
            res = run_case(bundle, case_id=case, degradation_in_objective=deg,
                           resume=resume)
            out[(case, res.degmode)] = res
    return out
