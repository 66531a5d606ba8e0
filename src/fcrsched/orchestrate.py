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

import numpy as np

from .degradation import (
    battery_npv,
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
        for arr in (self.prices.spot, self.prices.fcr_n, self.prices.fcr_du,
                    self.prices.fcr_dd, self.prices.up_reg,
                    self.prices.down_reg):
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


def _load_checkpoint(path: str) -> dict:
    """A checkpoint's payload; empty when absent. A file that holds no JSON
    object raises DataError."""
    try:
        with open(path, encoding="ascii") as fh:
            payload = json.load(fh)
    except OSError:
        return {}
    except ValueError as exc:
        raise DataError(f"{path}: not a JSON checkpoint ({exc})") from exc
    if not isinstance(payload, dict):
        raise DataError(f"{path}: not a JSON checkpoint object")
    return payload


def _read_checkpoint(path: str, config_hash: str, data_hash: str,
                     case_id: str, deg: bool, day: int,
                     s0: float | None) -> DaySolution | None:
    """Load a matching checkpoint; None when absent or stale.

    With `s0` given, a checkpoint that started from another SoE is stale.
    A checkpoint that holds no JSON object, or a matching one whose
    solution is missing or does not rebuild a `DaySolution`, raises
    DataError naming the file.
    """
    payload = _load_checkpoint(path)
    if (payload.get("config_hash") != config_hash
            or payload.get("data_hash") != data_hash
            or payload.get("case_id") != case_id
            or payload.get("degradation_in_objective") != deg
            or payload.get("day") != day):
        return None
    try:
        sol = DaySolution.from_dict(payload["solution"])
    except (KeyError, TypeError, ValueError) as exc:
        raise DataError(f"{path}: the checkpoint of day {day} is damaged "
                        f"({type(exc).__name__}: {exc})") from exc
    if s0 is not None and abs(sol.s0 - s0) > 1e-9:
        return None  # carry-over changed upstream; recompute
    return sol


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
        npv = battery_npv(spec)
        cal_lin = linearize_calendar(
            spec, spec.temperature, age, grid.step_seconds, npv)
        cyc_lin = linearize_cycle(spec, spec.temperature, npv)
    day_trace = FrequencyTrace(bundle.frequency.day_values(day), grid.n_steps)
    return DayInputs(
        grid=grid,
        prices=bundle.prices.day_slice(day, cfg.hours_per_day),
        contents=energy_content(day_trace, grid),
        spec=spec, s0=s0, case_id=case_id,
        degradation_in_objective=deg,
        cal_lin=cal_lin, cyc_lin=cyc_lin,
        force_zero_baseline=cfg.force_zero_baseline)


def carried_soe(bundle: DataBundle, case_id: str, deg: bool, k: int) -> float:
    """Start SoE of the k-th configured day: the final SoE of day k-1's
    checkpoint when it matches this configuration and data, else
    `initial_soe`."""
    cfg = bundle.config
    if k > 0:
        prev = cfg.days[k - 1]
        path = _checkpoint_path(_run_dir(cfg, case_id, deg), prev)
        sol = None
        with contextlib.suppress(DataError):    # damaged: as if absent
            sol = _read_checkpoint(path, cfg.config_hash(),
                                   bundle.data_hash(), case_id, deg, prev,
                                   None)
        if sol is not None:
            return float(sol.soe[-1])
    return cfg.initial_soe


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
                sol = _read_checkpoint(ckpt, chash, dhash, case, deg, day, s0)
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
            sol = extract_day_solution(model, result.x, inputs,
                                       status=result.status, gap=result.gap,
                                       wall_time=result.wall_time,
                                       nodes=result.nodes)
            log.info("day %d case %s (%s): objective %.2f EUR, gap %.2e, "
                     "%d nodes in %.2fs", day, case, "deg" if deg else "nodeg",
                     sol.objective, sol.gap, sol.nodes, result.wall_time)
            cal_eur, cyc_eur, cal_pct, cyc_pct = post_calculate_aging(
                sol, spec, spec.temperature, age_k)
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
    """`horizon.json`: the run's aggregates, plus the solver seconds and
    nodes spent in this call and how many days came from checkpoints."""
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
    for day in config.days:
        path = _checkpoint_path(run_dir, day)
        if not os.path.exists(path):
            raise MissingFile(f"{path} (day {day} was never solved)")
        if dhash is None:
            dhash = _load_checkpoint(path).get("data_hash")
        sol = _read_checkpoint(path, chash, dhash, case_id,
                               degradation_in_objective, day, s0)
        if sol is None:
            raise ConfigError(
                f"{path}: day {day} was produced under a different "
                f"configuration, data set or starting SoE than day "
                f"{config.days[0]}")
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
