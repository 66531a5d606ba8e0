"""Day-ahead baseline and stacked FCR capacity bid optimizer for batteries.

The package optimizes, day by day, the hourly day-ahead baseline power and
the FCR-N / FCR-D up / FCR-D down capacity bids of a battery storage unit
under the Nordic limited-energy-reservoir rules, with battery degradation
either priced inside the optimization or accounted for afterwards.

Typical flow:

>>> from fcrsched import RunConfig, load_bundle, run_case
>>> cfg = RunConfig(case_id="MULTI", days=(0,), steps_per_hour=4)
>>> bundle = load_bundle(cfg, synthetic_seed=7)
>>> result = run_case(bundle)
>>> round(result.totals()["profit"], 2)  # doctest: +SKIP
"""

from .degradation import (
    AgingCoefficients,
    CalendarLinearization,
    CycleLinearization,
    battery_npv,
    calendar_aging_step,
    cycle_aging_step,
    eur_per_pct,
    linearize_calendar,
    linearize_cycle,
    post_calculate_aging,
)
from .droop import (
    EnergyContentSeries,
    energy_content,
    fcrd_down_fraction,
    fcrd_up_fraction,
    fcrn_fraction,
)
from .errors import (
    AlignmentError,
    BackendError,
    ConfigError,
    DataError,
    FcrSchedError,
    FitToleranceExceeded,
    GapTooLong,
    InfeasibleBounds,
    InvalidParameter,
    MissingFile,
    MissingHour,
    OutOfRangeSample,
    ParseError,
    RegistryMiss,
    SchemaMismatch,
    SolverError,
    SolverFailure,
    TooLarge,
    UnsupportedFormat,
)
from .ingest import (
    CASE_MARKETS,
    CASES,
    BatterySpec,
    FrequencyTrace,
    PriceSeries,
    RunConfig,
    TimeGrid,
    load_frequency,
    load_prices,
    synth_frequency,
    synth_prices,
    write_frequency,
    write_prices,
)
from .milp import (
    DayInputs,
    DaySolution,
    MilpModel,
    build_day_model,
    extract_day_solution,
    model_size,
    validate_solution,
)
from .orchestrate import (
    MIX_LABELS,
    DataBundle,
    HorizonResult,
    classify_market_mix,
    load_bundle,
    load_horizon,
    run_case,
    run_matrix,
    solve_day,
)
from .report import (
    HistogramSpec,
    bid_histogram,
    bid_stats_table,
    format_table,
    histogram,
    market_mix_table,
    monetary_table,
    quartiles,
    write_report,
)
from .solvers import (
    SolveResult,
    export_model,
    get_backend,
    parse_lp,
    parse_mps,
    parse_solution_file,
    sanitize_name,
    solve_external,
    solve_micro,
    solve_scipy,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
