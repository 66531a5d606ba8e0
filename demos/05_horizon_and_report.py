"""
Multi-day horizons, case comparison, reports
============================================

Run several days with state carry-over, sweep market cases against both
degradation modes, and render the comparison tables the package reports.
"""

from __future__ import annotations

import tempfile

from fcrsched import (
    RunConfig,
    load_bundle,
    run_case,
    run_matrix,
    write_report,
)
from fcrsched.report import (
    DELTA_COLUMNS,
    MIX_COLUMNS,
    MONETARY_COLUMNS,
    aging_delta_table,
    format_table,
    market_mix_table,
    monetary_table,
)

# Checkpoints and the report go to a temporary directory that is removed
# at the end of the block.
with tempfile.TemporaryDirectory(prefix="fcrsched_demo_") as outdir:
    # Three 24-hour days at 15-minute resolution on synthetic data. Days are
    # solved in order; each day's final state of energy seeds the next day,
    # and every day is checkpointed so reruns resume instead of recomputing.
    cfg = RunConfig(case_id="MULTI", days=tuple(range(3)), steps_per_hour=4,
                    hours_per_day=24, solver="scipy", mip_gap=1e-4,
                    outdir=outdir)
    bundle = load_bundle(cfg, synthetic_seed=5)

    res = run_case(bundle, degradation_in_objective=True)
    print(f"MULTI with degradation priced: {res.n_days} days solved")
    for sol in res.days:
        print(f"  day {sol.day_index}: profit {sol.profit:8.2f} EUR, "
              f"aging {sol.cal_pct + sol.cyc_pct:.4f}%, "
              f"SoE end {sol.soe[-1]:.3f} MWh")
    ann = res.annualized()
    print(f"annualized profit: {ann['profit']:,.0f} EUR/yr, "
          f"aging {res.aging_pct_per_year:.2f} %/yr, "
          f"projected lifetime {res.lifetime_years:.1f} yr")

    # The full comparison: every market case, degradation in and out of the
    # objective. Checkpoints from the run above are reused automatically.
    results = run_matrix(bundle)

    print("\n" + format_table(monetary_table(results), MONETARY_COLUMNS))
    print("\n" + format_table(market_mix_table(results), MIX_COLUMNS))
    print("\n" + format_table(aging_delta_table(results), DELTA_COLUMNS))

    # write_report persists the tables as deterministic CSV files plus a
    # manifest of content digests; rerunning reproduces identical bytes.
    manifest = write_report(results, f"{outdir}/report", bundle=bundle)
    print(f"\nreport written: {manifest}")
