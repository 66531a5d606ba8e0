"""Shared builders for the test suite: small grids, day inputs, bundles."""

from __future__ import annotations

import dataclasses

import numpy as np

from fcrsched import (
    BatterySpec,
    DayInputs,
    PriceSeries,
    RunConfig,
    load_bundle,
)
from fcrsched import orchestrate, solvers
from fcrsched.milp import step_net_power


def toy_config(outdir, **overrides) -> RunConfig:
    """Small, fast run configuration rooted at `outdir`."""
    base = dict(
        case_id="MULTI",
        degradation_in_objective=False,
        days=(0,),
        steps_per_hour=4,
        hours_per_day=4,
        solver="scipy",
        mip_gap=1e-9,
        outdir=str(outdir),
    )
    base.update(overrides)
    return RunConfig(**base)


def day_inputs(seed: int = 7, case: str = "MULTI", hours: int = 4,
               steps_per_hour: int = 4, deg: bool = False,
               s0: float | None = None,
               spec: BatterySpec | None = None, age_days: float = 30.0,
               prices: PriceSeries | None = None, **config) -> DayInputs:
    """Day 0's model inputs on synthetic data (frequency seed `seed`, prices
    seed+1), compact by default, built the way `run_case` builds them.
    `config` takes further `RunConfig` fields, e.g. `force_zero_baseline`."""
    cfg = RunConfig(case_id=case, steps_per_hour=steps_per_hour,
                    hours_per_day=hours, battery=spec or BatterySpec(),
                    **config)
    bundle = load_bundle(cfg, synthetic_seed=seed)
    if prices is not None:
        bundle = dataclasses.replace(bundle, prices=prices)
    s0 = cfg.initial_soe if s0 is None else s0
    return orchestrate.day_inputs(bundle, 0, s0, age_days, case, deg)


def flat_prices(hours: int, spot: float = 40.0, fcr_n: float = 20.0,
                fcr_du: float = 10.0, fcr_dd: float = 8.0,
                up_reg: float = 45.0, down_reg: float = 30.0,
                grid_tariff: float = 0.0, tax: float = 0.0) -> PriceSeries:
    """Constant prices, handy when a test needs a hand-checkable objective."""
    ones = np.ones(hours)
    return PriceSeries(spot=spot * ones, fcr_n=fcr_n * ones,
                       fcr_du=fcr_du * ones, fcr_dd=fcr_dd * ones,
                       up_reg=up_reg * ones, down_reg=down_reg * ones,
                       grid_tariff=grid_tariff, tax=tax)


def audit_solution(inputs: DayInputs, sol) -> dict[str, float]:
    """Re-audit a day solution from first principles.

    Recomputes every physical requirement directly from the extracted arrays
    and the raw inputs (never through the model rows) and returns the worst
    violation magnitude per family; all zeros (up to float noise) means the
    schedule is physically consistent. Each step's net power and SoE come
    from the activation fractions and energies here, the SoE rolled forward
    from `s0` unclipped; `activation_pin` is the power's distance to the
    package's own rebuild, `step_net_power`, and `soe_hour_end` each hour's
    final SoE, clipped to the window as extraction clips it, against the
    stored `sol.soe[h]`.
    """
    spec, grid, cont = inputs.spec, inputs.grid, inputs.contents
    sph, dt = grid.steps_per_hour, grid.dt_hours
    viol: dict[str, float] = {}

    def note(family: str, amount: float) -> None:
        viol[family] = max(viol.get(family, 0.0), float(amount))

    ch, ds = sol.ch_bl, sol.ds_bl
    bid = {"N": sol.bid_n, "DU": sol.bid_du, "DD": sol.bid_dd}
    caps = {"N": spec.p_max, "DU": 2.0 * spec.p_max, "DD": 2.0 * spec.p_max}
    from fcrsched.ingest import CASE_MARKETS
    allowed = CASE_MARKETS[inputs.case_id]

    rebuilt = step_net_power(sol, cont)
    soe = [inputs.s0]           # soe[t + 1]: the SoE at the end of step t
    for t in range(grid.n_steps):
        h = t // sph
        # the realized net power: baseline plus droop activation of the bids
        net = (ch[h] - ds[h]
               + (cont.frac_nd[t] - cont.frac_nu[t]) * bid["N"][h]
               + cont.frac_dd[t] * bid["DD"][h]
               - cont.frac_du[t] * bid["DU"][h])
        note("step_bounds", abs(net) - spec.p_max)
        if spec.p_min > 0.0 and abs(net) > 1e-9:
            note("step_min", spec.p_min - abs(net))
        note("activation_pin", abs(rebuilt[t] - net))
        flow = (spec.eta_ch * ch[h] - ds[h] / spec.eta_ds) * dt \
            + (cont.e_dr_n[t] - cont.e_ur_n[t]) * bid["N"][h] \
            + cont.e_dr_dd[t] * bid["DD"][h] \
            - cont.e_ur_du[t] * bid["DU"][h]
        soe.append(soe[-1] + flow)
        note("soe_window", max(spec.soe_min - soe[-1],
                               soe[-1] - spec.soe_max))

    for h in range(grid.hours):
        end = min(max(soe[(h + 1) * sph], spec.soe_min), spec.soe_max)
        note("soe_hour_end", abs(end - sol.soe[h]))
        note("baseline_bounds", max(-ch[h], ch[h] - spec.p_max,
                                    -ds[h], ds[h] - spec.p_max))
        note("baseline_excl", min(ch[h], ds[h]))
        if inputs.force_zero_baseline:
            note("baseline_zero", max(ch[h], ds[h]))
        if spec.p_min > 0.0:
            for v in (ch[h], ds[h]):
                if v > 1e-9:
                    note("baseline_min", spec.p_min - v)
        for mkt in ("N", "DU", "DD"):
            b = bid[mkt][h]
            if mkt not in allowed:
                note("bid_disallowed", b)
                continue
            note("bid_bounds", max(-b, b - caps[mkt]))
            if b > 1e-9:
                note("bid_min", spec.min_bid(mkt) - b)
        net = ch[h] - ds[h]
        note("req_up", 1.34 * bid["N"][h] + bid["DU"][h]
             + 0.2 * bid["DD"][h] - net - spec.p_max)
        note("req_dn", 1.34 * bid["N"][h] + bid["DD"][h]
             + 0.2 * bid["DU"][h] + net - spec.p_max)
        start = soe[h * sph]
        for off in (net,
                    (net + bid["N"][h] + bid["DD"][h]) / 3.0,
                    (net - bid["N"][h] - bid["DU"][h]) / 3.0,
                    net + bid["N"][h] + bid["DD"][h] / 3.0,
                    net - bid["N"][h] - bid["DU"][h] / 3.0):
            note("endurance", max(spec.soe_min - (start + off),
                                  (start + off) - spec.soe_max))
    return viol


def hourly_cycle_bound(inputs: DayInputs, sol) -> np.ndarray:
    """Per hour, the throughput bound the deg model prices the cycle cost
    on, from a solution's hourly decisions: the baseline in every step plus
    each bid at its activation fractions, in MW summed over the steps."""
    cont, sph = inputs.contents, inputs.grid.steps_per_hour

    def hour_sums(arr):
        return arr.reshape(inputs.grid.hours, sph).sum(axis=1)

    return (sph * (sol.ch_bl + sol.ds_bl)
            + sol.bid_n * hour_sums(cont.frac_nd + cont.frac_nu)
            + sol.bid_dd * hour_sums(cont.frac_dd)
            + sol.bid_du * hour_sums(cont.frac_du))


def solve_day(inputs: DayInputs):
    """`orchestrate.solve_day` on the scipy backend at a tight gap: the
    model, the result and the settled day, its aging post-calculated at 30
    days (the default age of `day_inputs`)."""
    return orchestrate.solve_day(inputs, 30.0, solvers.solve_scipy,
                                 time_limit_s=600.0, mip_gap=1e-9)
