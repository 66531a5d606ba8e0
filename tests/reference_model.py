"""Reference day model, built one variable and one row at a time.

Test reference only. `build_day_model` adds each family of columns and
rows as one block of arrays; this builder states the same model with the
scalar `add_variable`, `add_constraint` and `set_objective_coeff` calls,
one loop iteration per hour or step, and the tests require both to give
the same model, array for array. Like the block builder, it leaves a
term with a zero coefficient out of its row. It picks the steps of the
intra-hour SoE window rows by their definition, a pair of the hour's
points that dominates the step, not by the builder's monotone chain.
"""

from __future__ import annotations

import math

from fcrsched.ingest import CASE_MARKETS
from fcrsched.milp import (
    REQ_FACTOR_OPP,
    REQ_FACTOR_OWN,
    DayInputs,
    MilpModel,
)


def loop_day_model(inputs: DayInputs) -> MilpModel:
    """The day MILP of `build_day_model`, one column and one row at a
    time."""
    grid, spec, prices, cont = inputs.grid, inputs.spec, inputs.prices, inputs.contents
    H, T, spH = grid.hours, grid.n_steps, grid.steps_per_hour
    dt_h = grid.dt_hours
    allowed = CASE_MARKETS[inputs.case_id]
    m = MilpModel(f"day{grid.day_index}_{inputs.case_id}")

    def add_row(name, coeffs, sense, rhs):
        m.add_constraint(name, [(c, v) for c, v in coeffs if v != 0.0],
                         sense, rhs)

    bl_hi = 0.0 if inputs.force_zero_baseline else spec.p_max
    ch_bl = [m.add_variable(f"ch_bl[h={h}]", 0.0, bl_hi) for h in range(H)]
    ds_bl = [m.add_variable(f"ds_bl[h={h}]", 0.0, bl_hi) for h in range(H)]

    bid_caps = {"N": spec.p_max, "DU": 2.0 * spec.p_max, "DD": 2.0 * spec.p_max}
    bid = {}
    for mk, var in (("N", "bid_n"), ("DU", "bid_du"), ("DD", "bid_dd")):
        hi = bid_caps[mk] if mk in allowed else 0.0
        bid[mk] = [m.add_variable(f"{var}[h={h}]", 0.0, hi) for h in range(H)]

    b_ch_bl = [m.add_variable(f"b_ch_bl[h={h}]", 0.0, 1.0, binary=True)
               for h in range(H)]
    b_ds_bl = [m.add_variable(f"b_ds_bl[h={h}]", 0.0, 1.0, binary=True)
               for h in range(H)]
    b_bid = {}
    for mk, var in (("N", "b_n"), ("DU", "b_du"), ("DD", "b_dd")):
        if mk in allowed and spec.min_bid(mk) > 0.0:
            b_bid[mk] = [m.add_variable(f"{var}[h={h}]", 0.0, 1.0, binary=True)
                         for h in range(H)]

    if spec.p_min > 0.0:
        b_ch = [m.add_variable(f"b_ch[t={t}]", 0.0, 1.0, binary=True)
                for t in range(T)]
        b_ds = [m.add_variable(f"b_ds[t={t}]", 0.0, 1.0, binary=True)
                for t in range(T)]
    soe = [m.add_variable(f"soe[h={h}]", spec.soe_min, spec.soe_max)
           for h in range(H)]

    if inputs.degradation_in_objective:
        segs = inputs.cal_lin.segments
        widths = [seg.hi_mwh - seg.lo_mwh for seg in segs]
        # a kink pick only where the secant slope falls
        kinks = []
        for j in range(1, 3):
            if segs[j].slope_eur_per_mwh < segs[j - 1].slope_eur_per_mwh:
                kinks.append(j)
        y_cal = [[m.add_variable(f"y_cal[h={h},j={j}]", 0.0, 1.0, binary=True)
                  for j in kinks] for h in range(H)]
        d_cal = [[m.add_variable(f"d_cal[h={h},k={k}]", 0.0, widths[k])
                  for k in range(3)] for h in range(H)]
        cyc = [m.add_variable(f"cyc[h={h}]", 0.0, 6.0 * spH * spec.p_max)
               for h in range(H)]

    # baseline bounds and hourly exclusivity
    for h in range(H):
        add_row(f"bl_up_ch[h={h}]",
                [(ch_bl[h], 1.0), (b_ch_bl[h], -spec.p_max)], "<=", 0.0)
        add_row(f"bl_up_ds[h={h}]",
                [(ds_bl[h], 1.0), (b_ds_bl[h], -spec.p_max)], "<=", 0.0)
        if spec.p_min > 0.0:
            add_row(f"bl_lo_ch[h={h}]",
                    [(ch_bl[h], 1.0), (b_ch_bl[h], -spec.p_min)], ">=", 0.0)
            add_row(f"bl_lo_ds[h={h}]",
                    [(ds_bl[h], 1.0), (b_ds_bl[h], -spec.p_min)], ">=", 0.0)
        add_row(f"bl_excl[h={h}]",
                [(b_ch_bl[h], 1.0), (b_ds_bl[h], 1.0)], "<=", 1.0)

    # realized net power, the baseline at its set point plus each bid at
    # its activation fraction: in [p_min, p_max] when charging, in
    # [-p_max, -p_min] when discharging, zero otherwise
    if spec.p_min > 0.0:
        for t in range(T):
            h = t // spH
            net = [(ch_bl[h], 1.0), (ds_bl[h], -1.0),
                   (bid["N"][h], cont.frac_nd[t] - cont.frac_nu[t]),
                   (bid["DD"][h], cont.frac_dd[t]),
                   (bid["DU"][h], -cont.frac_du[t])]
            add_row(f"st_ch[t={t}]",
                    net + [(b_ch[t], -spec.p_max), (b_ds[t], spec.p_min)],
                    "<=", 0.0)
            add_row(f"st_ds[t={t}]",
                    net + [(b_ds[t], spec.p_max), (b_ch[t], -spec.p_min)],
                    ">=", 0.0)
            add_row(f"st_excl[t={t}]",
                    [(b_ch[t], 1.0), (b_ds[t], 1.0)], "<=", 1.0)

    # the SoE change per unit of each decision at each step, then summed
    # from the hour's start; efficiencies act on the baseline flows only,
    # activation energy enters unscaled
    cum = []
    for t in range(T):
        h = t // spH
        step = [(ch_bl[h], spec.eta_ch * dt_h),
                (ds_bl[h], -dt_h / spec.eta_ds),
                (bid["N"][h], cont.e_dr_n[t] - cont.e_ur_n[t]),
                (bid["DD"][h], cont.e_dr_dd[t]),
                (bid["DU"][h], -cont.e_ur_du[t])]
        if t % spH:
            step = [(col, c + float(d)) for (col, c), (_, d)
                    in zip(cum[-1], step)]
        cum.append([(col, float(d)) for col, d in step])

    def start_of(h):
        """The SoE before hour h: the soe column before it, or s0."""
        return ([], inputs.s0) if h == 0 else ([(soe[h - 1], 1.0)], 0.0)

    # one recursion row per hour
    for h in range(H):
        start, const = start_of(h)
        add_row(f"soe_rec[h={h}]",
                [(soe[h], 1.0)]
                + [(col, -c) for col, c in cum[(h + 1) * spH - 1]]
                + [(col, -v) for col, v in start], "==", const)

    # the window inside an hour, at each step that no pair of the hour's
    # points around it dominates. The points are (k, N_k), N_k the hour's
    # FCR-N delta summed up to step k, and the start (-1, 0). Step j's
    # soe_max row is dropped when N_j is at most the interpolation of
    # N_i and N_l at j for some i < j < l, its soe_min row when it is at
    # least that. An hour with FCR-D activation keeps every step but its
    # last.
    def dominated(n, j, sign):
        return any(sign * (n[j] - n[i]) * (l - i)
                   <= sign * (n[l] - n[i]) * (j - i)
                   for i in range(j) for l in range(j + 1, len(n)))

    for h in range(H):
        s = slice(h * spH, (h + 1) * spH)
        fcrd = cont.e_dr_dd[s].any() or cont.e_ur_du[s].any()
        n = [0.0] + [cum[t][2][1] for t in range(h * spH, (h + 1) * spH)]
        start, const = start_of(h)
        for j in range(1, spH):
            t = h * spH + j - 1
            for sign, name, sense, bound in (
                    (1.0, "soe_max", "<=", spec.soe_max),
                    (-1.0, "soe_min", ">=", spec.soe_min)):
                if fcrd or not dominated(n, j, sign):
                    add_row(f"{name}[t={t}]", start + cum[t], sense,
                            bound - const)

    # minimum-bid linking
    for mk, var in (("N", "bid_n"), ("DU", "bid_du"), ("DD", "bid_dd")):
        if mk not in b_bid:
            continue
        for h in range(H):
            add_row(f"{var}_lo[h={h}]",
                    [(bid[mk][h], 1.0), (b_bid[mk][h], -spec.min_bid(mk))],
                    ">=", 0.0)
            add_row(f"{var}_up[h={h}]",
                    [(bid[mk][h], 1.0), (b_bid[mk][h], -bid_caps[mk])],
                    "<=", 0.0)

    # reserve power requirements around the baseline (load convention)
    for h in range(H):
        add_row(
            f"req_up[h={h}]",
            [(bid["N"][h], REQ_FACTOR_OWN), (bid["DU"][h], 1.0),
             (bid["DD"][h], REQ_FACTOR_OPP),
             (ch_bl[h], -1.0), (ds_bl[h], 1.0)],
            "<=", spec.p_max)
        add_row(
            f"req_dn[h={h}]",
            [(bid["N"][h], REQ_FACTOR_OWN), (bid["DD"][h], 1.0),
             (bid["DU"][h], REQ_FACTOR_OPP),
             (ch_bl[h], 1.0), (ds_bl[h], -1.0)],
            "<=", spec.p_max)

    # endurance: worst-case hour-start SoE scenarios, both bound sides
    third = 1.0 / 3.0
    for h in range(H):
        prev, prev_const = start_of(h)
        scenarios = {
            "endur_bl": [(ch_bl[h], 1.0), (ds_bl[h], -1.0)],
            "endur_act20_dn": [(ch_bl[h], third), (ds_bl[h], -third),
                               (bid["N"][h], third), (bid["DD"][h], third)],
            "endur_act20_up": [(ch_bl[h], third), (ds_bl[h], -third),
                               (bid["N"][h], -third), (bid["DU"][h], -third)],
            "endur_act60_dn": [(ch_bl[h], 1.0), (ds_bl[h], -1.0),
                               (bid["N"][h], 1.0), (bid["DD"][h], third)],
            "endur_act60_up": [(ch_bl[h], 1.0), (ds_bl[h], -1.0),
                               (bid["N"][h], -1.0), (bid["DU"][h], -third)],
        }
        for label, terms in scenarios.items():
            add_row(f"{label}_max[h={h}]", prev + terms, "<=",
                    spec.soe_max - prev_const)
            add_row(f"{label}_min[h={h}]", prev + terms, ">=",
                    spec.soe_min - prev_const)

    # calendar segments filled in order: at each falling kink j, a set pick
    # fills every segment before j, a clear one empties every segment from j
    if inputs.degradation_in_objective:
        for h in range(H):
            for i, j in enumerate(kinks):
                for k in range(3):
                    if k < j:
                        add_row(
                            f"cal_full[h={h},j={j},k={k}]",
                            [(d_cal[h][k], 1.0), (y_cal[h][i], -widths[k])],
                            ">=", 0.0)
                    else:
                        add_row(
                            f"cal_empty[h={h},j={j},k={k}]",
                            [(d_cal[h][k], 1.0), (y_cal[h][i], -widths[k])],
                            "<=", 0.0)
            # the hour's mean SoE: the SoE before the hour plus each step's
            # delta weighted by the share of the hour's steps from it on
            s = slice(h * spH, (h + 1) * spH)
            start, start_const = start_of(h)
            flows = [(ch_bl[h], [spec.eta_ch * dt_h] * spH),
                     (ds_bl[h], [-dt_h / spec.eta_ds] * spH),
                     (bid["N"][h], cont.e_dr_n[s] - cont.e_ur_n[s]),
                     (bid["DD"][h], cont.e_dr_dd[s]),
                     (bid["DU"][h], -cont.e_ur_du[s])]
            add_row(f"cal_link[h={h}]",
                    [(d_cal[h][k], 1.0) for k in range(3)]
                    + [(col, -v) for col, v in start]
                    + [(col, -math.fsum(float(d[i]) * ((spH - i) / spH)
                                        for i in range(spH)))
                       for col, d in flows],
                    "==", start_const)
            # the hour's throughput bound: the baseline at its set point in
            # every step, each bid at its activation fraction
            add_row(
                f"cyc_def[h={h}]",
                [(cyc[h], 1.0), (ch_bl[h], -float(spH)),
                 (ds_bl[h], -float(spH)),
                 (bid["N"][h],
                  -math.fsum(cont.frac_nd[s] + cont.frac_nu[s])),
                 (bid["DD"][h], -math.fsum(cont.frac_dd[s])),
                 (bid["DU"][h], -math.fsum(cont.frac_du[s]))],
                "==", 0.0)

    # objective: spot revenue + reserve revenue - charging cost - degradation
    for h in range(H):
        m.set_objective_coeff(ds_bl[h], prices.spot[h] + prices.tax)
        m.set_objective_coeff(ch_bl[h], -(prices.spot[h] + prices.grid_tariff
                                          + prices.tax))
        m.set_objective_coeff(bid["N"][h],
                              prices.fcr_n[h]
                              + prices.up_reg[h] * cont.eh_ur_n[h]
                              - prices.down_reg[h] * cont.eh_dr_n[h])
        m.set_objective_coeff(bid["DU"][h], prices.fcr_du[h])
        m.set_objective_coeff(bid["DD"][h], prices.fcr_dd[h])
    if inputs.degradation_in_objective:
        for h in range(H):
            m.set_objective_coeff(cyc[h], -inputs.cyc_lin.k_cyc * dt_h)
        # the per-step secant cost, charged spH times at the hour's mean SoE
        for h in range(H):
            for k in range(3):
                m.set_objective_coeff(d_cal[h][k],
                                      -spH * segs[k].slope_eur_per_mwh)
        # every hour's cost at the first breakpoint, the segments' base
        m.objective_const = -H * spH * segs[0].cost_at(segs[0].lo_mwh)
    return m
