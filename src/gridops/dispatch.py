"""Shared optimization-program builder for the three scheduling layers.

The day-ahead commitment, same-day fast-start commitment and real-time
dispatch share one constraint family: bubble balance against a DC flow,
interface limits, unit box bounds with outage masks, ramp limits with
start/stop relaxation, storage energy accounting, commitment logic, and
contingency-based reserve procurement.  This module builds that program
once, parameterized by layer, and extracts a uniform Schedule.

Conventions: ramp rates are MW/min, steps are minutes, curtailment is a
fraction in [0,1] applied to the curtailable share d of a resource.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .lp import EQ, GE, INF, LE, LinearProgram, Solution, solve_lp
from .milp import solve_milp
from .piecewise import linearize_cost
from .scenario import Scenario

N_SEGMENTS = 3


class DispatchError(Exception):
    """Infeasible or failed optimization, naming the violated family."""


@dataclass
class Forecasts:
    """Per-step forecast blocks for one optimization window."""
    load: dict[str, np.ndarray]          # bubble -> MW per step
    semi: dict[str, np.ndarray]          # resource -> MW per step

    def horizon(self) -> int:
        for v in self.load.values():
            return len(v)
        return 0


@dataclass
class InitialState:
    online: dict[str, float] = field(default_factory=dict)       # w at t=0
    output: dict[str, float] = field(default_factory=dict)       # MW at t=0
    run_hours: dict[str, float] = field(default_factory=dict)    # +on/-off history
    starts_used: dict[str, int] = field(default_factory=dict)    # n_Gk today
    starts_ahead: dict[str, int] = field(default_factory=dict)   # m_Gk lookahead
    energy: dict[str, float] = field(default_factory=dict)       # storage MWh
    mode_gen: dict[str, float] = field(default_factory=dict)
    mode_pump: dict[str, float] = field(default_factory=dict)


@dataclass
class Schedule:
    layer: str
    steps: int
    step_minutes: int
    status: str = ""
    objective: float = 0.0
    w: dict[str, np.ndarray] = field(default_factory=dict)
    u: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)
    p: dict[str, np.ndarray] = field(default_factory=dict)
    tmsr: dict[str, np.ndarray] = field(default_factory=dict)
    tmor: dict[str, np.ndarray] = field(default_factory=dict)
    storage_gen: dict[str, np.ndarray] = field(default_factory=dict)
    storage_pump: dict[str, np.ndarray] = field(default_factory=dict)
    storage_energy: dict[str, np.ndarray] = field(default_factory=dict)
    storage_mode_gen: dict[str, np.ndarray] = field(default_factory=dict)
    storage_mode_pump: dict[str, np.ndarray] = field(default_factory=dict)
    curtail: dict[str, np.ndarray] = field(default_factory=dict)
    shed: dict[str, np.ndarray] = field(default_factory=dict)
    dr: dict[str, np.ndarray] = field(default_factory=dict)
    super_pos: dict[str, np.ndarray] = field(default_factory=dict)
    super_neg: dict[str, np.ndarray] = field(default_factory=dict)
    flows: np.ndarray = field(default_factory=lambda: np.zeros((0, 0)))
    c1: np.ndarray = field(default_factory=lambda: np.zeros(0))

    def supergen_total(self) -> float:
        tot = 0.0
        for d in (self.super_pos, self.super_neg):
            for arr in d.values():
                tot += float(np.abs(arr).sum())
        return tot


@dataclass
class LayerOptions:
    layer: str                           # scuc | rtuc | sced
    steps: int
    step_minutes: int
    pinned_w: dict[str, np.ndarray] | None = None       # gen -> w per step
    pinned_storage: tuple[dict, dict] | None = None     # (P_s, S_s); None=free
    fixed_uv: tuple[dict, dict] | None = None           # sced: (u, v) consts
    outage_gen: dict[str, np.ndarray] | None = None     # gen -> mask per step
    outage_semi: dict[str, np.ndarray] | None = None
    hour_of_step: list[int] | None = None               # fuel-price lookup


def _mask(table, rid, t) -> float:
    if not table or rid not in table:
        return 0.0
    return float(table[rid][t])


def reserves_active(scn: Scenario) -> bool:
    r = scn.reserves
    if r.lfr_requirement is not None and r.lfr_requirement > 0:
        return True
    sys_any = (r.alpha_sys_tmsr > 0 or r.alpha_sys_tmor > 0)
    bub_any = any(v > 0 for v in r.alpha_tmsr.values()) or \
        any(v > 0 for v in r.alpha_tmor.values())
    return sys_any or bub_any


def build_program(scn: Scenario, fc: Forecasts, init: InitialState,
                  opt: LayerOptions):
    """Build the layer's program; returns (LinearProgram, index maps)."""
    T = opt.steps
    if fc.horizon() < T:
        raise DispatchError(
            f"forecast horizon {fc.horizon()} shorter than {T} steps")
    lp = LinearProgram()
    net = scn.network
    gamma = scn.gamma_loss
    penalty = scn.penalty_price()
    hours = opt.hour_of_step or [0] * T
    res = scn.reserves
    use_res = opt.layer != "sced" and reserves_active(scn)
    storage_vars = opt.pinned_storage is None

    ix: dict[str, int] = {}

    def var(name, **kw) -> int:
        j = lp.add_var(name, **kw)
        ix[name] = j
        return j

    # -- variables ---------------------------------------------------------
    pw = {}
    for g in scn.generators:
        pw[g.id] = linearize_cost(g.p_min, g.p_max, 1.0, g.h_f, g.h_l, g.h_q,
                                  N_SEGMENTS)
    # Available semi-dispatchable energy per step, net of outages.
    sched_semi = {}   # (semi, t) -> (delivered const, w coefficient)
    for sm in scn.semis:
        prof = fc.semi[sm.id]
        for t in range(T):
            avail = (1.0 - _mask(opt.outage_semi, sm.id, t)) * float(prof[t])
            sched_semi[(sm.id, t)] = (avail, -sm.d * avail)

    for t in range(T):
        for g in scn.generators:
            cf = g.fuel_price(hours[t])
            pwk = pw[g.id]
            pin = None if opt.pinned_w is None else opt.pinned_w.get(g.id)
            if opt.layer == "sced":
                wv = float(pin[t])
                off = 1.0 - _mask(opt.outage_gen, g.id, t)
                lo = wv * off * g.p_min
                hi = wv * off * g.p_max
                var(f"P[{g.id},{t}]", lb=lo, ub=hi)
                for s, slope in enumerate(pwk.slopes):
                    var(f"dP[{g.id},{t},{s}]", lb=0.0, ub=pwk.widths[s],
                        obj=cf * slope)
                continue
            if g.kind == "must-run":
                var(f"w[{g.id},{t}]", lb=1.0, ub=1.0)
            elif pin is not None:
                wv = float(pin[t])
                var(f"w[{g.id},{t}]", lb=wv, ub=wv)
            else:
                var(f"w[{g.id},{t}]", lb=0.0, ub=1.0, binary=True)
            # Commitment carries the cost of running at P^min.
            lp.variables[ix[f"w[{g.id},{t}]"]].obj = cf * pwk.cost_at_min
            var(f"u[{g.id},{t}]", lb=0.0, ub=1.0, obj=cf * g.h_u)
            var(f"v[{g.id},{t}]", lb=0.0, ub=1.0, obj=cf * g.h_d)
            var(f"P[{g.id},{t}]", lb=0.0, ub=g.p_max)
            for s, slope in enumerate(pwk.slopes):
                var(f"dP[{g.id},{t},{s}]", lb=0.0, ub=pwk.widths[s],
                    obj=cf * slope)
            if use_res:
                var(f"rS[{g.id},{t}]", lb=0.0,
                    ub=max(g.r_max * res.t_10, 0.0))
                var(f"rO[{g.id},{t}]", lb=0.0,
                    ub=max(g.r_max * res.t_30, 0.0))

        if storage_vars:
            for st in scn.storages:
                var(f"wP[{st.id},{t}]", lb=0.0, ub=1.0, binary=True)
                var(f"wS[{st.id},{t}]", lb=0.0, ub=1.0, binary=True)
                var(f"Ps[{st.id},{t}]", lb=0.0, ub=st.p_max)
                var(f"Ss[{st.id},{t}]", lb=0.0, ub=st.s_max)
                var(f"Es[{st.id},{t}]", lb=st.e_min, ub=st.e_max)
        for sm in scn.semis:
            if sm.d > 0:
                # Withholding delivery at threshold price C forfeits C*d*avail.
                avail, _ = sched_semi[(sm.id, t)]
                var(f"cv[{sm.id},{t}]", lb=0.0, ub=1.0,
                    obj=-sm.price * sm.d * avail)
        for ld in scn.loads:
            if ld.d > 0:
                load = float(fc.load[ld.bubble][t])
                var(f"cl[{ld.bubble},{t}]", lb=0.0, ub=1.0,
                    obj=ld.price * ld.d * load)
        for m in scn.drs:
            var(f"Pm[{m.id},{t}]", lb=m.p_min, ub=m.p_max, obj=m.cost)
        for b in net.bubbles:
            var(f"sgP[{b},{t}]", lb=0.0, ub=INF, obj=penalty)
            var(f"sgN[{b},{t}]", lb=0.0, ub=INF, obj=penalty)
        for li, br in enumerate(net.branches):
            var(f"F[{li},{t}]", lb=-INF, ub=INF)
        if use_res:
            var(f"C1[{t}]", lb=0.0, ub=INF)

    # -- constraints -------------------------------------------------------
    for t in range(T):
        for b in net.bubbles:
            coeffs = []
            rhs = 0.0
            for g in scn.generators:
                if g.bubble == b:
                    coeffs.append((ix[f"P[{g.id},{t}]"], 1.0))
            for st in scn.storages:
                if st.bubble != b:
                    continue
                if storage_vars:
                    coeffs.append((ix[f"Ps[{st.id},{t}]"], 1.0))
                    coeffs.append((ix[f"Ss[{st.id},{t}]"], -1.0))
                else:
                    ps, ss = opt.pinned_storage
                    rhs -= float(ps[st.id][t]) - float(ss[st.id][t])
            coeffs.append((ix[f"sgP[{b},{t}]"], 1.0))
            coeffs.append((ix[f"sgN[{b},{t}]"], -1.0))
            for m in scn.drs:
                if m.bubble == b:
                    coeffs.append((ix[f"Pm[{m.id},{t}]"], 1.0))
            for ld in scn.loads:
                if ld.bubble != b:
                    continue
                load = float(fc.load[ld.bubble][t])
                rhs += (1.0 + gamma) * load
                if ld.d > 0:
                    coeffs.append((ix[f"cl[{ld.bubble},{t}]"],
                                   (1.0 + gamma) * ld.d * load))
            for sm in scn.semis:
                if sm.bubble != b:
                    continue
                avail, wcoef = sched_semi[(sm.id, t)]
                scale = 1.0 if sm.kind == "tie-line" else 1.0 + gamma
                rhs -= scale * avail
                if sm.d > 0:
                    coeffs.append((ix[f"cv[{sm.id},{t}]"], scale * wcoef))
            for li, br in enumerate(net.branches):
                if br.from_bubble == b:
                    coeffs.append((ix[f"F[{li},{t}]"], -1.0))
                elif br.to_bubble == b:
                    coeffs.append((ix[f"F[{li},{t}]"], 1.0))
            lp.add_constr(f"bal[{b},{t}]", coeffs, EQ, rhs)

        for itf in net.interfaces:
            coeffs = []
            for frm, to, sign in itf.members:
                bi = net.branch_index(frm, to)
                if bi >= 0:
                    coeffs.append((ix[f"F[{bi},{t}]"], sign))
                else:
                    coeffs.append((ix[f"F[{~bi},{t}]"], -sign))
            lp.add_constr(f"int+[{itf.name},{t}]", coeffs, LE, itf.limit)
            lp.add_constr(f"int-[{itf.name},{t}]", coeffs, GE, -itf.limit)

        for g in scn.generators:
            pwk = pw[g.id]
            pvar = ix[f"P[{g.id},{t}]"]
            dt = opt.step_minutes
            omask = _mask(opt.outage_gen, g.id, t)
            if opt.layer == "sced":
                # Segments tie cost to output above the committed floor.
                pin = opt.pinned_w[g.id]
                wv = float(pin[t]) * (1.0 - omask)
                segs = [(ix[f"dP[{g.id},{t},{s}]"], -1.0)
                        for s in range(len(pwk.slopes))]
                lp.add_constr(f"seg[{g.id},{t}]", [(pvar, 1.0)] + segs,
                              EQ, wv * g.p_min)
                uf, vf = opt.fixed_uv
                ur = float(uf.get(g.id, 0.0))
                vr = float(vf.get(g.id, 0.0))
                p0 = float(init.output.get(g.id, 0.0))
                lp.add_constr(f"ramp+[{g.id},{t}]", [(pvar, 1.0)], LE,
                              p0 + g.r_max * dt + g.p_max * ur)
                lp.add_constr(f"ramp-[{g.id},{t}]", [(pvar, 1.0)], GE,
                              p0 + g.r_min * dt - g.p_max * vr)
                continue

            wvar = ix[f"w[{g.id},{t}]"]
            uvar = ix[f"u[{g.id},{t}]"]
            vvar = ix[f"v[{g.id},{t}]"]
            # P = w*P^min + filled segments; segment sum capped by headroom.
            segs = [(ix[f"dP[{g.id},{t},{s}]"], -1.0)
                    for s in range(len(pwk.slopes))]
            # The committed floor scales with availability so a forced
            # outage of a pinned unit stays feasible.
            lp.add_constr(f"seg[{g.id},{t}]",
                          [(pvar, 1.0), (wvar, -(1.0 - omask) * g.p_min)] +
                          segs, EQ, 0.0)
            lp.add_constr(f"plim[{g.id},{t}]",
                          [(pvar, 1.0), (wvar, -(1.0 - omask) * g.p_max)],
                          LE, 0.0)
            # w-u-v linkage and ramp with start/stop relaxation.
            if t == 0:
                w0 = float(init.online.get(g.id, 0.0))
                lp.add_constr(f"link[{g.id},{t}]",
                              [(wvar, 1.0), (uvar, -1.0), (vvar, 1.0)],
                              EQ, w0)
                prev = [(pvar, 1.0)]
                base = float(init.output.get(g.id, 0.0))
            else:
                wprev = ix[f"w[{g.id},{t-1}]"]
                lp.add_constr(f"link[{g.id},{t}]",
                              [(wvar, 1.0), (wprev, -1.0), (uvar, -1.0),
                               (vvar, 1.0)], EQ, 0.0)
                prev = [(pvar, 1.0), (ix[f"P[{g.id},{t-1}]"], -1.0)]
                base = 0.0
            lp.add_constr(f"uv[{g.id},{t}]", [(uvar, 1.0), (vvar, 1.0)],
                          LE, 1.0)
            lp.add_constr(f"ramp+[{g.id},{t}]",
                          prev + [(uvar, -g.p_max)], LE,
                          base + g.r_max * dt)
            lp.add_constr(f"ramp-[{g.id},{t}]",
                          prev + [(vvar, g.p_max)], GE,
                          base + g.r_min * dt)

        if storage_vars:
            dt_h = opt.step_minutes / 60.0
            for st in scn.storages:
                wp = ix[f"wP[{st.id},{t}]"]
                ws = ix[f"wS[{st.id},{t}]"]
                psv = ix[f"Ps[{st.id},{t}]"]
                ssv = ix[f"Ss[{st.id},{t}]"]
                ev = ix[f"Es[{st.id},{t}]"]
                lp.add_constr(f"pslim+[{st.id},{t}]",
                              [(psv, 1.0), (wp, -st.p_max)], LE, 0.0)
                lp.add_constr(f"pslim-[{st.id},{t}]",
                              [(psv, 1.0), (wp, -st.p_min)], GE, 0.0)
                lp.add_constr(f"sslim+[{st.id},{t}]",
                              [(ssv, 1.0), (ws, -st.s_max)], LE, 0.0)
                lp.add_constr(f"sslim-[{st.id},{t}]",
                              [(ssv, 1.0), (ws, -st.s_min)], GE, 0.0)
                lp.add_constr(f"mode[{st.id},{t}]",
                              [(wp, 1.0), (ws, 1.0)], LE, 1.0)
                if t == 0:
                    e_prev_rhs = float(init.energy.get(st.id,
                                                       st.initial_energy))
                    coeffs = [(ev, 1.0), (ssv, -st.eta * dt_h),
                              (psv, dt_h)]
                    lp.add_constr(f"stor[{st.id},{t}]", coeffs, EQ,
                                  e_prev_rhs)
                    mg = float(init.mode_gen.get(st.id,
                                                 1.0 if st.mode_gen0 else 0.0))
                    mp = float(init.mode_pump.get(st.id,
                                                  1.0 if st.mode_pump0 else 0.0))
                    lp.add_constr(f"flip1[{st.id},{t}]", [(wp, 1.0)],
                                  LE, 1.0 - mp)
                    lp.add_constr(f"flip2[{st.id},{t}]", [(ws, 1.0)],
                                  LE, 1.0 - mg)
                else:
                    coeffs = [(ev, 1.0), (ix[f"Es[{st.id},{t-1}]"], -1.0),
                              (ssv, -st.eta * dt_h), (psv, dt_h)]
                    lp.add_constr(f"stor[{st.id},{t}]", coeffs, EQ, 0.0)
                    wp_prev = ix[f"wP[{st.id},{t-1}]"]
                    ws_prev = ix[f"wS[{st.id},{t-1}]"]
                    # No pump-to-generate flip within one step.
                    lp.add_constr(f"flip1[{st.id},{t}]",
                                  [(wp, 1.0), (ws_prev, 1.0)], LE, 1.0)
                    lp.add_constr(f"flip2[{st.id},{t}]",
                                  [(ws, 1.0), (wp_prev, 1.0)], LE, 1.0)

        if use_res:
            c1 = ix[f"C1[{t}]"]
            for g in scn.generators:
                lp.add_constr(f"cg1[{g.id},{t}]",
                              [(c1, 1.0), (ix[f"w[{g.id},{t}]"], -g.p_max)],
                              GE, 0.0)
            for sm in scn.semis:
                if sm.kind != "tie-line":
                    continue
                avail, wcoef = sched_semi[(sm.id, t)]
                coeffs = [(c1, 1.0)]
                if sm.d > 0:
                    coeffs.append((ix[f"cv[{sm.id},{t}]"], -wcoef))
                lp.add_constr(f"ct1[{sm.id},{t}]", coeffs, GE, avail)
            for g in scn.generators:
                rs = ix[f"rS[{g.id},{t}]"]
                ro = ix[f"rO[{g.id},{t}]"]
                wv = ix[f"w[{g.id},{t}]"]
                lp.add_constr(f"tmsr[{g.id},{t}]",
                              [(rs, 1.0), (wv, -g.p_max),
                               (ix[f"P[{g.id},{t}]"], 1.0)], LE, 0.0)
                lp.add_constr(f"tmor[{g.id},{t}]",
                              [(ro, 1.0), (wv, g.p_max)], LE, g.p_max)
            a_tmr = res.alpha_sys_tmr
            for b in net.bubbles:
                gens = [g for g in scn.generators if g.bubble == b]
                if res.alpha_tmsr.get(b, 0.0) > 0:
                    lp.add_constr(
                        f"tmsr_n[{b},{t}]",
                        [(ix[f"rS[{g.id},{t}]"], 1.0) for g in gens] +
                        [(c1, -res.alpha_tmsr[b] * a_tmr)], GE, 0.0)
                if res.alpha_tmor.get(b, 0.0) > 0:
                    lp.add_constr(
                        f"tmor_n[{b},{t}]",
                        [(ix[f"rS[{g.id},{t}]"], 1.0) for g in gens] +
                        [(ix[f"rO[{g.id},{t}]"], 1.0) for g in gens] +
                        [(c1, -res.alpha_tmor[b] * a_tmr)], GE, 0.0)
            all_rs = [(ix[f"rS[{g.id},{t}]"], 1.0) for g in scn.generators]
            all_ro = [(ix[f"rO[{g.id},{t}]"], 1.0) for g in scn.generators]
            if res.alpha_sys_tmsr > 0:
                lp.add_constr(f"tmsr_sys[{t}]",
                              all_rs + [(c1, -res.alpha_sys_tmsr * a_tmr)],
                              GE, 0.0)
            if res.lfr_requirement:
                lp.add_constr(f"tmsr_lfr[{t}]", all_rs, GE,
                              res.alpha_sys_tmsr * a_tmr *
                              res.lfr_requirement)
            if res.alpha_sys_tmor > 0:
                lp.add_constr(f"tmor_sys[{t}]",
                              all_rs + all_ro +
                              [(c1, -res.alpha_sys_tmor * a_tmr)], GE, 0.0)

    # Commitment-window constraints across steps.
    if opt.layer != "sced":
        steps_per_hour = 60.0 / opt.step_minutes
        for g in scn.generators:
            if g.kind == "must-run":
                continue
            pin = None if opt.pinned_w is None else opt.pinned_w.get(g.id)
            if pin is not None:
                continue
            tau_u = max(int(math.ceil(g.t_u * 60.0 / opt.step_minutes)), 1)
            tau_d = max(int(math.ceil(g.t_d * 60.0 / opt.step_minutes)), 1)
            for t in range(T):
                for tau in range(1, tau_u):
                    if t - tau >= 0:
                        lp.add_constr(
                            f"minup[{g.id},{t},{tau}]",
                            [(ix[f"w[{g.id},{t}]"], 1.0),
                             (ix[f"u[{g.id},{t-tau}]"], -1.0)], GE, 0.0)
                for tau in range(1, tau_d):
                    if t - tau >= 0:
                        lp.add_constr(
                            f"mindown[{g.id},{t},{tau}]",
                            [(ix[f"w[{g.id},{t}]"], 1.0),
                             (ix[f"v[{g.id},{t-tau}]"], 1.0)], LE, 1.0)
            # Initial history: finish the current minimum-run window.
            hist = float(init.run_hours.get(g.id, 0.0))
            w0 = float(init.online.get(g.id, 0.0))
            if w0 > 0.5 and hist < g.t_u:
                remain = int(math.ceil((g.t_u - hist) * steps_per_hour))
                for t in range(min(remain, T)):
                    wj = ix[f"w[{g.id},{t}]"]
                    lp.variables[wj].lb = 1.0
            if w0 < 0.5 and -hist < g.t_d:
                remain = int(math.ceil((g.t_d + hist) * steps_per_hour))
                for t in range(min(remain, T)):
                    wj = ix[f"w[{g.id},{t}]"]
                    lp.variables[wj].ub = 0.0
            used = int(init.starts_used.get(g.id, 0))
            ahead = int(init.starts_ahead.get(g.id, 0))
            lp.add_constr(f"maxup[{g.id}]",
                          [(ix[f"u[{g.id},{t}]"], 1.0) for t in range(T)],
                          LE, max(g.u_max - used - ahead, 0))
    return lp, ix


def initial_from_scenario(scn: Scenario) -> InitialState:
    """Day-zero state taken from the scenario's declared unit status."""
    init = InitialState()
    for g in scn.generators:
        on = g.online or g.kind == "must-run"
        init.online[g.id] = 1.0 if on else 0.0
        init.output[g.id] = g.initial_output if on else 0.0
        if on and g.initial_output < g.p_min:
            init.output[g.id] = g.p_min
        hist = g.online_hours
        if hist == 0:
            # No declared history: assume the unit has settled.
            hist = g.t_u if on else -g.t_d
        init.run_hours[g.id] = float(hist)
    for st in scn.storages:
        init.energy[st.id] = st.initial_energy
        init.mode_gen[st.id] = 1.0 if st.mode_gen0 else 0.0
        init.mode_pump[st.id] = 1.0 if st.mode_pump0 else 0.0
    return init


def solve_layer(scn: Scenario, fc: Forecasts, init: InitialState,
                opt: LayerOptions) -> Schedule:
    lp, ix = build_program(scn, fc, init, opt)
    if lp.binary_indices:
        sol = solve_milp(lp)
    else:
        sol = solve_lp(lp)
    if sol.status == "infeasible":
        family = "unknown"
        if sol.infeasible_rows:
            family = sol.infeasible_rows[0].split("[", 1)[0]
        raise DispatchError(
            f"{opt.layer} infeasible; first violated family: {family}")
    if sol.status != "optimal":
        raise DispatchError(f"{opt.layer} solve ended with status {sol.status}")
    return extract_schedule(scn, fc, sol, ix, opt)


def extract_schedule(scn: Scenario, fc: Forecasts, sol: Solution, ix,
                     opt: LayerOptions) -> Schedule:
    T = opt.steps
    sched = Schedule(layer=opt.layer, steps=T, step_minutes=opt.step_minutes,
                     status=sol.status, objective=sol.objective)

    def arr(fmt, rid):
        return np.array([sol.x[ix[fmt.format(rid, t)]] for t in range(T)])

    for g in scn.generators:
        sched.p[g.id] = arr("P[{0},{1}]", g.id)
        if opt.layer == "sced":
            pin = opt.pinned_w[g.id]
            # Segments only price output above the committed floor; add the
            # floor cost back so the objective is the full generation cost.
            pwk = linearize_cost(g.p_min, g.p_max, 1.0, g.h_f, g.h_l, g.h_q,
                                 N_SEGMENTS)
            hours = opt.hour_of_step or [0] * T
            for t in range(T):
                sched.objective += (float(pin[t]) * g.fuel_price(hours[t]) *
                                    pwk.cost_at_min)
            sched.w[g.id] = np.array([float(pin[t]) for t in range(T)])
            sched.u[g.id] = np.zeros(T)
            sched.v[g.id] = np.zeros(T)
        else:
            sched.w[g.id] = np.round(arr("w[{0},{1}]", g.id), 9)
            sched.u[g.id] = arr("u[{0},{1}]", g.id)
            sched.v[g.id] = arr("v[{0},{1}]", g.id)
            if f"rS[{g.id},0]" in ix:
                sched.tmsr[g.id] = arr("rS[{0},{1}]", g.id)
                sched.tmor[g.id] = arr("rO[{0},{1}]", g.id)
    for st in scn.storages:
        if opt.pinned_storage is None:
            sched.storage_gen[st.id] = arr("Ps[{0},{1}]", st.id)
            sched.storage_pump[st.id] = arr("Ss[{0},{1}]", st.id)
            sched.storage_energy[st.id] = arr("Es[{0},{1}]", st.id)
            sched.storage_mode_gen[st.id] = arr("wP[{0},{1}]", st.id)
            sched.storage_mode_pump[st.id] = arr("wS[{0},{1}]", st.id)
        else:
            ps, ss = opt.pinned_storage
            sched.storage_gen[st.id] = np.asarray(ps[st.id], dtype=float)[:T]
            sched.storage_pump[st.id] = np.asarray(ss[st.id], dtype=float)[:T]
    for sm in scn.semis:
        if sm.d > 0:
            sched.curtail[sm.id] = arr("cv[{0},{1}]", sm.id)
        else:
            sched.curtail[sm.id] = np.zeros(T)
    for ld in scn.loads:
        if ld.d > 0:
            sched.shed[ld.bubble] = arr("cl[{0},{1}]", ld.bubble)
    for m in scn.drs:
        sched.dr[m.id] = arr("Pm[{0},{1}]", m.id)
    for b in scn.network.bubbles:
        sched.super_pos[b] = arr("sgP[{0},{1}]", b)
        sched.super_neg[b] = arr("sgN[{0},{1}]", b)
    nb = len(scn.network.branches)
    sched.flows = np.array([[sol.x[ix[f"F[{li},{t}]"]] for li in range(nb)]
                            for t in range(T)])
    if "C1[0]" in ix:
        # The epigraph variable can sit anywhere above the true maximum, so
        # recompute the binding contingency from the committed schedule.
        c1 = np.zeros(T)
        for t in range(T):
            worst = 0.0
            for g in scn.generators:
                worst = max(worst, sched.w[g.id][t] * g.p_max)
            for sm in scn.semis:
                if sm.kind == "tie-line":
                    avail = float(fc.semi[sm.id][t])
                    worst = max(worst,
                                (1.0 - sm.d * sched.curtail[sm.id][t]) * avail)
            c1[t] = worst
        sched.c1 = c1
    else:
        sched.c1 = np.zeros(T)
    return sched
