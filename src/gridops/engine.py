"""Closed-loop simulation: layered scheduling over actual 1-minute profiles.

Each day starts with an hourly commitment run; every hour a 15-minute
commitment window re-optimizes fast-start units against fresher forecasts;
every 10 minutes an economic dispatch issues setpoints; every minute units
ramp linearly toward their setpoints, the DC network is solved, and the
regulation loop responds to the raw imbalance at the swing bus.
"""

from __future__ import annotations

import json
import os
import zlib
from dataclasses import dataclass, field

import numpy as np

from . import __version__
from .dispatch import Forecasts, InitialState, initial_from_scenario
from .grid import dc_flow, factor_network, make_regulation, regulation_step
from .profiles import forecast, synthesize_error, write_rows
from .rtuc import run_rtuc
from .scenario import Scenario, scenario_hash
from .sced import run_sced
from .scuc import run_scuc

_LAYER_EPS = {"scuc": 0, "rtuc": 1, "sced": 2}
_LAYER_KIND = {"scuc": "day-ahead", "rtuc": "short-term", "sced": "real-time"}


@dataclass
class SimulationTrace:
    minutes: int
    branch_names: list[str]
    interface_names: list[str]
    reg_units: list[str]
    imbalance_raw: np.ndarray = None
    imbalance: np.ndarray = None
    regulation: np.ndarray = None          # minutes x reg units, MW
    load: np.ndarray = None                # physical MW withdrawn
    generation: np.ndarray = None
    ver_available: np.ndarray = None
    ver_delivered: np.ndarray = None
    shed: np.ndarray = None
    supergen: np.ndarray = None
    flows: np.ndarray = None               # minutes x branches
    interface_flow: np.ndarray = None      # minutes x interfaces
    interface_limit: np.ndarray = None
    unit_output: dict[str, np.ndarray] = field(default_factory=dict)
    reg_saturation: float = 0.0
    events: list[str] = field(default_factory=list)

    def __post_init__(self):
        m = self.minutes
        for name in ("imbalance_raw", "imbalance", "load", "generation",
                     "ver_available", "ver_delivered", "shed", "supergen"):
            if getattr(self, name) is None:
                setattr(self, name, np.zeros(m))
        if self.regulation is None:
            self.regulation = np.zeros((m, len(self.reg_units)))
        if self.flows is None:
            self.flows = np.zeros((m, len(self.branch_names)))
        if self.interface_flow is None:
            self.interface_flow = np.zeros((m, len(self.interface_names)))
        if self.interface_limit is None:
            self.interface_limit = np.zeros((m, len(self.interface_names)))

    def curtailment(self) -> np.ndarray:
        return self.ver_available - self.ver_delivered

    def net_load(self) -> np.ndarray:
        return self.load - self.ver_delivered


def _entity_seed(master: int, entity: str, layer: str, window: int) -> int:
    tag = f"{entity}|{layer}|{window}".encode()
    return (int(master) * 1_000_003 + zlib.crc32(tag)) % (2 ** 31)


def _forecasts(scn: Scenario, seed: int, peak: float, layer: str, m0: int,
               block: int, n: int, window_id: int) -> Forecasts:
    """Deterministic per-entity forecast blocks for one layer window."""
    which = _LAYER_EPS[layer]
    kind = _LAYER_KIND[layer]
    load = {}
    for ld in scn.loads:
        err = synthesize_error(
            _entity_seed(seed, f"load:{ld.bubble}", layer, window_id),
            ld.eps(which), 1.0, peak, n, kind)
        load[ld.bubble] = forecast(ld.profile, m0, block, n, err)
    semi = {}
    for sm in scn.semis:
        err = synthesize_error(
            _entity_seed(seed, f"semi:{sm.id}", layer, window_id),
            sm.eps(which), 1.0, sm.capacity or peak, n, kind)
        semi[sm.id] = forecast(sm.profile, m0, block, n, err,
                               sm.capacity or np.inf)
    return Forecasts(load=load, semi=semi)


def outage_masks(scn: Scenario, m0: int, block: int, n: int):
    """Per-block outage masks of generators and semi resources over the
    window [m0, m0 + n*block); a resource is out for a whole block if any
    outage overlaps it.  Resources not out in the window are left out.
    With ``block`` 1 the masks are per-minute on/off status."""
    gen, semi = {}, {}
    gen_ids = {g.id for g in scn.generators}
    semi_ids = {s.id for s in scn.semis}
    lo = m0 + block * np.arange(n)
    for ev in scn.outages:
        mask = ((lo < ev.start + ev.duration) &
                (lo + block > ev.start)).astype(float)
        if not mask.any():
            continue
        if ev.resource in gen_ids:
            gen[ev.resource] = np.maximum(gen.get(ev.resource, 0.0), mask)
        elif ev.resource in semi_ids:
            semi[ev.resource] = np.maximum(semi.get(ev.resource, 0.0), mask)
    return gen, semi


def simulate(scn: Scenario, minutes: int,
             seed: int | None = None) -> SimulationTrace:
    """Run the full control cascade for ``minutes`` simulated minutes."""
    t = scn.timing
    if seed is None:
        seed = scn.seed
    peak = scn.peak_load
    net = scn.network
    factor = factor_network(net)
    gamma = scn.gamma_loss

    gens = scn.generators
    reg = make_regulation(gens)
    trace = SimulationTrace(
        minutes=minutes,
        branch_names=[f"{b.from_bubble}-{b.to_bubble}" for b in net.branches],
        interface_names=[i.name for i in net.interfaces],
        reg_units=list(reg.unit_ids))
    trace.reg_saturation = reg.total_saturation
    for g in gens:
        trace.unit_output[g.id] = np.zeros(minutes)

    state = initial_from_scenario(scn)
    output = dict(state.output)          # actual MW per generator
    online = dict(state.online)
    starts_used: dict[str, int] = {g.id: 0 for g in gens}

    day_sched = None
    intra = None
    intra_start = 0
    sced_now = None
    sced_base: dict[str, float] = {}
    sced_minute = 0
    rtuc_steps = t.rtuc_horizon_min // t.rtuc_step_min
    emergency: set[int] = set()
    for ev in scn.outages:
        if ev.start < minutes:
            emergency.add(ev.start)
            nxt = ((ev.start // t.rtuc_step_min) + 1) * t.rtuc_step_min
            emergency.add(nxt)
    # Per-minute on/off status: the run as one window of 1-minute blocks.
    gen_out, semi_out = outage_masks(scn, 0, 1, minutes)
    # Each layer's last optimal basis and its program: every window of a
    # layer has the same shape, so the basis starts the next window and
    # the program is refilled for it.
    bases, programs = {}, {}

    def current_state() -> InitialState:
        st = InitialState(online=dict(online), output=dict(output),
                          run_hours=dict(state.run_hours),
                          starts_used=dict(starts_used),
                          energy=dict(state.energy),
                          mode_gen=dict(state.mode_gen),
                          mode_pump=dict(state.mode_pump))
        return st

    for m in range(minutes):
        # --- day-ahead commitment ---------------------------------------
        if m % (t.scuc_horizon_h * 60) == 0:
            og, os_ = outage_masks(scn, m, 60, t.scuc_horizon_h)
            fc = _forecasts(scn, seed, peak, "scuc", m, 60, t.scuc_horizon_h,
                            m // (t.scuc_horizon_h * 60))
            day_sched = run_scuc(scn, fc, current_state(), og, os_,
                                 basis=bases.get("scuc"),
                                 program=programs.get("scuc"))
            bases["scuc"], programs["scuc"] = day_sched.basis, \
                day_sched.program
            starts_used = {g.id: 0 for g in gens}
            trace.events.append(f"{m}: day-ahead commitment")

        # --- same-day fast-start commitment -----------------------------
        if m % t.rtuc_period_min == 0 or m in emergency:
            og, os_ = outage_masks(scn, m, t.rtuc_step_min, rtuc_steps)
            fc = _forecasts(scn, seed, peak, "rtuc", m, t.rtuc_step_min,
                            rtuc_steps, m)
            intra = run_rtuc(scn, fc, current_state(), day_sched, m,
                             og, os_, basis=bases.get("rtuc"),
                             program=programs.get("rtuc"))
            bases["rtuc"], programs["rtuc"] = intra.basis, intra.program
            intra_start = m
            if m in emergency:
                trace.events.append(f"{m}: contingency commitment window")

        # --- commitment state for this minute ---------------------------
        interval = min((m - intra_start) // t.rtuc_step_min, rtuc_steps - 1)
        for g in gens:
            w_now = float(intra.w[g.id][interval] > 0.5)
            if g.id in gen_out and gen_out[g.id][m]:
                w_now = 0.0
            if w_now > 0.5 and online.get(g.id, 0.0) < 0.5:
                starts_used[g.id] = starts_used.get(g.id, 0) + 1
                output[g.id] = max(output.get(g.id, 0.0), 0.0)
            if w_now < 0.5:
                output[g.id] = 0.0
            online[g.id] = w_now

        # --- economic dispatch ------------------------------------------
        if m % t.sced_step_min == 0:
            og, os_ = outage_masks(scn, m, t.sced_step_min, 1)
            fc = _forecasts(scn, seed, peak, "sced", m, t.sced_step_min, 1, m)
            commitment = {g.id: online[g.id] for g in gens}
            starts = {g.id: float(intra.u[g.id][interval]) for g in gens}
            stops = {g.id: float(intra.v[g.id][interval]) for g in gens}
            hour = (m // 60) % (t.scuc_horizon_h)
            ps = {st_.id: np.array([day_sched.storage_gen[st_.id][hour]])
                  for st_ in scn.storages}
            ss = {st_.id: np.array([day_sched.storage_pump[st_.id][hour]])
                  for st_ in scn.storages}
            sced_now = run_sced(scn, fc, current_state(), commitment,
                                starts, stops, (ps, ss), m, og, os_,
                                basis=bases.get("sced"),
                                program=programs.get("sced"))
            bases["sced"], programs["sced"] = sced_now.basis, \
                sced_now.program
            sced_base = dict(output)
            sced_minute = m

        # --- minute physics ---------------------------------------------
        frac = (m - sced_minute + 1) / t.sced_step_min
        injections = {b: 0.0 for b in net.bubbles}
        gen_total = 0.0
        for g in gens:
            if online[g.id] > 0.5:
                target = float(sced_now.p[g.id][0])
                base = sced_base.get(g.id, 0.0)
                output[g.id] = base + (target - base) * min(frac, 1.0)
            trace.unit_output[g.id][m] = output[g.id]
            injections[g.bubble] += output[g.id]
            gen_total += output[g.id]
        for st_ in scn.storages:
            hour = (m // 60) % t.scuc_horizon_h
            pgen = float(day_sched.storage_gen[st_.id][hour])
            ppump = float(day_sched.storage_pump[st_.id][hour])
            injections[st_.bubble] += pgen - ppump
            gen_total += pgen - ppump
            state.energy[st_.id] += (st_.eta * ppump - pgen) / 60.0
        for dr in scn.drs:
            val = float(sced_now.dr[dr.id][0])
            injections[dr.bubble] += val
            gen_total += val
        avail_tot = 0.0
        deliv_tot = 0.0
        for sm in scn.semis:
            avail = float(sm.profile.values[min(m, len(sm.profile) - 1)])
            if sm.id in semi_out and semi_out[sm.id][m]:
                avail = 0.0
            cfrac = float(sced_now.curtail[sm.id][0])
            delivered = (1.0 - sm.d * cfrac) * avail
            injections[sm.bubble] += delivered
            avail_tot += avail
            deliv_tot += delivered
        shed_tot = 0.0
        load_tot = 0.0
        for ld in scn.loads:
            actual = float(ld.profile.values[min(m, len(ld.profile) - 1)])
            sfrac = float(sced_now.shed.get(ld.bubble, np.zeros(1))[0])
            served = (1.0 - ld.d * sfrac) * actual
            shed_tot += actual - served
            # Losses scale the physical withdrawal.
            injections[ld.bubble] -= (1.0 + gamma) * served
            load_tot += served
        sg = float(sum(sced_now.super_pos[b][0] - sced_now.super_neg[b][0]
                       for b in net.bubbles))

        i_raw = float(sum(injections.values()))
        residual = regulation_step(i_raw, reg)
        for bub, gval in zip(reg.bubbles, reg.g):
            injections[bub] += gval
        gs = dc_flow(factor, injections)

        trace.imbalance_raw[m] = i_raw
        trace.imbalance[m] = residual
        trace.regulation[m, :] = reg.g
        trace.load[m] = load_tot
        trace.generation[m] = gen_total
        trace.ver_available[m] = avail_tot
        trace.ver_delivered[m] = deliv_tot
        trace.shed[m] = shed_tot
        trace.supergen[m] = sg
        trace.flows[m, :] = gs.branch_flows
        for i, name in enumerate(trace.interface_names):
            flow, limit = gs.interface_flows[name]
            trace.interface_flow[m, i] = flow
            trace.interface_limit[m, i] = limit
    return trace


def _unsigned(values) -> np.ndarray:
    """Copy of ``values`` with every entry that would print as -0.000000
    set to +0, so rounding noise below 5e-7 cannot flip output bytes."""
    out = np.array(values, dtype=float)
    out[(out <= 0.0) & (out >= -5e-7)] = 0.0
    return out


def write_trace(outdir: str, trace: SimulationTrace, scn: Scenario,
                seed: int, scenario_path: str | None = None) -> None:
    """Write ``trace.csv``, ``flows.csv``, ``regulation.csv``, ``units.csv``
    and ``manifest.json`` into ``outdir``.

    Each CSV has one row per minute: the minute as an integer, then every
    value printed as ``%.6f``.  A value in [-5e-7, 0] is printed as
    ``0.000000``, so rounding noise cannot flip a sign in the output bytes.
    """
    os.makedirs(outdir, exist_ok=True)
    m = trace.minutes
    write_rows(os.path.join(outdir, "trace.csv"),
               ["minute", "imbalance_raw_mw", "imbalance_mw", "regulation_mw",
                "load_mw", "generation_mw", "ver_available_mw",
                "ver_delivered_mw", "shed_mw", "supergen_mw"], m,
               [_unsigned(a) for a in (
                   trace.imbalance_raw, trace.imbalance,
                   trace.regulation.sum(axis=1), trace.load, trace.generation,
                   trace.ver_available, trace.ver_delivered, trace.shed,
                   trace.supergen)])
    write_rows(os.path.join(outdir, "flows.csv"),
               ["minute"] + [f"flow:{b}" for b in trace.branch_names]
               + [f"iface:{n}" for n in trace.interface_names]
               + [f"limit:{n}" for n in trace.interface_names], m,
               [_unsigned(trace.flows), _unsigned(trace.interface_flow),
                _unsigned(trace.interface_limit)])
    write_rows(os.path.join(outdir, "regulation.csv"),
               ["minute"] + trace.reg_units, m, [_unsigned(trace.regulation)])
    ids = sorted(trace.unit_output)
    write_rows(os.path.join(outdir, "units.csv"), ["minute"] + ids, m,
               [_unsigned(trace.unit_output[g]) for g in ids])
    manifest = {
        "scenario_hash": scenario_hash(scenario_path) if scenario_path
        else None,
        "seed": int(seed),
        "version": __version__,
        "minutes": trace.minutes,
    }
    with open(os.path.join(outdir, "manifest.json"), "w",
              encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


def read_trace(outdir: str) -> SimulationTrace:
    """Rebuild a trace from the CSV set written by write_trace."""
    def load(name):
        path = os.path.join(outdir, name)
        with open(path, encoding="utf-8") as fh:
            header = fh.readline().strip().split(",")
        data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
        return header, data

    head, main = load("trace.csv")
    fhead, fdata = load("flows.csv")
    rhead, rdata = load("regulation.csv")
    uhead, udata = load("units.csv")
    branch = [h.split(":", 1)[1] for h in fhead if h.startswith("flow:")]
    iface = [h.split(":", 1)[1] for h in fhead if h.startswith("iface:")]
    m = main.shape[0]
    tr = SimulationTrace(minutes=m, branch_names=branch,
                         interface_names=iface, reg_units=rhead[1:])
    col = {name: i for i, name in enumerate(head)}
    tr.imbalance_raw = main[:, col["imbalance_raw_mw"]]
    tr.imbalance = main[:, col["imbalance_mw"]]
    tr.load = main[:, col["load_mw"]]
    tr.generation = main[:, col["generation_mw"]]
    tr.ver_available = main[:, col["ver_available_mw"]]
    tr.ver_delivered = main[:, col["ver_delivered_mw"]]
    tr.shed = main[:, col["shed_mw"]]
    tr.supergen = main[:, col["supergen_mw"]]
    nb, ni = len(branch), len(iface)
    tr.flows = fdata[:, 1:1 + nb]
    tr.interface_flow = fdata[:, 1 + nb:1 + nb + ni]
    tr.interface_limit = fdata[:, 1 + nb + ni:1 + nb + 2 * ni]
    tr.regulation = rdata[:, 1:] if rdata.shape[1] > 1 else np.zeros((m, 0))
    for i, gid in enumerate(uhead[1:]):
        tr.unit_output[gid] = udata[:, 1 + i]
    return tr
