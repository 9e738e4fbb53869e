"""Closed-loop simulation: layered scheduling over actual 1-minute profiles.

A run is a day-ahead commitment (SCUC) every ``scuc_horizon_h`` hours, a
fast-start commitment window (RTUC) every ``rtuc_period_min`` minutes and
at each outage, an economic dispatch (SCED) every ``sced_step_min``
minutes, and minute-by-minute physics: units ramp linearly toward their
setpoints, the DC network is solved, and the regulation loop responds to
the raw imbalance at the swing bus.  :func:`simulate` does this in three
passes, each doing only what a window or a minute changes:

1. *Inputs.*  Every window's start is known before the first minute, so
   each layer's windows are seeded and forecast at once: one
   ``synthesize_error`` call per entity and layer seeds all the windows'
   error draws as arrays (the same seeds and draws as one generator per
   window), and the windows share one ``LayerInputs``.  From it, the
   values the forecasts, outages and clock hours drive in a layer's
   program are computed for all its windows in one pass, the first time
   the program is filled; each window's fill then writes its row and
   what the state sets.
2. *Dispatch.*  The minutes in order, solving each window as it starts
   and keeping only what feeds the next solve, in one live
   ``InitialState`` of arrays updated in place: commitment, unit outputs,
   hours in the current status (so minimum up and down times carry
   across windows), starts since midnight, and storage energy (which may
   not leave its bounds) and modes as the day-ahead schedule runs them.
   Unit status is evaluated where a commitment step starts or an outage
   begins or ends; outputs follow the ramp each dispatch lays out for its
   interval.  Each SCED leaves the few values the physics reads
   (curtailed and shed fractions, DR output, supergeneration).
3. *Physics.*  From the unit outputs and those values, the per-minute
   injections, then regulation stepped through every minute in one call
   and the network solved for every minute in one stacked solve, summed
   and solved in the order the per-minute loop used, so the trace is
   bitwise the same.
"""

from __future__ import annotations

import json
import os
import zlib
from dataclasses import dataclass, field

import numpy as np

from . import __version__
from .dispatch import (DispatchError, Forecasts, LayerInputs,
                       initial_from_scenario, layer_grid, outage_masks,
                       run_rtuc, run_scuc, run_sced)
from .grid import dc_flow, factor_network, make_regulation, regulation_step
from .profiles import forecast, synthesize_error, write_rows
from .scenario import Scenario, scenario_hash

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


def _layer_forecasts(scn: Scenario, seed: int, layer: str, starts,
                     window_ids) -> list[Forecasts]:
    """Deterministic per-entity forecast blocks for every window of a
    layer, on the layer's step grid: window ``k`` starts at minute
    ``starts[k]`` and draws its errors from the seeds of ``window_ids[k]``.
    Each entity's errors for all the windows come from one
    ``synthesize_error`` call, and the windows share one
    :class:`LayerInputs`."""
    which, kind = _LAYER_EPS[layer], _LAYER_KIND[layer]
    block, n = layer_grid(scn.timing, layer)
    peak = scn.peak_load
    starts = np.asarray(starts, dtype=int)

    def errors(tag: str, eps: float, scale: float) -> np.ndarray:
        return synthesize_error(
            [_entity_seed(seed, tag, layer, w) for w in window_ids], eps,
            1.0, scale, n, kind)

    load = [forecast(ld.profile, starts, block, n,
                     errors(f"load:{ld.bubble}", ld.eps(which), peak))
            for ld in scn.loads]
    semi = [forecast(sm.profile, starts, block, n,
                     errors(f"semi:{sm.id}", sm.eps(which),
                            sm.capacity or peak), sm.capacity or np.inf)
            for sm in scn.semis]
    return LayerInputs.of_layer(scn, layer, starts, load, semi).windows()


def simulate(scn: Scenario, minutes: int,
             seed: int | None = None) -> SimulationTrace:
    """Run the full control cascade for ``minutes`` simulated minutes."""
    t = scn.timing
    if seed is None:
        seed = scn.seed
    net = scn.network
    factor = factor_network(net)
    gens = scn.generators
    reg = make_regulation(gens)
    trace = SimulationTrace(
        minutes=minutes,
        branch_names=[f"{b.from_bubble}-{b.to_bubble}" for b in net.branches],
        interface_names=[i.name for i in net.interfaces],
        reg_units=list(reg.unit_ids))
    trace.reg_saturation = reg.total_saturation

    # --- inputs: every window's start and forecasts ---------------------
    day_min = t.scuc_horizon_h * 60
    rtuc_steps = layer_grid(t, "rtuc")[1]
    emergency: set[int] = set()
    for ev in scn.outages:
        # An outage of no minutes takes nothing out (see outage_masks).
        if ev.start < minutes and ev.duration > 0:
            emergency.add(ev.start)
            nxt = ((ev.start // t.rtuc_step_min) + 1) * t.rtuc_step_min
            emergency.add(nxt)
    scuc_at = range(0, minutes, day_min)
    rtuc_at = sorted({*range(0, minutes, t.rtuc_period_min),
                      *(m for m in emergency if 0 <= m < minutes)})
    sced_at = range(0, minutes, t.sced_step_min)
    scuc_fc = dict(zip(scuc_at, _layer_forecasts(
        scn, seed, "scuc", scuc_at, [m // day_min for m in scuc_at])))
    rtuc_fc = dict(zip(rtuc_at, _layer_forecasts(
        scn, seed, "rtuc", rtuc_at, rtuc_at)))
    sced_fc = _layer_forecasts(scn, seed, "sced", sced_at, sced_at)
    # Per-minute availability, [minute, unit] and [semi, minute]: the run
    # as one window of 1-minute blocks.
    gen_on, semi_on = outage_masks(scn, 0, 1, minutes)

    # --- dispatch: windows in minute order, units ramping between -------
    # The one live state every layer reads, one array per quantity: actual
    # MW, on/off status, run hours and starts per generator, storage energy
    # and modes.
    state = initial_from_scenario(scn)
    online, output = state.online, state.output
    tick = np.where(online > 0.5, 1 / 60, -1 / 60)    # run hours per minute
    # Each layer's program: every window of a layer has the same shape, so
    # the program is refilled for the next window, and the live simplex of
    # its last solve re-solves it in place.
    programs = {}
    # What the physics reads of each SCED: curtailed and shed fractions,
    # DR output and the supergeneration sum; each minute's storage
    # injection and unit outputs [minute, unit].
    curtail = np.zeros((len(sced_at), len(scn.semis)))
    shed = np.zeros((len(sced_at), len(scn.loads)))
    dr_out = np.zeros((len(sced_at), len(scn.drs)))
    supergen = np.zeros(len(sced_at))
    storage = np.zeros((minutes, len(scn.storages)))
    outputs = np.empty((minutes, len(gens)))
    eta = np.array([st_.eta for st_ in scn.storages])
    # The energy storage may carry: its bounds, give or take 1e-6 MWh.
    e_lo = np.array([st_.e_min for st_ in scn.storages]) - 1e-6
    e_hi = np.array([st_.e_max for st_ in scn.storages]) + 1e-6
    # A unit's status can change only where a commitment step starts or
    # where its availability does (``trips``).
    up = gen_on == 1.0
    trips = set((np.flatnonzero((up[1:] != up[:-1]).any(axis=1)) + 1
                 ).tolist())
    # Each minute of a dispatch interval moves its share of the way from
    # the outputs where the interval starts to its setpoints.
    share = np.arange(1, t.sced_step_min + 1)[:, None] / t.sced_step_min

    for m in range(minutes):
        # Starts count against each calendar day's budget.
        if m % 1440 == 0:
            state.starts_used[:] = 0

        # --- day-ahead commitment ---------------------------------------
        if m % day_min == 0:
            day_sched = run_scuc(scn, scuc_fc[m], state, m,
                                 programs.get("scuc"))
            programs["scuc"] = day_sched.program
            trace.events.append(f"{m}: day-ahead commitment")

        # --- same-day fast-start commitment -----------------------------
        if m in rtuc_fc:
            intra = run_rtuc(scn, rtuc_fc[m], state, day_sched, m,
                             programs.get("rtuc"))
            programs["rtuc"] = intra.program
            intra_start = m
            if m in emergency:
                trace.events.append(f"{m}: contingency commitment window")
            # Commitment, starts and stops as rows [step, unit].
            w_on, u_now, v_now = intra.w.T > 0.5, intra.u.T, intra.v.T

        # --- commitment state for this minute ---------------------------
        # A unit that changes status starts its history again; each minute
        # adds to it, on or off.
        interval = min((m - intra_start) // t.rtuc_step_min, rtuc_steps - 1)
        if (m - intra_start) % t.rtuc_step_min == 0 or m in trips:
            on = w_on[interval] & up[m]
            changed = on != online
            if changed.any():
                state.starts_used += on & changed
                output[~on] = 0.0
                online[:] = on
                state.run_hours[changed] = 0.0
                tick = np.where(on, 1 / 60, -1 / 60)
        state.run_hours += tick

        # --- economic dispatch ------------------------------------------
        hour = (m // 60) % t.scuc_horizon_h
        if m % t.sced_step_min == 0:
            k = m // t.sced_step_min
            sced = run_sced(scn, sced_fc[k], state, u_now[interval],
                            v_now[interval],
                            (day_sched.storage_gen[:, hour:hour + 1],
                             day_sched.storage_pump[:, hour:hour + 1]),
                            m, programs.get("sced"))
            programs["sced"] = sced.program
            target = sced.p[:, 0]
            curtail[k] = sced.curtail[:, 0]
            shed[k] = sced.shed[:, 0]
            dr_out[k] = sced.dr[:, 0]
            supergen[k] = sum((sced.super_pos[:, 0] -
                               sced.super_neg[:, 0]).tolist())
            path = output + (target - output) * share
            sced_minute = m

        # --- units ramp toward their setpoints; storage as scheduled ----
        np.copyto(output, path[m - sced_minute], where=on)
        outputs[m] = output
        if len(eta):
            pgen = day_sched.storage_gen[:, hour]
            ppump = day_sched.storage_pump[:, hour]
            storage[m] = pgen - ppump
            state.energy += (eta * ppump - pgen) / 60.0
            state.mode_gen[:] = day_sched.storage_mode_gen[:, hour]
            state.mode_pump[:] = day_sched.storage_mode_pump[:, hour]
            bad = np.flatnonzero((state.energy < e_lo) |
                                 (state.energy > e_hi))
            if len(bad):
                st_, e = scn.storages[bad[0]], state.energy[bad[0]]
                raise DispatchError(
                    f"storage {st_.id}: energy {e:g} MWh outside "
                    f"[{st_.e_min:g}, {st_.e_max:g}] at minute {m}")

    for g, out in zip(gens, outputs.T):
        trace.unit_output[g.id] = out
    _physics(scn, trace, factor, reg, storage, curtail, shed, dr_out,
             supergen, semi_on)
    return trace


def _physics(scn: Scenario, trace: SimulationTrace, factor, reg, storage,
             curtail, shed, dr_out, supergen, semi_on) -> None:
    """Fill the trace's balance, regulation and flow series from the unit
    outputs, the storage injections and what each SCED decided.

    Every series is summed in the per-minute order: per bubble, generators,
    storage, DR, semis and loads, each in scenario order; the raw imbalance
    is the bubbles' injections summed in bubble order.  Regulation then
    steps through every minute and the network is solved once per minute,
    as one stacked solve.
    """
    minutes = trace.minutes
    net = scn.network
    clock = np.arange(minutes)
    sced = clock // scn.timing.sced_step_min      # each minute's SCED
    injections = {b: np.zeros(minutes) for b in net.bubbles}
    generation = np.zeros(minutes)
    for g in scn.generators:
        out = trace.unit_output[g.id]
        injections[g.bubble] += out
        generation += out
    for k, st_ in enumerate(scn.storages):
        injections[st_.bubble] += storage[:, k]
        generation += storage[:, k]
    for k, dr in enumerate(scn.drs):
        injections[dr.bubble] += dr_out[sced, k]
        generation += dr_out[sced, k]
    available = np.zeros(minutes)
    delivered = np.zeros(minutes)
    for k, sm in enumerate(scn.semis):
        avail = sm.profile.values[np.minimum(clock, len(sm.profile) - 1)]
        avail = np.where(semi_on[k] == 0.0, 0.0, avail)
        deliv = (1.0 - sm.d * curtail[sced, k]) * avail
        injections[sm.bubble] += deliv
        available += avail
        delivered += deliv
    load = np.zeros(minutes)
    shed_mw = np.zeros(minutes)
    for k, ld in enumerate(scn.loads):
        actual = ld.profile.values[np.minimum(clock, len(ld.profile) - 1)]
        served = (1.0 - ld.d * shed[sced, k]) * actual
        shed_mw += actual - served
        # Losses scale the physical withdrawal.
        injections[ld.bubble] -= (1.0 + scn.gamma_loss) * served
        load += served

    i_raw = sum(injections.values())
    trace.imbalance = regulation_step(i_raw, reg, trace.regulation)
    for i, bub in enumerate(reg.bubbles):
        injections[bub] += trace.regulation[:, i]
    gs = dc_flow(factor, injections)

    trace.imbalance_raw = i_raw
    trace.load = load
    trace.generation = generation
    trace.ver_available = available
    trace.ver_delivered = delivered
    trace.shed = shed_mw
    trace.supergen = supergen[sced]
    trace.flows = gs.branch_flows
    for i, name in enumerate(trace.interface_names):
        flow, limit = gs.interface_flows[name]
        trace.interface_flow[:, i] = flow
        trace.interface_limit[:, i] = limit


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
               [trace.imbalance_raw, trace.imbalance,
                trace.regulation.sum(axis=1), trace.load, trace.generation,
                trace.ver_available, trace.ver_delivered, trace.shed,
                trace.supergen], unsigned=True)
    write_rows(os.path.join(outdir, "flows.csv"),
               ["minute"] + [f"flow:{b}" for b in trace.branch_names]
               + [f"iface:{n}" for n in trace.interface_names]
               + [f"limit:{n}" for n in trace.interface_names], m,
               [trace.flows, trace.interface_flow, trace.interface_limit],
               unsigned=True)
    write_rows(os.path.join(outdir, "regulation.csv"),
               ["minute"] + trace.reg_units, m, [trace.regulation],
               unsigned=True)
    ids = sorted(trace.unit_output)
    write_rows(os.path.join(outdir, "units.csv"), ["minute"] + ids, m,
               [trace.unit_output[g] for g in ids], unsigned=True)
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


# The series read_trace returns, by the file that holds them.
_TRACE_FILES = {
    "trace.csv": ("imbalance_raw", "imbalance", "load", "generation",
                  "ver_available", "ver_delivered", "shed", "supergen"),
    "flows.csv": ("flows", "interface_flow", "interface_limit"),
    "regulation.csv": ("regulation",),
    "units.csv": ("unit_output",),
}
SERIES = tuple(s for held in _TRACE_FILES.values() for s in held)
_FLOW_GROUPS = {"flow": "flows", "iface": "interface_flow",
                "limit": "interface_limit"}


def _column_series(name: str, column: str) -> str | None:
    """The series that column ``column`` of trace file ``name`` belongs
    to.  trace.csv's ``regulation_mw`` is the sum of regulation.csv's
    columns, so it belongs to none."""
    if name == "trace.csv":
        return None if column == "regulation_mw" \
            else column.removesuffix("_mw")
    if name == "flows.csv":
        return _FLOW_GROUPS[column.split(":", 1)[0]]
    return _TRACE_FILES[name][0]


def read_trace(outdir: str,
               series: tuple[str, ...] | None = None) -> SimulationTrace:
    """Rebuild a trace from the CSV set written by write_trace.

    ``series`` names the SERIES to return, all of them when None.  Only
    their columns are converted, by one ``np.loadtxt`` per file; a minute
    column never is.  A named group with no columns has shape
    ``(minutes, 0)``.  A series not named is None, and a file holding none
    of the named ones is not opened: the names it lists (branches and
    interfaces in flows.csv, regulation units in regulation.csv) are then
    empty.
    """
    want = set(SERIES if series is None else series)
    heads = {name: [] for name in _TRACE_FILES}
    values = {}
    m = 0
    for name, held in _TRACE_FILES.items():
        use = [s for s in held if s in want]
        if not use:
            continue
        with open(os.path.join(outdir, name), encoding="utf-8") as fh:
            heads[name] = fh.readline().strip().split(",")[1:]
            cols = {s: [] for s in use}
            for i, h in enumerate(heads[name], start=1):
                s = _column_series(name, h)
                if s in cols:
                    cols[s].append(i)
            usecols = [i for s in use for i in cols[s]]
            data = np.loadtxt(fh, delimiter=",", usecols=usecols, ndmin=2) \
                if usecols else np.empty((sum(1 for _ in fh), 0))
        m = len(data)
        at = 0
        for s in use:
            block = data[:, at:at + len(cols[s])]
            at += len(cols[s])
            if name == "trace.csv":
                values[s] = block[:, 0]
            elif s == "unit_output":
                values[s] = dict(zip(heads[name], block.T))
            else:
                values[s] = block
    flows = [h.split(":", 1) for h in heads["flows.csv"]]
    tr = SimulationTrace(
        minutes=m, branch_names=[n for g, n in flows if g == "flow"],
        interface_names=[n for g, n in flows if g == "iface"],
        reg_units=heads["regulation.csv"])
    for s in SERIES:
        setattr(tr, s, values.get(s))
    return tr
