"""The three-pass cascade (inputs, dispatch, physics) produces exactly the
trace of the per-minute cascade it replaced, which is kept below as the
reference: window-by-window forecasts, and the network and regulation
solved inside the minute loop."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings

import gridops.engine as engine
from gridops.dispatch import (DispatchError, Forecasts, InitialState,
                              initial_from_scenario, run_rtuc, run_scuc,
                              run_sced)
from gridops.engine import (_LAYER_EPS, _LAYER_KIND, SimulationTrace,
                            _entity_seed, outage_masks)
from gridops.grid import (GridError, GridState, RegulationState, dc_flow,
                          factor_network, make_regulation, regulation_step)
from gridops.lp import GE, LE, solve_lp
from gridops.mini import write_mini3
from gridops.profiles import (Profile, ProfileError, forecast,
                              synthesize_error)
from gridops.scenario import Branch, Interface, ZonalNetwork
from shared import MINUTES, Builder, perturbations, perturbed


# -- reference cascade, one minute at a time -------------------------------

def ref_forecast(p: Profile, m0: int, block_minutes: int, n_blocks: int,
                 errors=0.0, capacity: float = np.inf) -> np.ndarray:
    if block_minutes <= 0:
        raise ProfileError("block duration must be positive")
    idx = np.clip(m0 + np.arange(n_blocks * block_minutes), 0, len(p) - 1)
    best = p.values[idx].reshape(n_blocks, block_minutes).mean(axis=1)
    return np.clip(best - np.asarray(errors, dtype=float), 0.0, capacity)


def ref_dc_flow(factor, injections: dict[str, float]) -> GridState:
    p = np.zeros(len(factor.index))
    for b, mw in injections.items():
        p[factor.index[b]] += mw
    theta = np.zeros(len(p))
    theta[factor.keep] = np.linalg.solve(factor.reduced, p[factor.keep])

    a, b = factor.edge_from, factor.edge_to
    flows = factor.weight * (theta[a] - theta[b])
    iface = {name: (sum(sign * flows[bi] for bi, sign in members), limit)
             for name, limit, members in factor.interfaces}

    exchange = float(sum(injections.values()))
    return GridState(branch_flows=flows, interface_flows=iface,
                     swing_exchange=exchange)


def ref_regulation_step(imbalance: float, reg: RegulationState) -> float:
    if len(reg.unit_ids):
        psum = float(reg.participation.sum())
        if reg.saturation.sum() > 0 and abs(psum - 1.0) > 1e-9:
            raise GridError(f"participation factors sum to {psum}")
        target = -imbalance * reg.participation
        delta = np.clip(target - reg.g, -reg.rate, reg.rate)
        reg.g = np.clip(reg.g + delta, -reg.saturation, reg.saturation)
    return imbalance + reg.total


def ref_forecasts(scn, seed: int, peak: float, layer: str, m0: int,
                  block: int, n: int, window_id: int) -> Forecasts:
    which = _LAYER_EPS[layer]
    kind = _LAYER_KIND[layer]
    load = []
    for ld in scn.loads:
        err = synthesize_error(
            _entity_seed(seed, f"load:{ld.bubble}", layer, window_id),
            ld.eps(which), 1.0, peak, n, kind)
        load.append(ref_forecast(ld.profile, m0, block, n, err))
    semi = []
    for sm in scn.semis:
        err = synthesize_error(
            _entity_seed(seed, f"semi:{sm.id}", layer, window_id),
            sm.eps(which), 1.0, sm.capacity or peak, n, kind)
        semi.append(ref_forecast(sm.profile, m0, block, n, err,
                                 sm.capacity or np.inf))
    return Forecasts(load=np.array(load).reshape(-1, n),
                     semi=np.array(semi).reshape(-1, n))


def ref_simulate(scn, minutes: int, seed: int | None = None):
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
    output = state.output.tolist()       # actual MW per generator
    online = state.online.tolist()
    run_hours = state.run_hours.tolist()
    starts_used = [0] * len(gens)

    day_sched = None
    intra = None
    intra_start = 0
    sced_now = None
    sced_base = [0.0] * len(gens)
    sced_minute = 0
    back = [False] * len(gens)      # came back on inside the interval
    rtuc_steps = t.rtuc_horizon_min // t.rtuc_step_min
    emergency: set[int] = set()
    for ev in scn.outages:
        if ev.start < minutes and ev.duration > 0:
            emergency.add(ev.start)
            nxt = ((ev.start // t.rtuc_step_min) + 1) * t.rtuc_step_min
            emergency.add(nxt)
    gen_on, semi_on = outage_masks(scn, 0, 1, minutes)
    programs = {}

    def current_state() -> InitialState:
        return InitialState(online=np.array(online), output=np.array(output),
                            run_hours=np.array(run_hours),
                            starts_used=np.array(starts_used),
                            energy=state.energy.copy(),
                            mode_gen=state.mode_gen.copy(),
                            mode_pump=state.mode_pump.copy())

    for m in range(minutes):
        if m % 1440 == 0:
            starts_used = [0] * len(gens)
        if m % (t.scuc_horizon_h * 60) == 0:
            fc = ref_forecasts(scn, seed, peak, "scuc", m, 60,
                               t.scuc_horizon_h, m // (t.scuc_horizon_h * 60))
            day_sched = run_scuc(scn, fc, current_state(), m,
                                 program=programs.get("scuc"))
            programs["scuc"] = day_sched.program
            trace.events.append(f"{m}: day-ahead commitment")

        if m % t.rtuc_period_min == 0 or m in emergency:
            fc = ref_forecasts(scn, seed, peak, "rtuc", m, t.rtuc_step_min,
                               rtuc_steps, m)
            intra = run_rtuc(scn, fc, current_state(), day_sched, m,
                             program=programs.get("rtuc"))
            programs["rtuc"] = intra.program
            intra_start = m
            if m in emergency:
                trace.events.append(f"{m}: contingency commitment window")

        interval = min((m - intra_start) // t.rtuc_step_min, rtuc_steps - 1)
        for k, g in enumerate(gens):
            w_now = float(intra.w[k][interval] > 0.5)
            if gen_on[m, k] == 0.0:
                w_now = 0.0
            if w_now > 0.5 and online[k] < 0.5:
                starts_used[k] += 1
                output[k] = max(output[k], 0.0)
                back[k] = True
            if w_now < 0.5:
                output[k] = 0.0
            if w_now != online[k]:
                run_hours[k] = 0.0
            run_hours[k] += 1 / 60 if w_now > 0.5 else -1 / 60
            online[k] = w_now

        if m % t.sced_step_min == 0:
            fc = ref_forecasts(scn, seed, peak, "sced", m, t.sced_step_min,
                               1, m)
            starts = np.array([float(intra.u[k][interval])
                               for k in range(len(gens))])
            stops = np.array([float(intra.v[k][interval])
                              for k in range(len(gens))])
            hour = (m // 60) % (t.scuc_horizon_h)
            ps = np.array([[day_sched.storage_gen[k][hour]]
                           for k in range(len(scn.storages))]).reshape(-1, 1)
            ss = np.array([[day_sched.storage_pump[k][hour]]
                           for k in range(len(scn.storages))]).reshape(-1, 1)
            sced_now = run_sced(scn, fc, current_state(), starts, stops,
                                (ps, ss), m, program=programs.get("sced"))
            programs["sced"] = sced_now.program
            sced_base = list(output)
            sced_minute = m
            back = [False] * len(gens)

        frac = (m - sced_minute + 1) / t.sced_step_min
        injections = {b: 0.0 for b in net.bubbles}
        gen_total = 0.0
        for k, g in enumerate(gens):
            if online[k] > 0.5:
                target = float(sced_now.p[k][0])
                base = sced_base[k]
                goal = base + (target - base) * min(frac, 1.0)
                if back[k]:
                    # From 0 MW toward the path, within the ramp rates.
                    goal = output[k] + float(np.clip(goal - output[k],
                                                     g.r_min, g.r_max))
                output[k] = goal
            trace.unit_output[g.id][m] = output[k]
            injections[g.bubble] += output[k]
            gen_total += output[k]
        for k, st_ in enumerate(scn.storages):
            hour = (m // 60) % t.scuc_horizon_h
            pgen = float(day_sched.storage_gen[k][hour])
            ppump = float(day_sched.storage_pump[k][hour])
            injections[st_.bubble] += pgen - ppump
            gen_total += pgen - ppump
            state.energy[k] += (st_.eta * ppump - pgen) / 60.0
            state.mode_gen[k] = day_sched.storage_mode_gen[k][hour]
            state.mode_pump[k] = day_sched.storage_mode_pump[k][hour]
        for k, dr in enumerate(scn.drs):
            val = float(sced_now.dr[k][0])
            injections[dr.bubble] += val
            gen_total += val
        avail_tot = 0.0
        deliv_tot = 0.0
        for k, sm in enumerate(scn.semis):
            avail = float(sm.profile.values[min(m, len(sm.profile) - 1)])
            if semi_on[k, m] == 0.0:
                avail = 0.0
            cfrac = float(sced_now.curtail[k][0])
            delivered = (1.0 - sm.d * cfrac) * avail
            injections[sm.bubble] += delivered
            avail_tot += avail
            deliv_tot += delivered
        shed_tot = 0.0
        load_tot = 0.0
        for k, ld in enumerate(scn.loads):
            actual = float(ld.profile.values[min(m, len(ld.profile) - 1)])
            sfrac = float(sced_now.shed[k][0])
            served = (1.0 - ld.d * sfrac) * actual
            shed_tot += actual - served
            injections[ld.bubble] -= (1.0 + gamma) * served
            load_tot += served
        sg = float(sum(sced_now.super_pos[k][0] - sced_now.super_neg[k][0]
                       for k in range(len(net.bubbles))))

        i_raw = float(sum(injections.values()))
        residual = ref_regulation_step(i_raw, reg)
        for bub, gval in zip(reg.bubbles, reg.g):
            injections[bub] += gval
        gs = ref_dc_flow(factor, injections)

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


# -- perturbed mini3 scenarios ---------------------------------------------

@pytest.fixture(scope="module")
def mini(tmp_path_factory):
    path = str(tmp_path_factory.mktemp("scn") / "mini3.scn")
    write_mini3(path, days=1)
    return path


def outcome(run, path, p):
    """The trace of ``run`` on the scenario, or the error it raised."""
    try:
        return run(perturbed(path, p), MINUTES, seed=p["seed"])
    except (DispatchError, GridError) as exc:
        return type(exc), str(exc)


ARRAYS = ("imbalance_raw", "imbalance", "regulation", "load", "generation",
          "ver_available", "ver_delivered", "shed", "supergen", "flows",
          "interface_flow", "interface_limit")


@settings(max_examples=25)
@given(p=perturbations())
# gas2 comes back at minute 5, inside the dispatch interval of minutes
# 0-9, and ramps up from 0 MW.
@example(p=dict(timing=0, eps="zero", reg_units=1, storage=False, dr=False,
                shed=0.0, sun_d=1.0, tie=False, mesh=False, pair=False,
                gamma=0.0, outages=[("gas2", 3, 2)], seed=7, t_u=1, t_d=1,
                u_max=1, mid=False))
def test_passes_give_the_bytes_of_the_minute_loop(mini, p):
    want = outcome(ref_simulate, mini, p)
    got = outcome(engine.simulate, mini, p)
    if isinstance(want, tuple):
        assert got == want
        return
    for name in ARRAYS:
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.shape == b.shape, name
        assert a.tobytes() == b.tobytes(), name
    assert list(got.unit_output) == list(want.unit_output)
    for gid, out in want.unit_output.items():
        assert got.unit_output[gid].tobytes() == out.tobytes(), gid
    assert got.events == want.events
    assert got.reg_units == want.reg_units
    assert got.reg_saturation == want.reg_saturation


def test_perturbations_cover_every_family(mini):
    # The richest draw runs to the end: storage, DR, a sheddable load, a
    # partly curtailable solar unit and a tie-line, eight regulating
    # units, a meshed network with a two-member interface, and outages.
    p = dict(timing=1, eps="default", reg_units=8, storage=True, dr=True,
             shed=0.2, sun_d=0.5, tie=True, mesh=True, pair=True,
             gamma=0.02, outages=[("gas2", 25, 30), ("sun1", 60, 20)],
             seed=3, t_u=1, t_d=1, u_max=6, mid=False)
    want = outcome(ref_simulate, mini, p)
    assert isinstance(want, SimulationTrace)
    assert want.regulation.shape == (MINUTES, 8)
    assert want.flows.shape == (MINUTES, 3)
    assert want.interface_flow.shape == (MINUTES, 2)
    got = outcome(engine.simulate, mini, p)
    for name in ARRAYS:
        assert getattr(got, name).tobytes() == getattr(want, name).tobytes()
    assert got.events == want.events


# -- the stacked pieces, one against many ----------------------------------

def meshed(n: int, rng) -> ZonalNetwork:
    """A ring of ``n`` bubbles with chords, the swing on two of them, and
    an interface over two branches."""
    names = [f"b{i}" for i in range(n)]
    branches = [Branch(names[i], names[(i + 1) % n],
                       weight=float(rng.uniform(0.5, 3.0)))
                for i in range(n if n > 2 else 1)]
    branches += [Branch(names[0], names[i], weight=float(rng.uniform(0.5, 3)))
                 for i in range(2, n - 1, 2)]
    first, last = branches[0], branches[-1]
    return ZonalNetwork(
        bubbles=names, branches=branches, swing="x",
        swing_attach=names[:1] + names[n // 2:n // 2 + 1],
        interfaces=[Interface("cut", [(first.from_bubble, first.to_bubble,
                                       1.0),
                                      (last.to_bubble, last.from_bubble,
                                       -1.0)], limit=50.0)])


@pytest.mark.parametrize("n", range(2, 11))
def test_stacked_flows_equal_minute_solves(n):
    rng = np.random.default_rng(n)
    factor = factor_network(meshed(n, rng))
    minutes = 300
    injections = {f"b{i}": rng.normal(0.0, 100.0, minutes)
                  for i in range(n)}
    injections["b0"][:3] = (0.0, -0.0, 1e-300)
    stacked = dc_flow(factor, injections)
    assert stacked.branch_flows.shape == (minutes, len(factor.weight))
    for m in range(minutes):
        one = {b: float(v[m]) for b, v in injections.items()}
        for gs in (dc_flow(factor, one), ref_dc_flow(factor, one)):
            assert gs.branch_flows.tobytes() == \
                stacked.branch_flows[m].tobytes()
            flow, limit = gs.interface_flows["cut"]
            assert np.float64(flow).tobytes() == \
                stacked.interface_flows["cut"][0][m].tobytes()
            assert limit == stacked.interface_flows["cut"][1]
            assert np.float64(gs.swing_exchange).tobytes() == \
                stacked.swing_exchange[m].tobytes()


def units(k: int, seed: int) -> RegulationState:
    rng = np.random.default_rng(seed)
    return RegulationState(unit_ids=[f"g{i}" for i in range(k)],
                           bubbles=["a"] * k,
                           saturation=rng.uniform(1.0, 60.0, k),
                           g=rng.uniform(-1.0, 1.0, k))


@pytest.mark.parametrize("k", [0, 1, 3, 8, 12])
def test_regulation_over_minutes_equals_single_steps(k):
    rng = np.random.default_rng(k)
    imbalance = np.concatenate([rng.normal(0.0, 40.0, 500),
                                np.zeros(50), [1e4, -1e4, -0.0]])
    reg = units(k, k)
    outputs = np.empty((len(imbalance), k))
    residual = regulation_step(imbalance, reg, outputs)
    assert residual.shape == imbalance.shape
    for step in (regulation_step, ref_regulation_step):
        one = units(k, k)
        for m, x in enumerate(imbalance.tolist()):
            r = step(x, one)
            assert np.float64(r).tobytes() == residual[m].tobytes()
            assert one.g.tobytes() == outputs[m].tobytes()
        assert one.g.tobytes() == reg.g.tobytes()
    # Without ``outputs`` the minutes are stepped the same way.
    again = units(k, k)
    assert regulation_step(imbalance, again).tobytes() == residual.tobytes()
    assert again.g.tobytes() == reg.g.tobytes()


def test_forecast_of_many_windows_equals_one_at_a_time():
    rng = np.random.default_rng(5)
    p = Profile(rng.uniform(0.0, 100.0, 500))
    starts = np.array([0, 7, 100, 480, 499, 510])   # past the end too
    for block, n in ((1, 1), (5, 6), (60, 3)):
        errors = rng.normal(0.0, 10.0, (len(starts), n))
        many = forecast(p, starts, block, n, errors, capacity=90.0)
        assert many.shape == (len(starts), n)
        for k, m0 in enumerate(starts.tolist()):
            one = forecast(p, m0, block, n, errors[k], capacity=90.0)
            ref = ref_forecast(p, m0, block, n, errors[k], capacity=90.0)
            assert one.shape == (n,)
            assert one.tobytes() == ref.tobytes() == many[k].tobytes()


def test_warm_start_without_artificials_skips_phase_one():
    # max x + y s.t. x + 2y <= 8, 3x + y <= 9 ends at (2, 3).  Its basis
    # is still primal feasible once the cost is max x, so the warm start
    # has no basic outside its bounds and goes straight to phase 2, which
    # moves to (3, 0) without a dual pivot.
    prog = Builder()
    prog.var("x", 0, 10, obj=-1.0)
    prog.var("y", 0, 10, obj=-1.0)
    prog.constr("a", [(0, 1.0), (1, 2.0)], LE, 8.0)
    prog.constr("b", [(0, 3.0), (1, 1.0)], LE, 9.0)
    prog.constr("c", [(0, 1.0), (1, 1.0)], GE, 1.0)
    lp = prog.program()
    opt = solve_lp(lp)
    assert opt.x.tolist() == [2.0, 3.0]
    lp.obj[1] = 0.0
    warm = solve_lp(lp, basis=opt.basis)
    cold = solve_lp(lp)
    assert warm.status == cold.status == "optimal"
    assert warm.dual_pivots == 0 and warm.pivots > 0
    assert warm.x.tolist() == pytest.approx([3.0, 0.0], abs=1e-12)
    assert warm.objective == pytest.approx(cold.objective, rel=1e-12)
