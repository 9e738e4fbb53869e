"""Commitment and dispatch layers against hand-checkable fixtures."""

from __future__ import annotations

import dataclasses
import functools

import numpy as np
import pytest

import gridops.dispatch as dispatch
from scipy.optimize import Bounds, LinearConstraint, milp

from gridops.dispatch import (DispatchError, Forecasts, InitialState,
                              initial_from_scenario, run_rtuc, run_scuc,
                              run_sced)
from gridops.lp import EQ, GE, LE
from gridops.milp import solve_milp
from gridops.piecewise import linearize_cost
from gridops.scenario import (Branch, DemandResponse, Generator, Interface,
                              Outage, ReserveParams, Scenario,
                              SemiDispatchable, Storage, Timing, ZonalNetwork,
                              LoadSpec)
from shared import row


def one_bubble(gens, horizon=4, semis=(), storages=(), reserves=None,
               gamma=0.0):
    net = ZonalNetwork(bubbles=["a"], swing="x", swing_attach=["a"])
    scn = Scenario(network=net, generators=list(gens), semis=list(semis),
                   storages=list(storages), gamma_loss=gamma)
    scn.loads = [LoadSpec(bubble="a")]
    scn.timing = Timing(scuc_horizon_h=horizon)
    if reserves is not None:
        scn.reserves = reserves
    return scn


def flat(scn, mw, semis=None):
    """A day-ahead window's forecasts: ``mw`` for the one load and, for
    each semi in scenario order, its MW in ``semis`` by id."""
    T = scn.timing.scuc_horizon_h
    return Forecasts(load=np.full((1, T), float(mw)),
                     semi=np.array([np.full(T, float((semis or {})[sm.id]))
                                    for sm in scn.semis]).reshape(-1, T))


def loads(*series):
    """Forecasts of the given load series, in scenario order, and of no
    semis."""
    load = np.array(series, dtype=float)
    return Forecasts(load=load, semi=np.zeros((0, load.shape[1])))


def supergen(sched):
    """Total penalty-source MW of a schedule, both directions."""
    return sum(float(np.abs(arr).sum())
               for side in (sched.super_pos, sched.super_neg)
               for arr in side)


def cheap_dear():
    cheap = Generator(id="cheap", bubble="a", p_min=10.0, p_max=100.0,
                      h_l=5.0, r_min=-100.0, r_max=100.0)
    dear = Generator(id="dear", bubble="a", p_min=10.0, p_max=100.0,
                     h_l=20.0, r_min=-100.0, r_max=100.0)
    return cheap, dear


def test_commits_cheapest_unit_only():
    scn = one_bubble(cheap_dear())
    sched = run_scuc(scn, flat(scn, 80.0), initial_from_scenario(scn))
    assert row(sched, "w", "cheap") == pytest.approx([1, 1, 1, 1])
    assert row(sched, "w", "dear") == pytest.approx([0, 0, 0, 0])
    assert row(sched, "p", "cheap") == pytest.approx(np.full(4, 80.0))
    assert supergen(sched) == pytest.approx(0.0, abs=1e-6)


def test_losses_gross_up_the_load():
    scn = one_bubble(cheap_dear(), gamma=0.05)
    sched = run_scuc(scn, flat(scn, 80.0), initial_from_scenario(scn))
    assert row(sched, "p", "cheap") == pytest.approx(np.full(4, 84.0))


def test_objective_matches_hand_cost():
    g = Generator(id="g", bubble="a", kind="must-run", online=True,
                  p_min=20.0, p_max=100.0, h_f=10.0, h_l=5.0,
                  r_min=-100.0, r_max=100.0)
    scn = one_bubble([g], horizon=2)
    sched = run_scuc(scn, flat(scn, 60.0), initial_from_scenario(scn))
    # Linear curve: no chord error.  Cost per hour = 10 + 5*60.
    assert sched.objective == pytest.approx(2 * (10.0 + 5.0 * 60.0))


def test_reserve_requirement_forces_second_unit():
    cheap, dear = cheap_dear()
    res = ReserveParams(alpha_sys_tmsr=1.0, alpha_sys_tmr=1.0,
                        t_10=10.0)
    scn = one_bubble([cheap, dear], horizon=2, reserves=res)
    sched = run_scuc(scn, flat(scn, 80.0), initial_from_scenario(scn))
    # The largest online contingency is 100 MW; one unit at 80 MW has only
    # 20 MW of headroom, so the second must come online.
    assert row(sched, "w", "dear") == pytest.approx([1, 1])
    assert sched.c1 == pytest.approx([100.0, 100.0])
    total = row(sched, "tmsr", "cheap") + row(sched, "tmsr", "dear")
    assert np.all(total >= 100.0 - 1e-6)
    assert supergen(sched) == pytest.approx(0.0, abs=1e-6)


def test_excess_renewables_are_curtailed():
    g = Generator(id="base", bubble="a", kind="must-run", online=True,
                  p_min=20.0, p_max=100.0, h_l=5.0,
                  r_min=-100.0, r_max=100.0)
    sun = SemiDispatchable(id="sun", bubble="a", kind="solar", d=1.0,
                           price=-5.0, eps_da=0.0)
    scn = one_bubble([g], horizon=2, semis=[sun])
    sched = run_scuc(scn, flat(scn, 50.0, semis={"sun": 150.0}),
                     initial_from_scenario(scn))
    # Must-run floor of 20 MW leaves room for 30 of the 150 MW available.
    assert row(sched, "p", "base") == pytest.approx([20.0, 20.0])
    assert row(sched, "curtail", "sun") == pytest.approx([0.8, 0.8])
    assert supergen(sched) == pytest.approx(0.0, abs=1e-6)


def test_shortage_covered_by_penalty_source():
    g = Generator(id="base", bubble="a", kind="must-run", online=True,
                  p_min=20.0, p_max=100.0, h_l=5.0,
                  r_min=-100.0, r_max=100.0)
    scn = one_bubble([g], horizon=2)
    sched = run_scuc(scn, flat(scn, 300.0), initial_from_scenario(scn))
    assert row(sched, "p", "base") == pytest.approx([100.0, 100.0])
    assert row(sched, "super_pos", "a") == pytest.approx([200.0, 200.0])


def test_interface_limit_respected_in_schedule():
    net = ZonalNetwork(bubbles=["a", "b"], branches=[Branch("a", "b")],
                       interfaces=[Interface("tie", [("a", "b", 1.0)],
                                             limit=30.0)],
                       swing="x", swing_attach=["a"])
    g = Generator(id="base", bubble="a", kind="must-run", online=True,
                  p_min=0.0, p_max=200.0, h_l=5.0,
                  r_min=-200.0, r_max=200.0)
    scn = Scenario(network=net, generators=[g], gamma_loss=0.0)
    scn.loads = [LoadSpec(bubble="b")]
    scn.timing = Timing(scuc_horizon_h=2)
    fc = loads(np.full(2, 80.0))
    sched = run_scuc(scn, fc, initial_from_scenario(scn))
    # Only 30 MW can reach bubble b; the rest is priced at the penalty.
    assert sched.flows[0] == pytest.approx([30.0, 30.0])
    assert row(sched, "super_pos", "b") == pytest.approx([50.0, 50.0])


def test_storage_energy_recursion_feasible():
    g = Generator(id="base", bubble="a", kind="must-run", online=True,
                  p_min=0.0, p_max=200.0, h_l=5.0,
                  r_min=-200.0, r_max=200.0)
    st = Storage(id="pond", bubble="a", p_max=50.0, s_max=50.0,
                 e_min=10.0, e_max=100.0, eta=0.8, initial_energy=50.0)
    scn = one_bubble([g], horizon=3, storages=[st])
    sched = run_scuc(scn, flat(scn, 100.0), initial_from_scenario(scn))
    e = row(sched, "storage_energy", "pond")
    assert np.all(e >= 10.0 - 1e-6) and np.all(e <= 100.0 + 1e-6)
    # Mode exclusivity every hour.
    both = row(sched, "storage_mode_gen", "pond") + \
        row(sched, "storage_mode_pump", "pond")
    assert np.all(both <= 1.0 + 1e-9)
    prev = 50.0
    for t in range(3):
        gen = row(sched, "storage_gen", "pond")[t]
        pump = row(sched, "storage_pump", "pond")[t]
        expect = prev + 0.8 * pump - gen
        assert e[t] == pytest.approx(expect, abs=1e-6)
        prev = e[t]


def test_minimum_up_time_enforced():
    peaker = Generator(id="peak", bubble="a", p_min=10.0, p_max=100.0,
                       h_l=5.0, h_u=1.0, t_u=3, t_d=1,
                       r_min=-100.0, r_max=100.0)
    base = Generator(id="base", bubble="a", kind="must-run", online=True,
                     p_min=0.0, p_max=50.0, h_l=6.0,
                     r_min=-100.0, r_max=100.0)
    scn = one_bubble([peaker, base], horizon=4)
    fc = loads([40.0, 90.0, 40.0, 40.0])
    sched = run_scuc(scn, fc, initial_from_scenario(scn))
    w = row(sched, "w", "peak")
    # If it starts for the hour-1 spike it must run three hours.
    if w[1] > 0.5:
        assert w[2] > 0.5 and w[3] > 0.5


def fast_fleet():
    base = Generator(id="base", bubble="a", kind="must-run", online=True,
                     p_min=0.0, p_max=100.0, h_l=5.0,
                     r_min=-100.0, r_max=100.0)
    fast = Generator(id="fast", bubble="a", kind="fast-start",
                     p_min=5.0, p_max=80.0, h_f=20.0, h_l=14.0, h_u=30.0,
                     u_max=6, r_min=-20.0, r_max=20.0)
    return base, fast


def test_fast_start_commits_in_same_day_layer():
    scn = one_bubble(fast_fleet(), horizon=4)
    init = initial_from_scenario(scn)
    day = run_scuc(scn, flat(scn, 80.0), init)
    assert row(day, "w", "fast") == pytest.approx([0, 0, 0, 0])
    T = scn.timing.rtuc_horizon_min // scn.timing.rtuc_step_min
    fc = loads(np.full(T, 150.0))
    intra = run_rtuc(scn, fc, init, day, start_minute=0)
    assert np.all(row(intra, "w", "fast")[1:] > 0.5)
    assert row(intra, "p", "base") + row(intra, "p", "fast") + \
        row(intra, "super_pos", "a")[:] == pytest.approx(np.full(T, 150.0))
    assert supergen(intra) < 150.0  # fast unit covers most of the gap


def test_non_fast_units_stay_pinned():
    cheap, dear = cheap_dear()
    scn = one_bubble([cheap, dear], horizon=4)
    init = initial_from_scenario(scn)
    day = run_scuc(scn, flat(scn, 80.0), init)
    assert row(day, "w", "dear") == pytest.approx([0, 0, 0, 0])
    T = scn.timing.rtuc_horizon_min // scn.timing.rtuc_step_min
    fc = loads(np.full(T, 180.0))
    intra = run_rtuc(scn, fc, init, day, start_minute=0)
    # No fast-start units exist: the shortfall lands on the penalty source,
    # not on a unit the layer has no authority to start.
    assert row(intra, "w", "dear") == pytest.approx(np.zeros(T))
    assert float(row(intra, "super_pos", "a").min()) > 0.0


def test_start_budget_exhaustion_blocks_commitment():
    scn = one_bubble(fast_fleet(), horizon=4)
    init = initial_from_scenario(scn)
    day = run_scuc(scn, flat(scn, 80.0), init)
    init.starts_used[1] = 6   # fast's budget spent earlier in the day
    T = scn.timing.rtuc_horizon_min // scn.timing.rtuc_step_min
    fc = loads(np.full(T, 150.0))
    intra = run_rtuc(scn, fc, init, day, start_minute=0)
    assert row(intra, "w", "fast") == pytest.approx(np.zeros(T))
    assert float(row(intra, "super_pos", "a").min()) >= 50.0 - 1e-6


def program_bytes(program):
    """Every array, sense and the outside cost of a program."""
    lp, cols = program
    A, b, senses, c, l, u = lp.dense()
    return [a.tobytes() for a in (A, b, c, l, u)], senses, cols.fixed_cost


def test_program_is_refilled_only_where_its_shape_fits(monkeypatch):
    # Every RTUC program has binaries: record the start each solve is
    # given and the solution it returns.
    starts, solutions = [], []

    def spy(lp, basis=None):
        starts.append(basis)
        solutions.append(solve_milp(lp, basis=basis))
        return solutions[-1]

    scn = one_bubble(fast_fleet(), horizon=4)
    init = initial_from_scenario(scn)
    day = run_scuc(scn, flat(scn, 80.0), init)
    assert day.program[1].simplex is not None
    monkeypatch.setattr(dispatch, "solve_milp", spy)
    T = scn.timing.rtuc_horizon_min // scn.timing.rtuc_step_min
    fc = loads(np.full(T, 150.0))
    fresh = run_rtuc(scn, fc, init, day, start_minute=0)
    # The day-ahead program has another shape: a new one is built, and it
    # starts cold, not from the day-ahead program's simplex.
    rebuilt = run_rtuc(scn, fc, init, day, start_minute=0,
                       program=day.program)
    assert rebuilt.program is not day.program
    # A program of the same shape, filled for another window, is refilled
    # and re-solves its own live simplex in place.
    other = run_rtuc(scn, loads(np.full(T, 60.0)), init, day,
                     start_minute=0)
    last = other.program[1].simplex
    refilled = run_rtuc(scn, fc, init, day, start_minute=0,
                        program=other.program)
    assert refilled.program is other.program
    assert starts[:3] == [None, None, None]
    assert last is solutions[2].simplex and starts[3] is last
    # ... and keeps that same simplex, at the basis it ends at, for the
    # next window.
    assert refilled.program[1].simplex is solutions[3].simplex is last
    assert rebuilt.objective == fresh.objective
    assert row(rebuilt, "p", "fast").tolist() == \
        row(fresh, "p", "fast").tolist()
    # The refilled program is bitwise the fresh one; only its warm start
    # differs, which may move the optimum in the last bits.
    assert program_bytes(refilled.program) == program_bytes(fresh.program)
    assert refilled.objective == pytest.approx(fresh.objective, rel=1e-12)
    assert row(refilled, "p", "fast") == \
        pytest.approx(row(fresh, "p", "fast"), rel=1e-12)


def test_scuc_prices_fuel_by_the_clock_hour():
    # Fuel costs h+1 in hour h.  A 2-hour commitment at minute 120 covers
    # hours 2 and 3, so it pays 3 and 4 per unit of fuel, not 1 and 2.
    g = Generator(id="g", bubble="a", kind="must-run", online=True,
                  p_min=10.0, p_max=100.0, h_l=5.0, initial_output=50.0,
                  r_min=-100.0, r_max=100.0, c_f=np.arange(1.0, 25.0))
    scn = one_bubble([g], horizon=2)
    init = initial_from_scenario(scn)
    fuel = 5.0 * 50.0               # MBtu per hour at 50 MW
    for minute, hours in ((0, (0, 1)), (120, (2, 3)), (1380, (23, 0))):
        sched = run_scuc(scn, flat(scn, 50.0), init, minute)
        assert row(sched, "p", "g") == pytest.approx([50.0, 50.0])
        assert sched.objective == pytest.approx(
            fuel * sum(g.c_f[h] for h in hours))


def sced_scn():
    g = Generator(id="g", bubble="a", kind="must-run", online=True,
                  p_min=20.0, p_max=100.0, h_l=5.0, initial_output=50.0,
                  r_min=-1.0, r_max=1.0)
    return one_bubble([g], horizon=1)


def one_step(mw):
    return loads([float(mw)])


def test_dispatch_holds_at_fixed_point():
    scn = sced_scn()
    init = initial_from_scenario(scn)
    sched = run_sced(scn, one_step(50.0), init)
    assert row(sched, "p", "g")[0] == pytest.approx(50.0)
    assert sched.objective == pytest.approx(5.0 * 50.0)


def test_dispatch_moves_within_ramp():
    scn = sced_scn()
    init = initial_from_scenario(scn)
    sched = run_sced(scn, one_step(55.0), init)
    assert row(sched, "p", "g")[0] == pytest.approx(55.0)


def test_dispatch_ramp_capped_with_penalty_backfill():
    scn = sced_scn()
    init = initial_from_scenario(scn)
    # 1 MW/min over a 10 minute interval: at most 60 MW is reachable.
    sched = run_sced(scn, one_step(70.0), init)
    assert row(sched, "p", "g")[0] == pytest.approx(60.0)
    assert row(sched, "super_pos", "a")[0] == pytest.approx(10.0)


def test_dispatch_start_relaxes_ramp():
    scn = sced_scn()
    init = initial_from_scenario(scn)
    init.output[0] = 0.0
    sched = run_sced(scn, one_step(90.0), init, starts=np.ones(1))
    assert row(sched, "p", "g")[0] == pytest.approx(90.0)


def test_a_unit_out_inside_the_interval_ramps_down_as_if_it_stopped():
    # g runs at 50 MW and goes out at minute 3 of the interval that starts
    # at minute 0, so the dispatch holds it at 0 MW for the interval; at
    # 1 MW/min it cannot ramp there, so its ramp-down is relaxed as for a
    # stop, and the penalty source covers the load.
    scn = sced_scn()
    scn.outages = [Outage(resource="g", start=3, duration=2)]
    sched = run_sced(scn, one_step(50.0), initial_from_scenario(scn))
    assert row(sched, "p", "g")[0] == 0.0
    assert row(sched, "super_pos", "a")[0] == pytest.approx(50.0)


def test_offline_unit_dispatches_to_zero():
    scn = sced_scn()
    init = initial_from_scenario(scn)
    init.online[0] = init.output[0] = 0.0
    sched = run_sced(scn, one_step(0.0), init)
    assert row(sched, "p", "g")[0] == pytest.approx(0.0)
    assert supergen(sched) == pytest.approx(0.0, abs=1e-6)


def test_commitment_lookup_by_minute():
    scn = one_bubble(cheap_dear())
    sched = run_scuc(scn, flat(scn, 80.0), initial_from_scenario(scn))
    step = 90 // sched.step_minutes
    assert row(sched, "w", "cheap")[step] == 1.0
    assert row(sched, "w", "dear")[step] == 0.0


def test_infeasible_forecast_horizon_rejected():
    scn = one_bubble(cheap_dear())
    with pytest.raises(DispatchError, match="horizon"):
        run_scuc(scn, loads(np.zeros(2)), initial_from_scenario(scn))


@pytest.mark.parametrize("short", ["load", "semi"])
def test_a_forecast_shorter_than_the_window_names_its_horizon(short):
    sun = SemiDispatchable(id="sun", bubble="a", kind="solar")
    scn = one_bubble(cheap_dear(), semis=[sun])
    init = initial_from_scenario(scn)
    fc = flat(scn, 80.0, semis={"sun": 10.0})
    want = run_scuc(scn, fc, init)
    # A window reads the first steps of each row: longer rows change
    # nothing.
    longer = Forecasts(load=np.hstack([fc.load, np.full((1, 2), 500.0)]),
                       semi=np.hstack([fc.semi, np.full((1, 2), 500.0)]))
    assert run_scuc(scn, longer, init).objective == want.objective
    setattr(fc, short, getattr(fc, short)[:, :3])
    with pytest.raises(DispatchError,
                       match="^forecast horizon 3 shorter than 4 steps$"):
        run_scuc(scn, fc, init)


def test_node_limit_raises(monkeypatch):
    # This commitment branches (9 nodes), so a 1-node limit cuts it short.
    monkeypatch.setattr(dispatch, "solve_milp",
                        functools.partial(solve_milp, node_limit=1))
    scn = one_bubble(cheap_dear())
    with pytest.raises(DispatchError, match="scuc .*node_limit"):
        run_scuc(scn, flat(scn, 80.0), initial_from_scenario(scn))


def test_rtuc_pins_the_day_ahead_hour_of_its_scuc_run():
    # The day schedule covers one 4-hour SCUC run; an RTUC window at minute
    # 240 opens the next run, so it reads that schedule's hour 0.
    cheap, dear = cheap_dear()
    scn = one_bubble([cheap, dear], horizon=4)
    init = initial_from_scenario(scn)
    day = run_scuc(scn, flat(scn, 80.0), init)
    row(day, "w", "dear")[:] = [1.0, 0.0, 0.0, 0.0]
    T = scn.timing.rtuc_horizon_min // scn.timing.rtuc_step_min
    fc = loads(np.full(T, 80.0))
    intra = run_rtuc(scn, fc, init, day, start_minute=240)
    assert row(intra, "w", "dear")[:4] == pytest.approx(np.ones(4))
    assert row(intra, "w", "dear")[4:] == pytest.approx(np.zeros(T - 4))


def test_rtuc_charges_later_day_ahead_starts_of_its_scuc_run():
    scn = one_bubble(fast_fleet(), horizon=4)
    scn.timing.rtuc_horizon_min = 60
    init = initial_from_scenario(scn)
    day = run_scuc(scn, flat(scn, 80.0), init)
    # Two day-ahead starts after the window's hour leave none of the six.
    row(day, "u", "fast")[:] = [0.0, 0.0, 1.0, 1.0]
    init.starts_used[1] = 4
    T = scn.timing.rtuc_horizon_min // scn.timing.rtuc_step_min
    fc = loads(np.full(T, 150.0))
    intra = run_rtuc(scn, fc, init, day, start_minute=240)
    assert row(intra, "w", "fast") == pytest.approx(np.zeros(T))


# -- every program family at once ------------------------------------------

def all_families():
    """Two bubbles behind a limited interface, with every column family."""
    net = ZonalNetwork(bubbles=["n", "s"], branches=[Branch("n", "s")],
                       interfaces=[Interface("ns", [("n", "s", 1.0)],
                                             limit=30.0)],
                       swing="x", swing_attach=["n"])
    base = Generator(id="base", bubble="n", kind="must-run", online=True,
                     p_min=20.0, p_max=150.0, h_f=30.0, h_l=6.0, h_q=0.01,
                     initial_output=60.0, r_min=-3.0, r_max=3.0)
    mid = Generator(id="mid", bubble="s", p_min=10.0, p_max=80.0, h_f=20.0,
                    h_l=9.0, h_q=0.02, h_u=40.0, h_d=5.0, t_u=2, t_d=2,
                    r_min=-4.0, r_max=4.0)
    peak = Generator(id="peak", bubble="s", kind="fast-start", p_min=5.0,
                     p_max=40.0, h_f=10.0, h_l=15.0, h_u=10.0, u_max=3,
                     r_min=-10.0, r_max=10.0)
    pond = Storage(id="pond", bubble="s", p_min=5.0, p_max=30.0, s_min=5.0,
                   s_max=30.0, e_min=10.0, e_max=120.0, eta=0.8,
                   initial_energy=60.0)
    sun = SemiDispatchable(id="sun", bubble="s", kind="solar", d=1.0,
                           price=-5.0)
    tie = SemiDispatchable(id="tie", bubble="n", kind="tie-line", d=0.5,
                           price=20.0)
    dr = DemandResponse(id="dr", bubble="s", p_min=0.0, p_max=15.0,
                        cost=60.0)
    res = ReserveParams(alpha_tmsr={"n": 0.1, "s": 0.1},
                        alpha_tmor={"n": 0.2, "s": 0.2},
                        alpha_sys_tmsr=0.2, alpha_sys_tmor=0.3,
                        lfr_requirement=50.0)
    scn = Scenario(network=net, generators=[base, mid, peak],
                   storages=[pond], semis=[sun, tie], drs=[dr],
                   gamma_loss=0.02, reserves=res)
    scn.loads = [LoadSpec(bubble="n"),
                 LoadSpec(bubble="s", d=0.1, price=100.0)]
    scn.timing = Timing(scuc_horizon_h=4, rtuc_step_min=15,
                        rtuc_horizon_min=60, rtuc_period_min=60,
                        sced_step_min=10)
    return scn


def family_forecasts(n, s, sun):
    """Loads n and s, then semis sun and tie (20 MW), in scenario order."""
    return Forecasts(load=np.array([n, s], float),
                     semi=np.array([sun, np.full(len(n), 20.0)], float))


def run_all_families():
    """SCUC, then RTUC and SCED at minute 60 from its schedule."""
    scn = all_families()
    init = initial_from_scenario(scn)
    day_fc = family_forecasts([100, 120, 140, 110], [90, 180, 230, 120],
                              [0, 30, 60, 20])
    day = run_scuc(scn, day_fc, init)
    intra_fc = family_forecasts([120, 125, 130, 135], [180, 190, 200, 210],
                                [30, 35, 40, 45])
    intra = run_rtuc(scn, intra_fc, init, day, start_minute=60)
    now = dataclasses.replace(init, online=day.w[:, 1], output=day.p[:, 0])
    rt_fc = family_forecasts([120], [180], [30])
    rt = run_sced(scn, rt_fc, now, starts=day.u[:, 1], stops=day.v[:, 1],
                  pinned_storage=(day.storage_gen[:, 1:2],
                                  day.storage_pump[:, 1:2]),
                  minute=60)
    return scn, [(day_fc, day), (intra_fc, intra), (rt_fc, rt)]


@pytest.fixture(scope="module")
def family_runs():
    """The scenario and each layer's (program, solution, forecasts,
    schedule)."""
    seen = []
    build, extract = dispatch.build_program, dispatch.extract_schedule

    def build_spy(*args):
        out = build(*args)
        seen.append(out[0])
        return out

    def extract_spy(scn, fc, sol, cols, opt):
        seen[-1] = (seen[-1], sol)
        return extract(scn, fc, sol, cols, opt)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dispatch, "build_program", build_spy)
        mp.setattr(dispatch, "extract_schedule", extract_spy)
        scn, runs = run_all_families()
    return scn, [(lp, sol, fc, sched)
                 for (lp, sol), (fc, sched) in zip(seen, runs)]


def highs_objective(lp):
    A, b, senses, c, l, u = lp.dense()
    lo = np.array([-np.inf if s == LE else r for s, r in zip(senses, b)])
    hi = np.array([np.inf if s == GE else r for s, r in zip(senses, b)])
    integrality = np.array([v.binary for v in lp.variables], dtype=int)
    res = milp(c, constraints=LinearConstraint(A, lo, hi),
               integrality=integrality, bounds=Bounds(l, u))
    assert res.success, res.message
    return res.fun


@pytest.mark.parametrize("layer", [0, 1, 2], ids=["scuc", "rtuc", "sced"])
def test_all_families_match_highs(family_runs, layer):
    _, runs = family_runs
    lp, sol, _, sched = runs[layer]
    assert sched.status == "optimal"
    ref = highs_objective(lp)
    assert sol.objective == pytest.approx(ref, rel=1e-6, abs=1e-6)
    assert {c.name.split("[")[0] for c in lp.constraints} >= (
        {"bal", "int+", "int-", "seg", "ramp+", "ramp-"} if layer == 2 else
        {"bal", "int+", "int-", "seg", "plim", "link", "uv", "ramp+",
         "ramp-", "cg1", "ct1", "tmsr", "tmor", "tmsr_n", "tmor_n",
         "tmsr_sys", "tmsr_lfr", "tmor_sys", "maxup"})
    if layer == 0:
        assert {"pslim+", "stor", "flip1", "minup", "mindown"} <= \
            {c.name.split("[")[0] for c in lp.constraints}


@pytest.mark.parametrize("layer", [0, 1, 2], ids=["scuc", "rtuc", "sced"])
def test_all_families_close_the_bubble_balance(family_runs, layer):
    scn, runs = family_runs
    _, _, fc, sched = runs[layer]
    gross = 1.0 + scn.gamma_loss
    for b in scn.network.bubbles:
        for t in range(sched.steps):
            net = row(sched, "super_pos", b)[t] - \
                row(sched, "super_neg", b)[t]
            net += sum(row(sched, "p", g.id)[t] for g in scn.generators
                       if g.bubble == b)
            net += sum(row(sched, "storage_gen", st.id)[t] -
                       row(sched, "storage_pump", st.id)[t]
                       for st in scn.storages if st.bubble == b)
            net += sum(row(sched, "dr", m.id)[t] for m in scn.drs
                       if m.bubble == b)
            for k, sm in enumerate(scn.semis):
                if sm.bubble == b:
                    scale = 1.0 if sm.kind == "tie-line" else gross
                    net += scale * fc.semi[k][t] * \
                        (1.0 - sm.d * row(sched, "curtail", sm.id)[t])
            for li, br in enumerate(scn.network.branches):
                if br.to_bubble == b:
                    net += sched.flows[li, t]
                elif br.from_bubble == b:
                    net -= sched.flows[li, t]
            for k, ld in enumerate(scn.loads):
                if ld.bubble == b:
                    shed = row(sched, "shed", b)[t]
                    assert ld.d > 0 or shed == 0.0
                    net -= gross * fc.load[k][t] * (1.0 - ld.d * shed)
            assert net == pytest.approx(0.0, abs=1e-6), (b, t)


# Schedule field for each column family, keyed as the column name is.
FAMILY_FIELDS = {"w": "w", "u": "u", "v": "v", "P": "p", "rS": "tmsr",
                 "rO": "tmor", "wP": "storage_mode_gen",
                 "wS": "storage_mode_pump", "Ps": "storage_gen",
                 "Ss": "storage_pump", "Es": "storage_energy", "cv": "curtail",
                 "cl": "shed", "Pm": "dr", "sgP": "super_pos",
                 "sgN": "super_neg"}


@pytest.mark.parametrize("layer", [0, 1, 2], ids=["scuc", "rtuc", "sced"])
def test_all_families_schedule_reads_the_named_columns(family_runs, layer):
    scn, runs = family_runs
    lp, sol, _, sched = runs[layer]
    col = {v.name: j for j, v in enumerate(lp.variables)}
    ids = {field: keys for field, _, keys in sched.program[1].read}
    read = set()
    for fam, attr in FAMILY_FIELDS.items():
        assert getattr(sched, attr).shape == (len(ids[attr]), sched.steps)
        for key in ids[attr]:
            vals = row(sched, attr, key)
            for t in range(sched.steps):
                j = col.get(f"{fam}[{key},{t}]")
                if j is None:
                    continue
                want = np.round(sol.x[j], 9) if fam == "w" else sol.x[j]
                assert vals[t] == want, (fam, key, t)
                read.add(fam)
    for li in range(len(scn.network.branches)):
        for t in range(sched.steps):
            assert sched.flows[li, t] == sol.x[col[f"F[{li},{t}]"]]
    expect = {"P", "cv", "cl", "Pm", "sgP", "sgN"}
    if layer < 2:
        expect |= {"w", "u", "v", "rS", "rO"}
    if layer == 0:
        expect |= {"wP", "wS", "Ps", "Ss", "Es"}
    assert read == expect


# -- refilling every layer's program ----------------------------------------

def family_windows(layer):
    """The all-families scenario, with a third semi, and two windows of
    ``layer`` that differ in every input a window takes: the clock hour
    (fuel prices differ by hour), outages of a generator and a semi (the
    second window only), pins and pinned storage, the initial state and the
    forecasts."""
    scn = all_families()
    hours = np.arange(24.0)
    for g, c_f in zip(scn.generators,
                      (1.0 + hours, 30.0 - hours, 1.0 + hours % 5)):
        g.c_f = c_f
    scn.outages = [Outage(resource="mid", start=120, duration=30),
                   Outage(resource="sun", start=60, duration=100)]
    # A third balance term in bubble n, whose sum then depends on order.
    scn.semis.append(SemiDispatchable(id="roof", bubble="n", kind="solar"))
    T = dispatch.layer_grid(scn.timing, layer)[1]
    first = initial_from_scenario(scn)
    # Generators base, mid and peak; storage pond.
    second = InitialState(
        online=np.array([1.0, 0.0, 1.0]), output=np.array([75.0, 0.0, 12.5]),
        run_hours=np.array([9.0, -0.5, 0.25]),
        starts_used=np.array([0, 0, 1]), energy=np.array([85.0]),
        mode_gen=np.array([1.0]), mode_pump=np.array([0.0]))
    # Values with long binary fractions, so that summing a balance in
    # another order would change its last bits.
    sun = [0.0, 35.3, 70.1, 25.7]
    forecasts = (family_forecasts([100.1, 120.3, 140.7, 110.9],
                                  [90.3, 180.1, 230.9, 120.7], sun),
                 family_forecasts([130.7, 95.3, 150.1, 105.9],
                                  [170.9, 140.3, 250.7, 160.1], sun[::-1]))
    forecasts[1].semi[1] = [25.3, 15.1, 30.7, 10.9]              # tie
    roof = ([3.3, 17.9, 21.1, 0.7], [11.7, 0.3, 9.1, 13.9])
    # SCUC at hours 4-7 (no outage), then hours 1-4; RTUC at minute 0,
    # then 75; SCED at minute 0, then 130.
    minutes = {"scuc": (240, 60), "rtuc": (0, 75), "sced": (0, 130)}[layer]
    free = np.full(4, np.nan)       # RTUC's 4 steps, peak left free
    pins = {"scuc": ({}, {}),
            "rtuc": ({"pinned_w": np.array([np.ones(4), [1.0, 1.0, 0.0, 0.0],
                                            free]),
                      "pinned_storage": (np.array([[5.3, 0, 0, 6]]),
                                         np.array([[0, 5.7, 8, 0]]))},
                     {"pinned_w": np.array([np.ones(4), [0.0, 1.0, 1.0, 1.0],
                                            free]),
                      "pinned_storage": (np.array([[0, 8.3, 0, 0]]),
                                         np.array([[4.1, 0, 0, 9.7]])),
                      "starts_ahead": np.array([0, 0, 1])}),
            "sced": ({"pinned_w": np.ones((3, 1)),
                      "pinned_storage": (np.array([[5.3]]), np.zeros((1, 1))),
                      "fixed_uv": (np.zeros(3), np.zeros(3))},
                     {"pinned_w": np.array([[1.0], [0.0], [1.0]]),
                      "pinned_storage": (np.zeros((1, 1)), np.array([[6.7]])),
                      "fixed_uv": (np.array([0.0, 0.0, 1.0]),
                                   np.array([0.0, 1.0, 0.0]))})}[layer]
    windows = []
    for minute, fc, roof_mw, init, fields in zip(
            minutes, forecasts, roof, (first, second), pins):
        fc = Forecasts(load=fc.load[:, :T],
                       semi=np.vstack([fc.semi, roof_mw])[:, :T])
        windows.append((fc, init,
                        dispatch._window(scn, layer, minute, **fields)))
    return scn, windows


def window_masks(scn, opt):
    """The availability of generators [step, gen] and semis [semi, step]
    over the window ``opt``."""
    return dispatch.outage_masks(scn, opt.minute, opt.step_minutes, opt.steps)


def window_hours(opt):
    """The clock hour of each step of the window ``opt``."""
    return [(opt.minute + t * opt.step_minutes) // 60 % 24
            for t in range(opt.steps)]


@pytest.mark.parametrize("layer", ["scuc", "rtuc", "sced"])
def test_refilled_program_equals_a_fresh_build_in_every_family(layer):
    scn, (one, two) = family_windows(layer)
    gen_one, semi_one = window_masks(scn, one[2])
    gen_two, semi_two = window_masks(scn, two[2])
    assert gen_one.all() and semi_one.all()
    assert [g.id for g, on in zip(scn.generators, gen_two.T)
            if not on.all()] == ["mid"]
    assert [sm.id for sm, on in zip(scn.semis, semi_two)
            if not on.all()] == ["sun"]
    assert window_hours(one[2]) != window_hours(two[2])
    fresh = [dispatch.build_program(scn, *window) for window in (one, two)]
    want = [program_bytes(program) for program in fresh]
    # Every array the fill writes, and SCED's cost outside the program,
    # differs between the windows, so no value can be left over unseen.
    (a, _, fixed_a), (b, _, fixed_b) = want
    assert all(x != y for x, y in zip(a, b))
    assert (fixed_a != fixed_b) == (layer == "sced")
    # Each program, refilled for the other window, is bitwise that
    # window's fresh build.
    for program, window, expect in zip(fresh, (two, one), want[::-1]):
        dispatch.fill_program(program, scn, *window)
        assert program_bytes(program) == expect


def reference_fill(program, scn, fc, init, opt):
    """One window's values written family by family and unit by unit from
    the scenario, as the fill was before the program carried a plan: the
    reference the planned fill is compared with."""
    lp, cols = program
    T = opt.steps
    gens, semis, loads = scn.generators, scn.semis, scn.loads
    gamma = scn.gamma_loss
    dt = opt.step_minutes
    hours = window_hours(opt)
    g_on, semi_on = window_masks(scn, opt)
    lb, ub, obj, rhs = lp.lb, lp.ub, lp.obj, lp.rhs
    rows, ents = cols.rows, cols.entries
    column = {name: j for j, name in enumerate(lp.col_names)}
    curve = [linearize_cost(g.p_min, g.p_max, 1.0, g.h_f, g.h_l, g.h_q,
                            dispatch.N_SEGMENTS) for g in gens]
    cf = np.array([[g.fuel_price(h) for g in gens] for h in hours])
    pmin = np.array([g.p_min for g in gens])
    pmax = np.array([g.p_max for g in gens])
    at_min = np.array([c.cost_at_min for c in curve])
    semi_avail = [semi_on[k] * np.asarray(fc.semi[k], dtype=float)[:T]
                  for k in range(len(semis))]
    load = [np.asarray(fc.load[k], dtype=float)[:T]
            for k in range(len(loads))]
    for k, g in enumerate(gens):
        segments = [[column[f"dP[{g.id},{t},{s}]"]
                     for s in range(len(curve[k].slopes))] for t in range(T)]
        obj[segments] = cf[:, k, None] * curve[k].slopes
    fixed_cost = 0.0
    if opt.layer == "sced":
        wv = np.array([np.asarray(opt.pinned_w[k], dtype=float)[:T]
                       for k in range(len(gens))]).T
        for c in ((wv * cf) * at_min).ravel().tolist():
            fixed_cost += c
        floor = (wv * g_on) * pmin
        lb[cols["P"]] = floor
        ub[cols["P"]] = (wv * g_on) * pmax
        rhs[rows["seg"]] = floor
        uf, vf = opt.fixed_uv
        p0 = np.array([float(init.output[k]) for k in range(len(gens))])
        ur = np.array([float(uf[k]) for k in range(len(gens))])
        # A unit pinned on but out ramps down as if it stopped.
        vr = np.array([1.0 if wv[0, k] > 0.5 and g_on[0, k] == 0.0
                       else float(vf[k]) for k in range(len(gens))])
        rmax = np.array([g.r_max for g in gens])
        rmin = np.array([g.r_min for g in gens])
        rhs[rows["ramp+"]] = (p0 + rmax * dt) + pmax * ur
        rhs[rows["ramp-"]] = (p0 + rmin * dt) - pmax * vr
    else:
        obj[cols["w"]] = cf * at_min
        obj[cols["u"]] = cf * np.array([g.h_u for g in gens])
        obj[cols["v"]] = cf * np.array([g.h_d for g in gens])
        lp.set_coeffs(lp.cells(ents["seg.w"]), -g_on * pmin)
        lp.set_coeffs(lp.cells(ents["plim.w"]), -g_on * pmax)
        steps_per_hour = 60.0 / opt.step_minutes
        for k, g in enumerate(gens):
            col = cols["w"][:, k]
            w0 = float(init.online[k])
            p0 = float(init.output[k])
            rhs[rows["link"][0, k]] = w0
            rhs[rows["ramp+"][0, k]] = p0 + g.r_max * dt
            rhs[rows["ramp-"][0, k]] = p0 + g.r_min * dt
            pin = None if opt.pinned_w is None or \
                np.isnan(opt.pinned_w[k]).all() else opt.pinned_w[k]
            if g.kind == "must-run":
                lb[col], ub[col] = 1.0, 1.0
                continue
            if pin is not None:
                lb[col] = ub[col] = np.asarray(pin, dtype=float)[:T]
                continue
            lb[col], ub[col] = 0.0, 1.0
            hist = float(init.run_hours[k])
            if w0 > 0.5 and hist < g.t_u:
                remain = int(np.ceil((g.t_u - hist) * steps_per_hour - 1e-9))
                lb[col[:remain]] = 1.0
            if w0 < 0.5 and -hist < g.t_d:
                remain = int(np.ceil((g.t_d + hist) * steps_per_hour - 1e-9))
                ub[col[:remain]] = 0.0
            used = int(init.starts_used[k])
            ahead = 0 if opt.starts_ahead is None else \
                int(opt.starts_ahead[k])
            rhs[rows["maxup"][0, k]] = float(max(g.u_max - used - ahead, 0))
    cols.fixed_cost = fixed_cost
    if opt.pinned_storage is None:
        for k, st in enumerate(scn.storages):
            mg, mp = float(init.mode_gen[k]), float(init.mode_pump[k])
            rhs[rows["stor"][0, k]] = float(init.energy[k])
            rhs[rows["flip1"][0, k]] = 1.0 - mp
            rhs[rows["flip2"][0, k]] = 1.0 - mg
    for k, sm in enumerate(semis):
        avail = semi_avail[k]
        scale = 1.0 if sm.kind == "tie-line" else 1.0 + gamma
        if sm.d > 0:
            obj[cols["cv"][:, k]] = -sm.price * sm.d * avail
            lp.set_coeffs(lp.cells(ents["bal.cv"][:, k]),
                          scale * (-sm.d * avail))
        if rows["ct1"][0, k] >= 0:
            rhs[rows["ct1"][:, k]] = avail
            if sm.d > 0:
                lp.set_coeffs(lp.cells(ents["ct1.cv"][:, k]),
                              sm.d * avail)
    for k, ld in enumerate(loads):
        if ld.d > 0:
            obj[cols["cl"][:, k]] = ld.price * ld.d * load[k]
            lp.set_coeffs(lp.cells(ents["bal.cl"][:, k]),
                          (1.0 + gamma) * ld.d * load[k])
    for kb, b in enumerate(scn.network.bubbles):
        total = np.zeros(T)
        if opt.pinned_storage is not None:
            ps, ss = opt.pinned_storage
            for k, st in enumerate(scn.storages):
                if st.bubble == b:
                    total -= np.asarray(ps[k], dtype=float)[:T] - \
                        np.asarray(ss[k], dtype=float)[:T]
        for k, ld in enumerate(loads):
            if ld.bubble == b:
                total += (1.0 + gamma) * load[k]
        for k, sm in enumerate(semis):
            if sm.bubble == b:
                scale = 1.0 if sm.kind == "tie-line" else 1.0 + gamma
                total -= scale * semi_avail[k]
        rhs[rows["bal"][:, kb]] = total


@pytest.mark.parametrize("layer", ["scuc", "rtuc", "sced"])
def test_planned_fill_writes_the_values_of_a_row_by_row_fill(layer):
    # Every value the plan's constants produce, fuel prices, unit
    # constants, availability and balance terms among them, is bitwise
    # the value computed from the scenario unit by unit.
    scn, windows = family_windows(layer)
    for window in windows:
        want = dispatch._structure(scn, window[2])
        reference_fill(want, scn, *window)
        got = dispatch.build_program(scn, *window)
        assert program_bytes(got) == program_bytes(want)
