"""Commitment and dispatch layers against hand-checkable fixtures."""

from __future__ import annotations

import functools

import numpy as np
import pytest

import gridops.dispatch as dispatch
from gridops.dispatch import (DispatchError, Forecasts, InitialState,
                              initial_from_scenario)
from gridops.milp import solve_milp
from gridops.rtuc import run_rtuc
from gridops.scenario import (Branch, Generator, Interface, ReserveParams,
                              Scenario, SemiDispatchable, Storage, Timing,
                              ZonalNetwork, LoadSpec)
from gridops.sced import run_sced, setpoints
from gridops.scuc import commitment_for_minute, run_scuc


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
    T = scn.timing.scuc_horizon_h
    return Forecasts(load={"a": np.full(T, float(mw))},
                     semi={k: np.full(T, float(v))
                           for k, v in (semis or {}).items()})


def cheap_dear():
    cheap = Generator(id="cheap", bubble="a", p_min=10.0, p_max=100.0,
                      h_l=5.0, r_min=-100.0, r_max=100.0)
    dear = Generator(id="dear", bubble="a", p_min=10.0, p_max=100.0,
                     h_l=20.0, r_min=-100.0, r_max=100.0)
    return cheap, dear


def test_commits_cheapest_unit_only():
    scn = one_bubble(cheap_dear())
    sched = run_scuc(scn, flat(scn, 80.0), initial_from_scenario(scn))
    assert sched.w["cheap"] == pytest.approx([1, 1, 1, 1])
    assert sched.w["dear"] == pytest.approx([0, 0, 0, 0])
    assert sched.p["cheap"] == pytest.approx(np.full(4, 80.0))
    assert sched.supergen_total() == pytest.approx(0.0, abs=1e-6)


def test_losses_gross_up_the_load():
    scn = one_bubble(cheap_dear(), gamma=0.05)
    sched = run_scuc(scn, flat(scn, 80.0), initial_from_scenario(scn))
    assert sched.p["cheap"] == pytest.approx(np.full(4, 84.0))


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
    assert sched.w["dear"] == pytest.approx([1, 1])
    assert sched.c1 == pytest.approx([100.0, 100.0])
    total = sched.tmsr["cheap"] + sched.tmsr["dear"]
    assert np.all(total >= 100.0 - 1e-6)
    assert sched.supergen_total() == pytest.approx(0.0, abs=1e-6)


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
    assert sched.p["base"] == pytest.approx([20.0, 20.0])
    assert sched.curtail["sun"] == pytest.approx([0.8, 0.8])
    assert sched.supergen_total() == pytest.approx(0.0, abs=1e-6)


def test_shortage_covered_by_penalty_source():
    g = Generator(id="base", bubble="a", kind="must-run", online=True,
                  p_min=20.0, p_max=100.0, h_l=5.0,
                  r_min=-100.0, r_max=100.0)
    scn = one_bubble([g], horizon=2)
    sched = run_scuc(scn, flat(scn, 300.0), initial_from_scenario(scn))
    assert sched.p["base"] == pytest.approx([100.0, 100.0])
    assert sched.super_pos["a"] == pytest.approx([200.0, 200.0])


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
    fc = Forecasts(load={"b": np.full(2, 80.0)}, semi={})
    sched = run_scuc(scn, fc, initial_from_scenario(scn))
    # Only 30 MW can reach bubble b; the rest is priced at the penalty.
    assert sched.flows[:, 0] == pytest.approx([30.0, 30.0])
    assert sched.super_pos["b"] == pytest.approx([50.0, 50.0])


def test_storage_energy_recursion_feasible():
    g = Generator(id="base", bubble="a", kind="must-run", online=True,
                  p_min=0.0, p_max=200.0, h_l=5.0,
                  r_min=-200.0, r_max=200.0)
    st = Storage(id="pond", bubble="a", p_max=50.0, s_max=50.0,
                 e_min=10.0, e_max=100.0, eta=0.8, initial_energy=50.0)
    scn = one_bubble([g], horizon=3, storages=[st])
    sched = run_scuc(scn, flat(scn, 100.0), initial_from_scenario(scn))
    e = sched.storage_energy["pond"]
    assert np.all(e >= 10.0 - 1e-6) and np.all(e <= 100.0 + 1e-6)
    # Mode exclusivity every hour.
    both = sched.storage_mode_gen["pond"] + sched.storage_mode_pump["pond"]
    assert np.all(both <= 1.0 + 1e-9)
    prev = 50.0
    for t in range(3):
        gen, pump = sched.storage_gen["pond"][t], sched.storage_pump["pond"][t]
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
    fc = Forecasts(load={"a": np.array([40.0, 90.0, 40.0, 40.0])}, semi={})
    sched = run_scuc(scn, fc, initial_from_scenario(scn))
    w = sched.w["peak"]
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
    assert day.w["fast"] == pytest.approx([0, 0, 0, 0])
    T = scn.timing.rtuc_horizon_min // scn.timing.rtuc_step_min
    fc = Forecasts(load={"a": np.full(T, 150.0)}, semi={})
    intra = run_rtuc(scn, fc, init, day, start_minute=0)
    assert np.all(intra.w["fast"][1:] > 0.5)
    assert intra.p["base"] + intra.p["fast"] + intra.super_pos["a"][:] == \
        pytest.approx(np.full(T, 150.0))
    assert intra.supergen_total() < 150.0  # fast unit covers most of the gap


def test_non_fast_units_stay_pinned():
    cheap, dear = cheap_dear()
    scn = one_bubble([cheap, dear], horizon=4)
    init = initial_from_scenario(scn)
    day = run_scuc(scn, flat(scn, 80.0), init)
    assert day.w["dear"] == pytest.approx([0, 0, 0, 0])
    T = scn.timing.rtuc_horizon_min // scn.timing.rtuc_step_min
    fc = Forecasts(load={"a": np.full(T, 180.0)}, semi={})
    intra = run_rtuc(scn, fc, init, day, start_minute=0)
    # No fast-start units exist: the shortfall lands on the penalty source,
    # not on a unit the layer has no authority to start.
    assert intra.w["dear"] == pytest.approx(np.zeros(T))
    assert float(intra.super_pos["a"].min()) > 0.0


def test_start_budget_exhaustion_blocks_commitment():
    scn = one_bubble(fast_fleet(), horizon=4)
    init = initial_from_scenario(scn)
    day = run_scuc(scn, flat(scn, 80.0), init)
    init.starts_used["fast"] = 6   # budget spent earlier in the day
    T = scn.timing.rtuc_horizon_min // scn.timing.rtuc_step_min
    fc = Forecasts(load={"a": np.full(T, 150.0)}, semi={})
    intra = run_rtuc(scn, fc, init, day, start_minute=0)
    assert intra.w["fast"] == pytest.approx(np.zeros(T))
    assert float(intra.super_pos["a"].min()) >= 50.0 - 1e-6


def sced_scn():
    g = Generator(id="g", bubble="a", kind="must-run", online=True,
                  p_min=20.0, p_max=100.0, h_l=5.0, initial_output=50.0,
                  r_min=-1.0, r_max=1.0)
    return one_bubble([g], horizon=1)


def one_step(mw):
    return Forecasts(load={"a": np.array([float(mw)])}, semi={})


def test_dispatch_holds_at_fixed_point():
    scn = sced_scn()
    init = initial_from_scenario(scn)
    sched = run_sced(scn, one_step(50.0), init, {"g": 1.0})
    assert setpoints(sched)["g"] == pytest.approx(50.0)
    assert sched.objective == pytest.approx(5.0 * 50.0)


def test_dispatch_moves_within_ramp():
    scn = sced_scn()
    init = initial_from_scenario(scn)
    sched = run_sced(scn, one_step(55.0), init, {"g": 1.0})
    assert setpoints(sched)["g"] == pytest.approx(55.0)


def test_dispatch_ramp_capped_with_penalty_backfill():
    scn = sced_scn()
    init = initial_from_scenario(scn)
    # 1 MW/min over a 10 minute interval: at most 60 MW is reachable.
    sched = run_sced(scn, one_step(70.0), init, {"g": 1.0})
    assert setpoints(sched)["g"] == pytest.approx(60.0)
    assert sched.super_pos["a"][0] == pytest.approx(10.0)


def test_dispatch_start_relaxes_ramp():
    scn = sced_scn()
    init = initial_from_scenario(scn)
    init.output["g"] = 0.0
    sched = run_sced(scn, one_step(90.0), init, {"g": 1.0},
                     starts={"g": 1.0})
    assert setpoints(sched)["g"] == pytest.approx(90.0)


def test_offline_unit_dispatches_to_zero():
    scn = sced_scn()
    init = initial_from_scenario(scn)
    init.output["g"] = 0.0
    sched = run_sced(scn, one_step(0.0), init, {"g": 0.0})
    assert setpoints(sched)["g"] == pytest.approx(0.0)
    assert sched.supergen_total() == pytest.approx(0.0, abs=1e-6)


def test_commitment_lookup_by_minute():
    scn = one_bubble(cheap_dear())
    sched = run_scuc(scn, flat(scn, 80.0), initial_from_scenario(scn))
    assert commitment_for_minute(sched, 90)["cheap"] == 1.0
    assert commitment_for_minute(sched, 90)["dear"] == 0.0


def test_infeasible_forecast_horizon_rejected():
    scn = one_bubble(cheap_dear())
    with pytest.raises(DispatchError, match="horizon"):
        run_scuc(scn, Forecasts(load={"a": np.zeros(2)}, semi={}),
                 initial_from_scenario(scn))


def test_node_limit_raises(monkeypatch):
    # This commitment branches (9 nodes), so a 1-node limit cuts it short.
    monkeypatch.setattr(dispatch, "solve_milp",
                        functools.partial(solve_milp, node_limit=1))
    scn = one_bubble(cheap_dear())
    with pytest.raises(DispatchError, match="scuc .*node_limit"):
        run_scuc(scn, flat(scn, 80.0), initial_from_scenario(scn))
