"""The unit state the cascade carries from minute to minute, checked from
what a run writes: every commitment window reads each unit's hours in its
current status and its starts today as units.csv shows them, and the
limits these exist for hold: minimum up and down times, the daily start
budget and the storage energy bounds."""

from __future__ import annotations

import tempfile

import numpy as np
import pytest
from hypothesis import example, given, reject, settings

import gridops.dispatch as dispatch
import gridops.engine as engine
import gridops.lp as lp
import gridops.milp as milp
from gridops.cli import main
from gridops.dispatch import DispatchError, initial_from_scenario
from gridops.engine import read_trace, simulate, write_trace
from gridops.mini import write_mini3
from gridops.profiles import Profile
from gridops.scenario import (Generator, LoadSpec, Scenario, Storage, Timing,
                              ZonalNetwork, load_scenario)

import golden
from shared import perturbations, perturbed

# Six hours: long enough for a unit to start, stop and start again.
RUN = 360


@pytest.fixture(scope="module")
def mini(tmp_path_factory):
    path = str(tmp_path_factory.mktemp("scn") / "mini3.scn")
    write_mini3(path, days=1)
    return path


def spans(on: np.ndarray) -> list[tuple[int, int, bool]]:
    """The maximal runs of equal values of ``on`` as (first minute, minute
    after the last, value)."""
    cuts = [0, *(np.flatnonzero(np.diff(on.astype(int))) + 1).tolist(),
            len(on)]
    return [(a, b, bool(on[a])) for a, b in zip(cuts, cuts[1:])]


def recorded_run(scn, seed: int, outdir: str):
    """Simulate ``scn`` for RUN minutes and write its outputs; return
    units.csv read back, the state every commitment window started from
    as (minute, run hours, starts used, storage energy), and the counts of
    optimal solves and of certificate checks."""
    counts = {"optimal": 0, "checked": 0}
    windows = []

    def counted(solve):
        def run(*args, **kwargs):
            sol = solve(*args, **kwargs)
            counts["optimal"] += sol.status == "optimal"
            return sol
        return run

    def checked(*args, **kwargs):
        counts["checked"] += 1
        return verify(*args, **kwargs)

    def seen(init, minute):
        windows.append((minute, init.run_hours.copy(),
                        init.starts_used.copy(), init.energy.copy()))

    def scuc(scn, fc, init, minute, program):
        seen(init, minute)
        return run_scuc(scn, fc, init, minute, program)

    def rtuc(scn, fc, init, day, minute, program):
        seen(init, minute)
        return run_rtuc(scn, fc, init, day, minute, program)

    verify, run_scuc, run_rtuc = \
        lp.verify_certificates, engine.run_scuc, engine.run_rtuc
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dispatch, "solve_lp", counted(dispatch.solve_lp))
        mp.setattr(milp, "solve_lp", counted(milp.solve_lp))
        mp.setattr(lp, "verify_certificates", checked)
        mp.setattr(engine, "run_scuc", scuc)
        mp.setattr(engine, "run_rtuc", rtuc)
        trace = simulate(scn, RUN, seed=seed)
    write_trace(outdir, trace, scn, seed)
    units = read_trace(outdir, ("unit_output",)).unit_output
    return units, windows, counts


@settings(max_examples=20, derandomize=True, deadline=None)
@given(p=perturbations())
# One-hour day-ahead runs: the mid-merit unit starts at minute 0, stops
# when its fuel turns dear at minute 60 and may start once a day, and a
# gas2 outage (minutes 10 to 39) restarts a unit that must run.
@example(p=dict(timing=2, eps="zero", reg_units=1, storage=True, dr=False,
                shed=0.0, sun_d=1.0, tie=False, mesh=False, pair=False,
                gamma=0.0, outages=[("gas2", 10, 30)], seed=1, t_u=1,
                t_d=1, u_max=1, mid=True))
def test_windows_read_the_state_units_csv_shows(mini, p):
    scn = perturbed(mini, p)
    with tempfile.TemporaryDirectory() as out:
        try:
            units, windows, counts = recorded_run(scn, p["seed"], out)
        except DispatchError as exc:
            # Some draws have no feasible dispatch, which a solve reports;
            # any other error is a limit the run left.
            if " infeasible; " not in str(exc):
                raise
            reject()
    # One certificate check per optimal solve, node LPs included.
    assert counts["checked"] == counts["optimal"] > 0
    # Every window starts from storage energy within its bounds.
    for k, st in enumerate(scn.storages):
        for *_, energy in windows:
            assert st.e_min - 1e-6 <= energy[k] <= st.e_max + 1e-6, st.id

    # A unit with P^min > 0 shows output exactly while it is on, from the
    # first dispatch after it starts: a start between two dispatches shows
    # up to ``late`` minutes late.  Its own outages break that: a dispatch
    # over an outage sets the unit's output to zero, so it reaches zero
    # while on if the outage ends before the dispatch interval does.
    late = scn.timing.sced_step_min - 1
    declared = initial_from_scenario(scn)
    for k, g in enumerate(scn.generators):
        if g.p_min <= 0:
            continue
        on = units[g.id] > 0
        was = np.concatenate(([declared.online[k] > 0.5], on[:-1]))
        started = np.flatnonzero(on & ~was)
        out = np.zeros(RUN, dtype=bool)
        for ev in scn.outages:
            if ev.resource == g.id:
                out[ev.start:ev.start + ev.duration] = True
        for minute, hours, used, _ in windows:
            if minute == 0 or out[:minute].any():
                continue
            # The hours since the last change units.csv shows, counted on
            # from the declared history when nothing changed.
            a, _, status = spans(on[:minute])[-1]
            shown = (minute - a) / 60.0 * (1.0 if status else -1.0)
            if a == 0 and status == was[0]:
                shown += declared.run_hours[k]
            if hours[k] > 0 and not status:       # a start not shown yet
                assert hours[k] <= late / 60 + 1e-9, (g.id, minute)
            else:
                assert abs(hours[k] - shown) <= late / 60 + 1e-9, \
                    (g.id, minute, hours[k], shown)
            # Starts since midnight, one of them perhaps not shown yet.
            today = ((started >= minute // 1440 * 1440) &
                     (started < minute)).sum()
            assert today <= used[k] <= today + 1, (g.id, minute)
        if g.kind == "must-run":
            continue

        # Minimum up and down times and the daily start budget, away from
        # this unit's outages.
        near = np.convolve(out, np.ones(2 * late + 3), "same") > 0
        decided = [s for s in started.tolist() if s == 0 or not near[s - 1]]
        assert len(decided) <= g.u_max, g.id
        for a, b, status in spans(on):
            # Whole runs only: from a change (a start or stop at minute 0
            # counts) to the next.
            if a == 0 and status == was[0] or b == RUN or \
                    near[max(a - 1, 0):b + 1].any():
                continue
            if status:
                assert b - a >= 60 * g.t_u - late, (g.id, a, b)
            else:
                assert b - a >= 60 * g.t_d, (g.id, a, b)


def test_fast1_stops_when_gas2_returns_on_the_cadence_day(tmp_path):
    # The mini3-cadence day at seed 7: gas2 is out for minutes 605 to 694
    # and fast1 (T_u = T_d = 1 h) starts to cover it.  With its hours on
    # carried, fast1 stops when gas2 returns; a history stuck at the
    # declared -48 h held it on to the end of the day (minute 1439).
    scn = load_scenario(golden.write_scenario("mini3-cadence", str(tmp_path)))
    fast1 = simulate(scn, 1440, seed=7).unit_output["fast1"]
    assert np.flatnonzero(fast1 > 0).tolist() == list(range(605, 695))


def surplus_then_shortfall() -> Scenario:
    """One bubble over 4 hours on 2-hour day-ahead runs: the must-run
    unit's floor is above the load in hour 1 and its cap below the load in
    hours 2 and 3, so storage pumps in the last hour of the first run and
    would generate in the first hour of the second."""
    net = ZonalNetwork(bubbles=["a"], swing="x", swing_attach=["a"])
    base = Generator(id="base", bubble="a", kind="must-run", online=True,
                     p_min=100.0, p_max=120.0, h_l=5.0, initial_output=110.0,
                     r_min=-100.0, r_max=100.0)
    pond = Storage(id="pond", bubble="a", p_min=5.0, p_max=30.0, s_min=5.0,
                   s_max=30.0, e_min=10.0, e_max=120.0, eta=0.8,
                   initial_energy=60.0)
    scn = Scenario(network=net, generators=[base], storages=[pond])
    load = np.repeat([110.0, 80.0, 150.0, 150.0], 60)
    scn.loads = [LoadSpec(bubble="a", eps_da=0.0, eps_st=0.0, eps_rt=0.0,
                          profile=Profile(load))]
    scn.timing = Timing(scuc_horizon_h=2, rtuc_step_min=15,
                        rtuc_horizon_min=60, rtuc_period_min=60,
                        sced_step_min=10)
    return scn


def test_day_ahead_runs_start_from_the_storage_mode_carried(monkeypatch):
    days = []
    run_scuc = engine.run_scuc

    def recorded(*args, **kwargs):
        days.append(run_scuc(*args, **kwargs))
        return days[-1]

    monkeypatch.setattr(engine, "run_scuc", recorded)
    simulate(surplus_then_shortfall(), 240, seed=1)
    first, second = days
    # The first run pumps in its last hour, so the second may not generate
    # in its first hour (no pump-to-generate flip within one step), however
    # short of power that hour is; it generates in the hour after.
    assert first.storage_mode_pump[0, -1] == 1.0
    assert second.storage_mode_gen[0].tolist() == [0.0, 1.0]
    assert second.super_pos[0, 0] > 0.0


def test_storage_energy_outside_its_bounds_exits_3(tmp_path, monkeypatch,
                                                    capsys):
    path = str(tmp_path / "mini3.scn")
    write_mini3(path, days=1)
    with open(path, "a", encoding="utf-8") as fh:
        fh.write("\n[storage pond]\nbubble = n2\nP^min = 5\nP^max = 30\n"
                 "S^min = 5\nS^max = 30\nE^min = 10\nE^max = 120\n"
                 "eta = 0.8\ninitial-energy = 60\n")
    run_scuc = engine.run_scuc

    def inflated(*args, **kwargs):
        # Discharge 100 MW more than the day-ahead schedule can store.
        sched = run_scuc(*args, **kwargs)
        sched.storage_gen += 100.0
        return sched

    monkeypatch.setattr(engine, "run_scuc", inflated)
    out = str(tmp_path / "run")
    assert main(["simulate", path, "--minutes", "120", "--out", out]) == 3
    err = capsys.readouterr().err
    assert "storage pond: energy" in err and "outside [10, 120]" in err
