"""Closed-loop simulation on the bundled three-bubble fixture."""

from __future__ import annotations

import copy
import os

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

import gridops.dispatch as dispatch
import gridops.engine as engine
from gridops.engine import (SimulationTrace, outage_masks, simulate,
                            write_trace)
from gridops.mini import write_mini3
from gridops.scenario import (Generator, Outage, Scenario, SemiDispatchable,
                              Timing, ZonalNetwork, load_scenario)


@pytest.fixture(scope="module")
def mini(tmp_path_factory):
    d = tmp_path_factory.mktemp("scn")
    path = str(d / "mini3.scn")
    write_mini3(path, days=2)
    return path


def test_two_hours_track_load(mini):
    scn = load_scenario(mini)
    tr = simulate(scn, 120, seed=7)
    assert tr.minutes == 120
    # After the startup transient the loop holds the system tightly.
    settled = np.abs(tr.imbalance[15:])
    assert float(np.median(settled)) < 1.0
    assert tr.supergen.max() == pytest.approx(0.0, abs=1e-6)
    assert any("day-ahead" in e for e in tr.events)


def test_generation_meets_load_with_losses(mini):
    scn = load_scenario(mini)
    tr = simulate(scn, 60, seed=7)
    supplied = tr.generation + tr.ver_delivered
    # gamma is zero in the fixture, so supply tracks load directly.
    assert np.allclose(supplied[20:], tr.load[20:], atol=3.0)


def test_deterministic_repeat(mini, tmp_path):
    scn1 = load_scenario(mini)
    scn2 = load_scenario(mini)
    tr1 = simulate(scn1, 90, seed=11)
    tr2 = simulate(scn2, 90, seed=11)
    assert tr1.imbalance.tobytes() == tr2.imbalance.tobytes()
    assert tr1.flows.tobytes() == tr2.flows.tobytes()
    for g in tr1.unit_output:
        assert tr1.unit_output[g].tobytes() == tr2.unit_output[g].tobytes()
    d1, d2 = tmp_path / "a", tmp_path / "b"
    write_trace(str(d1), tr1, scn1, 11, mini)
    write_trace(str(d2), tr2, scn2, 11, mini)
    for name in os.listdir(d1):
        assert (d1 / name).read_bytes() == (d2 / name).read_bytes()


def test_seed_changes_forecast_noise(mini):
    scn = load_scenario(mini)
    # The fixture pins forecast errors to zero, so give the real-time
    # load forecast some noise; slower layers get corrected downstream.
    scn.loads[0].eps_rt = 0.01
    tr1 = simulate(scn, 60, seed=1)
    scn2 = load_scenario(mini)
    scn2.loads[0].eps_rt = 0.01
    tr2 = simulate(scn2, 60, seed=2)
    assert tr1.imbalance_raw.tobytes() != tr2.imbalance_raw.tobytes()


def test_outage_forces_unit_off_and_reruns_commitment(mini):
    scn = load_scenario(mini)
    scn.outages.append(Outage(resource="gas2", start=22, duration=30))
    tr = simulate(scn, 70, seed=7)
    assert np.all(tr.unit_output["gas2"][22:52] == 0.0)
    assert np.any(tr.unit_output["gas2"][:22] > 0.0)
    assert any("contingency" in e for e in tr.events)


def test_an_outage_inside_a_dispatch_interval_takes_the_unit_off(mini):
    # gas2 runs at minute 0 and goes out at minute 3, inside the dispatch
    # interval that starts at minute 0; that dispatch holds it at 0 MW.
    scn = load_scenario(mini)
    scn.outages = [Outage(resource="gas2", start=3, duration=2)]
    tr = simulate(scn, 120, seed=7)
    gas2 = tr.unit_output["gas2"]
    assert np.all(gas2[:3] > 0.0) and np.all(gas2[3:5] == 0.0)
    assert "3: contingency commitment window" in tr.events


def test_one_network_solve_per_minute(mini, monkeypatch):
    calls = []
    real = engine.dc_flow

    def counting(factor, injections):
        calls.append(np.array(list(injections.values())))
        return real(factor, injections)

    monkeypatch.setattr(engine, "dc_flow", counting)
    scn = load_scenario(mini)
    tr = simulate(scn, 30, seed=7)
    # One call solves every minute: one row of injections per minute.
    assert len(calls) == 1
    per_bubble = calls[0]
    assert per_bubble.shape == (len(scn.network.bubbles), 30)
    total = per_bubble.sum(axis=0)
    # The network sees the injections after regulation; without it their
    # sum is the raw imbalance the swing absorbs.
    raw = total - tr.regulation.sum(axis=1)
    assert tr.imbalance_raw == pytest.approx(raw, abs=1e-9)
    assert tr.imbalance == pytest.approx(total, abs=1e-9)


def test_outage_masks_at_block_boundaries(mini):
    scn = load_scenario(mini)
    scn.outages = [Outage(resource="gas2", start=20, duration=10),
                   Outage(resource="gas2", start=45, duration=1),
                   Outage(resource="sun1", start=0, duration=15)]
    gen, semi = outage_masks(scn, 0, 15, 4)
    ids = [g.id for g in scn.generators]
    assert gen.shape == (4, len(ids)) and semi.shape == (1, 4)
    # gas2 covers [20, 30) and [45, 46): blocks [15, 30) and [45, 60),
    # the second only one minute in.  sun1 ends exactly where block 1
    # starts, so only block 0 is out.
    assert [i for i, on in zip(ids, gen.T) if not on.all()] == ["gas2"]
    assert gen[:, ids.index("gas2")].tolist() == [1.0, 0.0, 1.0, 0.0]
    assert semi[0].tolist() == [0.0, 1.0, 1.0, 1.0]
    # A window no outage touches is available throughout.
    gen, semi = outage_masks(scn, 60, 15, 4)
    assert gen.all() and semi.all()


def test_outage_minute_status_is_a_window_of_minutes(mini):
    scn = load_scenario(mini)
    scn.outages = [Outage(resource="gas2", start=20, duration=10),
                   Outage(resource="gas2", start=25, duration=10),
                   Outage(resource="sun1", start=3, duration=0)]
    gen, semi = outage_masks(scn, 0, 1, 60)
    assert semi.all()                       # a zero-length outage is no outage
    k = [g.id for g in scn.generators].index("gas2")
    status = gen[:, k]
    assert np.flatnonzero(status == 0.0).tolist() == list(range(20, 35))
    for m in range(60):
        one = outage_masks(scn, m, 1, 1)[0]
        covered = any(ev.resource == "gas2" and
                      ev.start <= m < ev.start + ev.duration
                      for ev in scn.outages)
        assert (one[0, k] == 0.0) == (status[m] == 0.0) == covered


def test_an_outage_of_no_minutes_changes_nothing(mini):
    # It masks no block and opens no contingency commitment window.
    scn = load_scenario(mini)
    scn.outages = []
    want = simulate(scn, 90, seed=7)
    scn.outages = [Outage(resource="gas2", start=47, duration=0)]
    got = simulate(scn, 90, seed=7)
    assert got.events == want.events
    for gid, out in want.unit_output.items():
        assert got.unit_output[gid].tobytes() == out.tobytes()
    assert got.imbalance.tobytes() == want.imbalance.tobytes()


outage = st.builds(Outage, resource=st.sampled_from(["g1", "g2", "s1",
                                                      "other"]),
                   start=st.integers(0, 200), duration=st.integers(0, 60))


@given(outages=st.lists(outage, max_size=6), m0=st.integers(0, 200),
       block=st.integers(1, 15), n=st.integers(0, 10))
# An outage of no minutes inside a block leaves the block in service.
@example(outages=[Outage(resource="g1", start=7, duration=0)], m0=0,
         block=15, n=2)
# Two overlapping outages of one unit, and one of no minutes in a block
# they cover.
@example(outages=[Outage(resource="g2", start=3, duration=20),
                  Outage(resource="g2", start=10, duration=30),
                  Outage(resource="g2", start=12, duration=0),
                  Outage(resource="s1", start=45, duration=0)],
         m0=0, block=5, n=10)
def test_outage_masks_match_a_minute_by_minute_reference(outages, m0, block,
                                                         n):
    # Window starts off the block grid too, as an emergency RTUC window
    # starts at its outage's minute.
    scn = Scenario(network=ZonalNetwork(bubbles=["a"]),
                   generators=[Generator(id="g1"), Generator(id="g2")],
                   semis=[SemiDispatchable(id="s1")], outages=outages)

    def reference(rid, start):
        """Availability of ``rid`` per block from ``start``, minute by
        minute."""
        return [0.0 if any(ev.resource == rid and
                           ev.start <= minute < ev.start + ev.duration
                           for ev in outages
                           for minute in range(start + i * block,
                                               start + (i + 1) * block))
                else 1.0 for i in range(n)]

    gen, semi = outage_masks(scn, m0, block, n)
    assert gen.shape == (n, 2) and semi.shape == (1, n)
    assert gen.T.tolist() == [reference("g1", m0), reference("g2", m0)]
    assert semi.tolist() == [reference("s1", m0)]
    # The windows of an array of starts, this one among them, each get
    # the availability of their start alone.
    starts = np.array([m0 + 37, m0, m0 + 3])
    gen, semi = outage_masks(scn, starts, block, n)
    assert gen.shape == (3, n, 2) and semi.shape == (3, 1, n)
    for k, m in enumerate(starts.tolist()):
        assert gen[k].T.tolist() == [reference("g1", m), reference("g2", m)]
        assert semi[k].tolist() == [reference("s1", m)]
    gen, semi = outage_masks(scn, starts[:0], block, n)
    assert gen.shape == (0, n, 2) and semi.shape == (0, 1, n)


def test_trace_files_written(mini, tmp_path):
    scn = load_scenario(mini)
    tr = simulate(scn, 30, seed=7)
    out = tmp_path / "run"
    write_trace(str(out), tr, scn, 7, mini)
    for name in ("trace.csv", "flows.csv", "regulation.csv", "units.csv",
                 "manifest.json"):
        assert (out / name).exists()
    first = (out / "trace.csv").read_text().splitlines()
    assert first[0].startswith("minute,imbalance_raw_mw")
    assert len(first) == 31
    import json
    man = json.loads((out / "manifest.json").read_text())
    assert man["seed"] == 7 and "scenario_hash" in man
    assert "timestamp" not in man


def test_written_trace_has_no_signed_zeros(mini, tmp_path):
    tr = SimulationTrace(minutes=1, branch_names=["a-b"],
                         interface_names=["ab"], reg_units=["g1"])
    tr.imbalance_raw[0] = -1e-12
    tr.imbalance[0] = -0.0
    tr.load[0] = -5e-7              # the most negative value printing 0
    tr.generation[0] = -6e-7        # rounds away from zero: keeps its sign
    tr.regulation[0, 0] = -1e-12
    tr.flows[0, 0] = -1e-12
    tr.interface_flow[0, 0] = -3e-7
    tr.unit_output["g1"] = np.array([-1e-12])
    out = tmp_path / "run"
    write_trace(str(out), tr, load_scenario(mini), 7)
    trace_row = (out / "trace.csv").read_text().splitlines()[1]
    assert trace_row.split(",")[1:6] == ["0.000000", "0.000000", "0.000000",
                                         "0.000000", "-0.000001"]
    for name in ("flows.csv", "regulation.csv", "units.csv"):
        assert "-0.000000" not in (out / name).read_text()
    assert (out / "flows.csv").read_text().splitlines()[1] == \
        "0,0.000000,0.000000,0.000000"


def _cadence(path, outages=(("gas2", 125, 40),)):
    """The fixture on a 5-minute market with default forecast errors and
    outages (resource, start, duration) that trigger contingency windows."""
    scn = load_scenario(path)
    scn.timing = Timing(scuc_horizon_h=2, rtuc_step_min=5,
                        rtuc_horizon_min=30, rtuc_period_min=30,
                        sced_step_min=5)
    for res in scn.loads + scn.semis:
        res.eps_da = res.eps_st = res.eps_rt = None
    for rid, start, duration in outages:
        scn.outages.append(Outage(resource=rid, start=start,
                                  duration=duration))
    return scn


def _schedules(scn, monkeypatch, strip):
    """(layer, objective, pivots) of every schedule of a 4-hour run, in
    order; ``strip`` drops the basis each window would start from."""
    seen, pivots = [], []

    def solver(real):
        def solve(lp, basis=None):
            sol = real(lp, basis=None if strip else basis)
            pivots.append(sol.pivots)
            return sol
        return solve

    def record(real):
        def run(*args, **kwargs):
            pivots.clear()
            sched = real(*args, **kwargs)
            seen.append((sched.layer, sched.objective, sum(pivots)))
            return sched
        return run

    with monkeypatch.context() as mp:
        mp.setattr(dispatch, "solve_lp", solver(dispatch.solve_lp))
        mp.setattr(dispatch, "solve_milp", solver(dispatch.solve_milp))
        for name in ("run_scuc", "run_rtuc", "run_sced"):
            mp.setattr(engine, name, record(getattr(engine, name)))
        simulate(scn, 240, seed=7)
    return seen


def test_warm_starts_keep_every_schedule_objective(mini, monkeypatch):
    warm = _schedules(_cadence(mini), monkeypatch, False)
    cold = _schedules(_cadence(mini), monkeypatch, True)
    assert [w[0] for w in warm] == [c[0] for c in cold]
    # 2 SCUC runs, 8 RTUC windows plus 2 for the outage, 48 SCED runs.
    assert len(warm) == 60
    for (_, a, _), (_, b, _) in zip(warm, cold):
        assert a == pytest.approx(b, rel=1e-9)
    # Every layer carries its basis from window to window.
    for layer in ("scuc", "rtuc", "sced"):
        assert sum(w[2] for w in warm if w[0] == layer) < \
            sum(c[2] for c in cold if c[0] == layer)


def _snapshot(program):
    """Every array, sense, name and binary flag of a program, as bytes and
    lists, and the cost it leaves outside the program."""
    lp, cols = program
    A, b, senses, c, l, u = lp.dense()
    return ([a.tobytes() for a in (A, b, c, l, u)], senses,
            lp.binary.tobytes(), lp.col_names, lp.row_names, cols.fixed_cost)


def test_refilled_programs_equal_fresh_builds(mini, monkeypatch):
    # The mini3-cadence day: every window's program, refilled from the
    # layer's previous window, is bitwise the program built afresh for it;
    # refilling the windows again in reverse shows that no value is left
    # over from the window filled before.
    scn = _cadence(mini, (("gas2", 605, 90), ("sun1", 800, 30)))
    build, fill = dispatch.build_program, dispatch.fill_program
    extract = dispatch.extract_schedule
    windows = []

    # A build fills the new structure through fill_program too.  The run's
    # state lives on past the window, so each window keeps a copy of it.
    def record_fill(program, scn, fc, init, opt):
        fill(program, scn, fc, init, opt)
        windows.append([(scn, fc, copy.deepcopy(init), opt), program])

    def record_extract(*args):
        windows[-1].append(_snapshot(windows[-1][1]))
        return extract(*args)

    with monkeypatch.context() as mp:
        mp.setattr(dispatch, "fill_program", record_fill)
        mp.setattr(dispatch, "extract_schedule", record_extract)
        simulate(scn, 1440, seed=7)
    layers = [args[3].layer for args, _, _ in windows]
    assert [layers.count(x) for x in ("scuc", "rtuc", "sced")] == \
        [12, 52, 288]
    # One program per layer, built once and refilled for every window.
    assert len({id(program) for _, program, _ in windows}) == 3
    fresh = [_snapshot(build(*args)) for args, _, _ in windows]
    for (_, _, got), want in zip(windows, fresh):
        assert got == want
    for (args, program, _), want in zip(windows[::-1], fresh[::-1]):
        fill(program, *args)
        assert _snapshot(program) == want


def _filled(program):
    """What a fill writes, as bytes: bounds, costs, right-hand sides,
    entries and the matrix, and the cost left outside the program."""
    lp, cols = program
    return [a.tobytes() for a in (lp.lb, lp.ub, lp.obj, lp.rhs, lp.entry_val,
                                  lp.A)] + [cols.fixed_cost]


def _fills_from_batches_equal_fills_alone(scn, minutes, seed, monkeypatch):
    """Run ``simulate`` and check each window's program, filled from its
    layer's batch of inputs, against a program of its layer filled for
    that window alone (its Forecasts without the batch); return the layer
    and the options of every window."""
    fill = dispatch.fill_program
    alone, windows = {}, []

    def check(program, scn, fc, init, opt):
        fill(program, scn, fc, init, opt)
        assert fc.inputs is not None
        one = dispatch.Forecasts(load=fc.load, semi=fc.semi)
        if opt.layer not in alone:
            alone[opt.layer] = dispatch._structure(scn, opt)
        fill(alone[opt.layer], scn, one, init, opt)
        assert _filled(alone[opt.layer]) == _filled(program), \
            (opt.layer, len(windows))
        windows.append(opt)

    with monkeypatch.context() as mp:
        mp.setattr(dispatch, "fill_program", check)
        simulate(scn, minutes, seed=seed)
    return windows


@pytest.mark.parametrize("seed", [1, 7])
def test_batched_fill_equals_a_window_alone_on_a_cadence_day(mini, seed,
                                                             monkeypatch):
    scn = _cadence(mini, (("gas2", 605, 90), ("sun1", 800, 30)))
    # Fuel prices that change by the hour, so each window's clock hours
    # show in its costs.
    for k, g in enumerate(scn.generators):
        g.c_f = g.c_f + np.arange(24.0) % (k + 3)
    windows = _fills_from_batches_equal_fills_alone(scn, 1440, seed,
                                                    monkeypatch)
    layers = [opt.layer for opt in windows]
    assert [layers.count(x) for x in ("scuc", "rtuc", "sced")] == \
        [12, 52, 288]
    # Windows with generator and semi outages came from the batch too.
    masks = [outage_masks(scn, opt.minute, opt.step_minutes, opt.steps)
             for opt in windows]
    assert any(not gen.all() for gen, _ in masks)
    assert any(not semi.all() for _, semi in masks)


def test_batched_fill_equals_a_window_alone_in_every_family(mini,
                                                            monkeypatch):
    # Storage pinned into the balance, DR, a sheddable load, a partly
    # curtailable solar unit and a contingency tie line, with generator
    # and semi outages, on the richest perturbation of the reference
    # cascade.
    from shared import perturbed
    p = dict(timing=1, eps="default", reg_units=8, storage=True, dr=True,
             shed=0.2, sun_d=0.5, tie=True, mesh=True, pair=True,
             gamma=0.02, outages=[("gas2", 25, 30), ("sun1", 60, 20)],
             seed=3, t_u=1, t_d=1, u_max=6, mid=False)
    scn = perturbed(mini, p)
    windows = _fills_from_batches_equal_fills_alone(scn, 120, p["seed"],
                                                    monkeypatch)
    assert {opt.layer for opt in windows} == {"scuc", "rtuc", "sced"}
    masks = [outage_masks(scn, opt.minute, opt.step_minutes, opt.steps)
             for opt in windows]
    assert any(not gen.all() for gen, _ in masks)
    assert any(not semi.all() for _, semi in masks)
    assert any(opt.pinned_storage for opt in windows)
