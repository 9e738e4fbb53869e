"""DC network flows, regulation dynamics, and actual-reserve arithmetic."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, strategies as st

from gridops.grid import (GridError, RegulationState, actual_reserves,
                          dc_flow, factor_network, make_regulation,
                          regulation_step)
from gridops.scenario import Branch, Generator, Interface, ZonalNetwork


def two_bubble():
    return ZonalNetwork(bubbles=["a", "b"], branches=[Branch("a", "b")],
                        swing="x", swing_attach=["a"])


def flow(net, injections):
    return dc_flow(factor_network(net), injections)


def test_two_bubble_transfer():
    gs = flow(two_bubble(), {"a": 100.0, "b": -100.0})
    assert gs.branch_flows[0] == pytest.approx(100.0)
    assert gs.swing_exchange == pytest.approx(0.0)


def test_surplus_exported_to_swing():
    gs = flow(two_bubble(), {"a": 120.0, "b": -100.0})
    assert gs.swing_exchange == pytest.approx(20.0)


def test_triangle_flow_split():
    net = ZonalNetwork(bubbles=["a", "b", "c"],
                       branches=[Branch("a", "b"), Branch("b", "c"),
                                 Branch("a", "c")])
    gs = flow(net, {"a": 90.0, "b": -90.0, "c": 0.0})
    assert gs.branch_flows[0] == pytest.approx(60.0)   # a->b direct
    assert gs.branch_flows[1] == pytest.approx(-30.0)  # c->b via c
    assert gs.branch_flows[2] == pytest.approx(30.0)   # a->c
    assert gs.swing_exchange == pytest.approx(0.0)


def test_interface_signed_sum():
    net = two_bubble()
    net.interfaces = [Interface("tie", [("a", "b", 1.0)], limit=150.0)]
    gs = flow(net, {"a": 100.0, "b": -100.0})
    assert gs.interface_flows["tie"] == pytest.approx((100.0, 150.0))
    net.interfaces = [Interface("rev", [("b", "a", 1.0)], limit=150.0)]
    gs = flow(net, {"a": 100.0, "b": -100.0})
    assert gs.interface_flows["rev"][0] == pytest.approx(-100.0)


def test_disconnected_network():
    net = ZonalNetwork(bubbles=["a", "b"], branches=[])
    with pytest.raises(GridError, match="disconnected"):
        factor_network(net)


def test_factored_flows_match_a_direct_solve():
    # Nodes a, b, c and the swing x, attached to a and c.
    net = ZonalNetwork(bubbles=["a", "b", "c"],
                       branches=[Branch("a", "b", weight=2.0),
                                 Branch("b", "c"), Branch("a", "c")],
                       swing="x", swing_attach=["a", "c"])
    net.interfaces = [Interface("out-a", [("a", "b", 1.0), ("c", "a", -1.0)],
                                limit=80.0)]
    lap = np.array([[4.0, -2.0, -1.0], [-2.0, 3.0, -1.0], [-1.0, -1.0, 3.0]])
    factor = factor_network(net)
    for inj in ({"a": 90.0, "b": -90.0, "c": 0.0},
                {"a": 0.0, "b": 45.0, "c": -30.0},
                {"a": -12.5, "b": 0.0, "c": 40.0}):
        theta = np.linalg.solve(lap, [inj["a"], inj["b"], inj["c"]])
        ref = [2.0 * (theta[0] - theta[1]), theta[1] - theta[2],
               theta[0] - theta[2]]
        gs = dc_flow(factor, inj)
        assert gs.branch_flows == pytest.approx(ref, abs=1e-9)
        # The reversed c->a member counts the a->c branch positively.
        assert gs.interface_flows["out-a"] == pytest.approx(
            (ref[0] + ref[2], 80.0), abs=1e-9)
        assert gs.swing_exchange == pytest.approx(sum(inj.values()))


def single_unit_reg(sat=50.0, g0=0.0):
    return RegulationState(unit_ids=["g1"], bubbles=["a"],
                           saturation=np.array([sat]),
                           g=np.array([g0]))


def test_regulation_saturates_with_steady_residual():
    reg = single_unit_reg(sat=50.0)
    residual = 0.0
    for _ in range(30):
        residual = regulation_step(-80.0, reg)
    assert reg.g[0] == pytest.approx(50.0)
    assert residual == pytest.approx(-30.0)


def clip_steps(imbalance, g, part, rate, sat):
    """The regulation recurrence stepped with np.clip, minute by minute."""
    outputs = np.empty((len(imbalance), len(g)))
    for m, x in enumerate(imbalance):
        delta = np.clip(-x * part - g, -rate, rate)
        g = np.clip(g + delta, -sat, sat)
        outputs[m] = g
    return outputs, imbalance + outputs.sum(axis=1)


finite = st.floats(-1e4, 1e4, allow_subnormal=False)
# (participation weight, saturation, rate, starting output) of one unit.
unit = st.tuples(st.floats(0.01, 1.0),
                 st.one_of(st.just(0.0), st.floats(0.5, 80.0)),
                 st.floats(-5.0, 20.0), finite)


@given(units=st.lists(unit, max_size=5),
       imbalance=st.lists(st.one_of(finite, st.sampled_from(
           [0.0, -0.0, np.nan, np.inf])), min_size=1, max_size=40))
def test_regulation_steps_the_bits_of_a_clip_loop(units, imbalance):
    # Random participations, saturations (zero-capacity units among them),
    # rates (a negative rate crosses the bounds) and starting outputs;
    # NaN and infinite imbalances too.
    weight, sat, rate, g0 = np.array(units, dtype=float).reshape(-1, 4).T
    part = weight / weight.sum() if len(units) else weight
    reg = RegulationState(unit_ids=[f"g{k}" for k in range(len(units))],
                          bubbles=["a"] * len(units), saturation=sat,
                          g=g0.copy(), rate=rate, participation=part)
    imb = np.array(imbalance)
    outputs = np.empty((len(imb), len(units)))
    with np.errstate(invalid="ignore"):
        residual = regulation_step(imb, reg, outputs)
        want_out, want_res = clip_steps(imb, g0, part, rate, sat)
    assert outputs.tobytes() == want_out.tobytes()
    assert residual.tobytes() == want_res.tobytes()


def test_regulation_rate_arithmetic():
    reg = single_unit_reg(sat=50.0)
    residual = regulation_step(-30.0, reg)
    assert reg.g[0] == pytest.approx(5.0)   # 10% of saturation per minute
    assert residual == pytest.approx(-25.0)
    for _ in range(5):
        residual = regulation_step(-30.0, reg)
    assert reg.g[0] == pytest.approx(30.0)
    assert residual == pytest.approx(0.0)


def test_regulation_washout_returns_to_zero():
    reg = single_unit_reg(sat=50.0, g0=30.0)
    levels = []
    for _ in range(8):
        regulation_step(0.0, reg)
        levels.append(reg.g[0])
    assert levels[:6] == pytest.approx([25, 20, 15, 10, 5, 0])
    assert levels[-1] == 0.0


def test_regulation_opposes_imbalance():
    reg = single_unit_reg()
    regulation_step(40.0, reg)
    assert reg.g[0] < 0
    reg2 = single_unit_reg()
    regulation_step(-40.0, reg2)
    assert reg2.g[0] > 0


def test_regulation_split_by_participation():
    reg = RegulationState(unit_ids=["g1", "g2"], bubbles=["a", "b"],
                          saturation=np.array([30.0, 10.0]))
    assert reg.participation == pytest.approx([0.75, 0.25])
    regulation_step(-8.0, reg)
    assert reg.g == pytest.approx([3.0, 1.0])  # rate limits 3 and 1 MW/min


def test_make_regulation_skips_uncontrolled_units():
    gens = [Generator(id="g1", bubble="a", p_max=100, reg_capacity=40.0),
            Generator(id="g2", bubble="a", p_max=100)]
    reg = make_regulation(gens)
    assert reg.unit_ids == ["g1"]
    assert reg.rate == pytest.approx([4.0])


def capacity_unit():
    return Generator(id="u", bubble="a", p_min=200.0, p_max=500.0,
                     r_min=-60.0 / 60.0, r_max=50.0 / 60.0)


def test_capacity_reserve_example():
    u = capacity_unit()
    snap = actual_reserves([u], {"u": 1.0}, {"u": 400.0}, {"u": 400.0})
    assert snap.lfr_up == 100.0
    assert snap.lfr_down == 200.0


def test_ramping_reserve_example():
    # 400 -> 425 MW over one hour against 50 up / 60 down MW/h limits.
    u = capacity_unit()
    snap = actual_reserves([u], {"u": 1.0}, {"u": 425.0}, {"u": 400.0},
                           dt_min=60.0)
    assert snap.ramp_up * 60.0 == 25.0
    assert snap.ramp_down * 60.0 == 85.0


def test_reserves_zero_when_offline():
    u = capacity_unit()
    snap = actual_reserves([u], {"u": 0.0}, {"u": 0.0}, {"u": 0.0})
    assert (snap.lfr_up, snap.lfr_down, snap.ramp_up, snap.ramp_down) == \
        (0.0, 0.0, 0.0, 0.0)


def test_lfr_identity_spans_capability():
    units = [Generator(id=f"g{i}", bubble="a", p_min=50.0 * i,
                       p_max=100.0 + 80.0 * i, r_min=-1, r_max=1)
             for i in range(1, 4)]
    out = {g.id: (g.p_min + g.p_max) / 2 for g in units}
    w = {g.id: 1.0 for g in units}
    snap = actual_reserves(units, w, out, out)
    span = sum(g.p_max - g.p_min for g in units)
    assert snap.lfr_up + snap.lfr_down == pytest.approx(span)


def test_outage_derates_headroom():
    u = capacity_unit()
    snap = actual_reserves([u], {"u": 1.0}, {"u": 250.0}, {"u": 250.0},
                           outage={"u": 0.5})
    assert snap.lfr_up == pytest.approx(0.0)  # 0.5*500 = 250 = output
    assert snap.lfr_down == pytest.approx(50.0)
