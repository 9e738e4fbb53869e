"""Statistics and report writers on synthetic traces."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from gridops.engine import SimulationTrace
from gridops.metrics import (MAX_HIST_BINS, congested_minutes, duration_curve,
                             evening_ramp_mw, exhausted_minutes,
                             excess_generation_minutes, histogram,
                             mileage_gwh, percentile_rank, summarize,
                             write_all, write_report)
from gridops.scenario import Generator, Scenario, ZonalNetwork


def make_trace(minutes=100, interfaces=("tie",), reg_units=("g1",)):
    return SimulationTrace(minutes=minutes, branch_names=["a-b"],
                           interface_names=list(interfaces),
                           reg_units=list(reg_units))


def test_nearest_rank_percentile():
    vals = np.arange(1, 101, dtype=float)   # 1..100
    assert percentile_rank(vals, 95.0) == 95.0
    assert percentile_rank(vals, 50.0) == 50.0
    assert percentile_rank(np.array([7.0]), 95.0) == 7.0


def test_duration_curve_descends():
    out = duration_curve(np.array([3.0, 1.0, 2.0]))
    assert list(out) == [3.0, 2.0, 1.0]


def test_histogram_edges_aligned():
    edges, counts = histogram(np.array([0.3, 1.7, 2.2, -0.4]), 1.0)
    assert edges[0] == -1.0 and edges[-1] == 3.0
    assert np.all(np.abs(edges - np.round(edges)) < 1e-12)
    assert counts.sum() == 4


def test_histogram_refuses_too_many_bins():
    # Exactly the cap is still binned: edges at 0..MAX_HIST_BINS.
    edges, counts = histogram(np.array([0.0, float(MAX_HIST_BINS)]), 1.0)
    assert len(counts) == MAX_HIST_BINS and counts.sum() == 2
    # +-1e9 MW at 1 MW bins would be 2e9 bins (a 14.9 GiB edge array).
    with pytest.raises(ValueError, match=r"^imbalance: values over "
                       r"\[-1e\+09, 1e\+09\] at bin width 1 need "
                       r"2000000000 histogram bins, more than 100000$"):
        histogram(np.array([-1e9, 0.0, 1e9]), 1.0, "imbalance")
    with pytest.raises(ValueError, match=r"^net_load: .* not finite$"):
        histogram(np.array([0.0, np.inf]), 10.0, "net_load")


def test_mileage_sums_absolute_movement():
    reg = np.array([[0.0], [5.0], [3.0], [3.0], [-2.0]])
    # Movement: 5 + 2 + 0 + 5 = 12 MW*min.
    assert mileage_gwh(reg) == pytest.approx(12.0 / 60_000.0)


@given(arrays(np.float64, array_shapes(min_dims=1, max_dims=2, max_side=40),
              elements=st.floats()))
def test_mileage_is_bitwise_the_diff_with_prepend(reg):
    """One-array deltas sum to the same bits as the three-temporary
    expression they replaced, NaN and infinite rows, a 1-row input and a
    column-major layout included."""
    with np.errstate(invalid="ignore", over="ignore"):
        want = float(np.abs(np.diff(reg, axis=0, prepend=reg[:1] * 0)).sum()
                     ) / 60_000.0
        for layout in (reg, np.asfortranarray(reg)):
            assert mileage_gwh(layout).hex() == want.hex()


def test_exhausted_counts_saturated_minutes():
    tr = make_trace(minutes=4)
    tr.reg_saturation = 50.0
    tr.regulation = np.array([[10.0], [50.0], [-50.0], [49.9995]])
    assert exhausted_minutes(tr, tr.regulation.sum(axis=1)) == 3


def test_congested_minutes_against_limit():
    tr = make_trace(minutes=3)
    tr.interface_flow[:, 0] = [10.0, 50.0, -50.0]
    tr.interface_limit[:, 0] = 50.0
    assert congested_minutes(tr) == {"tie": 2}


def test_excess_generation_floor():
    scn = Scenario(network=ZonalNetwork(bubbles=["a"]))
    scn.generators = [Generator(id="g", bubble="a", kind="must-run",
                                online=True, p_min=40.0, p_max=100.0)]
    tr = make_trace(minutes=3)
    tr.load[:] = [100.0, 35.0, 45.0]
    assert excess_generation_minutes(scn, tr.net_load()) == 1


def test_evening_ramp_looks_after_solar_peak():
    tr = make_trace(minutes=300)
    m = np.arange(300, dtype=float)
    tr.load[:] = 100.0
    # Solar bump peaking at minute 100, gone by 220.
    tr.ver_delivered[:] = np.clip(80.0 * np.sin(np.pi * (m - 40) / 180), 0,
                                  None) * (m < 220)
    net = tr.load - tr.ver_delivered
    ramp = evening_ramp_mw(tr, net, window_min=60)
    brute = max(net[k + 60] - net[k] for k in range(100, 240))
    assert ramp == pytest.approx(brute)


def test_summarize_and_write(tmp_path):
    scn = Scenario(network=ZonalNetwork(bubbles=["a"]))
    tr = make_trace(minutes=10)
    tr.imbalance[:] = 0.5
    tr.imbalance[3] = 2.0
    rows = summarize(tr, scn, "demo", tr.net_load(),
                     tr.regulation.sum(axis=1), np.abs(tr.imbalance),
                     tr.curtailment())
    as_map = {(f, m): v for f, _, m, v, _ in rows}
    assert as_map[("imbalance", "minutes_above_1mw")] == 1
    assert as_map[("imbalance", "share_within_1mw")] == pytest.approx(0.9)
    write_all(str(tmp_path), tr, scn, "demo")
    text = (tmp_path / "report.csv").read_text().splitlines()
    assert text[0] == "family,scenario,metric,value,unit"
    assert any(line.startswith("imbalance,demo,p95_abs,") for line in text)
    assert (tmp_path / "duration_imbalance.csv").exists()
    assert (tmp_path / "hist_net_load.csv").exists()
    assert (tmp_path / "plotdata" / "regulation.csv").exists()


def test_write_all_forms_each_series_once(tmp_path, monkeypatch):
    # write_all forms the net load and the curtailment once and hands
    # them, with the regulation total and the absolute imbalance, to
    # summarize; the report holds the rows summarize gives.
    scn = Scenario(network=ZonalNetwork(bubbles=["a"]))
    scn.generators = [Generator(id="g", bubble="a", kind="must-run",
                                online=True, p_min=40.0, p_max=100.0)]
    tr = make_trace(minutes=200, reg_units=("g1", "g2"))
    m = np.arange(200, dtype=float)
    tr.load[:] = 100.0 + 20.0 * np.sin(m / 30.0)
    tr.ver_delivered[:] = np.clip(90.0 * np.sin(m / 50.0), 0.0, None)
    tr.regulation = np.column_stack([np.cos(m / 7.0), np.sin(m / 9.0)]) * 30
    tr.reg_saturation = 45.0
    want = summarize(tr, scn, "demo", tr.net_load(),
                     tr.regulation.sum(axis=1), np.abs(tr.imbalance),
                     tr.curtailment())
    assert {r[2] for r in want if r[3]} >= {"exhausted_minutes",
                                            "excess_generation_minutes",
                                            "max_evening_net_ramp"}
    calls = []
    for name in ("net_load", "curtailment"):
        series = getattr(SimulationTrace, name)
        monkeypatch.setattr(
            SimulationTrace, name,
            lambda self, name=name, series=series:
            calls.append(name) or series(self))
    write_all(str(tmp_path), tr, scn, "demo")
    assert sorted(calls) == ["curtailment", "net_load"]
    out = tmp_path / "other"
    write_report(str(out), want)
    assert (tmp_path / "report.csv").read_bytes() == \
        (out / "report.csv").read_bytes()
