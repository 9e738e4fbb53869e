"""Acceptance suite: one test per release criterion.

Each test is self-contained and prints one pass/fail line through pytest.
Simulation-based criteria share module-scoped runs to keep the suite fast.
"""

from __future__ import annotations

import inspect
import itertools
import time

import numpy as np
import pytest
import scipy.optimize

import gridops.lp
from gridops.engine import simulate
from gridops.grid import (RegulationState, actual_reserves, regulation_step)
from gridops.lp import GE, LE, solve_lp
from gridops.metrics import exhausted_minutes, percentile_rank
from gridops.milp import solve_milp
from gridops.mini import write_mini3
from gridops.profiles import (Profile, ramp_stats, scale_ver,
                              synthesize_error, variability)
from gridops.scenario import Generator, VerSpec, load_scenario
from gridops.engine import SimulationTrace

import golden
from shared import Builder


# --------------------------------------------------------------------------
# Shared simulation runs


@pytest.fixture(scope="module")
def base_2day(tmp_path_factory):
    d = tmp_path_factory.mktemp("accept_base")
    path = str(d / "mini3.scn")
    write_mini3(path, days=3)
    scn = load_scenario(path)
    t0 = time.time()
    trace = simulate(scn, 2880, seed=scn.seed)
    return trace, time.time() - t0


def _variant_day(tmp_path_factory, variant):
    d = tmp_path_factory.mktemp(f"accept_{variant}")
    path = str(d / "mini3.scn")
    write_mini3(path, variant=variant, days=2)
    scn = load_scenario(path)
    return simulate(scn, 1440, seed=scn.seed), scn


@pytest.fixture(scope="module")
def congested_day(tmp_path_factory):
    return _variant_day(tmp_path_factory, "congestion")


@pytest.fixture(scope="module")
def wide_day(tmp_path_factory):
    return _variant_day(tmp_path_factory, "congestion-wide")


@pytest.fixture(scope="module")
def solar_day(tmp_path_factory):
    return _variant_day(tmp_path_factory, "high-solar")


# --------------------------------------------------------------------------
# 1. Reserve arithmetic is exact.


def test_c01_reserve_arithmetic_exact():
    unit = Generator(id="u", bubble="a", p_min=200.0, p_max=500.0,
                     r_min=-60.0 / 60.0, r_max=50.0 / 60.0)
    cap = actual_reserves([unit], {"u": 1.0}, {"u": 400.0}, {"u": 400.0})
    assert (cap.lfr_up, cap.lfr_down) == (100.0, 200.0)
    ramp = actual_reserves([unit], {"u": 1.0}, {"u": 425.0}, {"u": 400.0},
                           dt_min=60.0)
    assert (ramp.ramp_up * 60.0, ramp.ramp_down * 60.0) == (25.0, 85.0)


# --------------------------------------------------------------------------
# 2. Branch and bound agrees with exhaustive enumeration.


def _random_mip(rng):
    prog = Builder()
    nb = int(rng.integers(2, 9))
    nc = int(rng.integers(1, 4))
    for j in range(nb):
        prog.var(f"z{j}", lb=0.0, ub=1.0,
                 obj=round(float(rng.normal()), 3), binary=True)
    for j in range(nc):
        prog.var(f"x{j}", lb=0.0, ub=float(rng.integers(1, 10)),
                 obj=round(float(rng.normal()), 3))
    n = nb + nc
    for i in range(int(rng.integers(1, 5))):
        coeffs = [(j, round(float(rng.normal()), 3)) for j in range(n)
                  if rng.random() < 0.7]
        if not coeffs:
            coeffs = [(0, 1.0)]
        sense = LE if rng.random() < 0.7 else GE
        rhs = round(float(rng.normal() * 3), 3)
        prog.constr(f"c{i}", coeffs, sense, rhs)
    return prog.program(), nb


def _enumerate_best(lp, nb):
    best = None
    for bits in itertools.product([0.0, 1.0], repeat=nb):
        sol = solve_lp(lp, var_bounds={j: (b, b) for j, b in enumerate(bits)})
        if sol.status == "optimal" and (best is None or
                                        sol.objective < best - 1e-12):
            best = sol.objective
    return best


def test_c02_milp_matches_enumeration_quickly():
    t0 = time.time()
    rng = np.random.default_rng(2024)
    for _ in range(25):
        lp, nb = _random_mip(rng)
        sol = solve_milp(lp)
        best = _enumerate_best(lp, nb)
        if best is None:
            assert sol.status == "infeasible"
        else:
            assert sol.status == "optimal"
            assert sol.objective == pytest.approx(best, abs=1e-6)
    assert time.time() - t0 < 60.0


# --------------------------------------------------------------------------
# 3. Every optimal solve carries verified optimality certificates.


def _matches_highs(lp, sol, A, b, c, senses) -> int:
    """Check ``sol`` against HiGHS; 1 when it is optimal, else 0."""
    n = len(c)
    ref = scipy.optimize.linprog(
        c, A_ub=np.vstack([A[i] if s == LE else -A[i]
                           for i, s in enumerate(senses)]),
        b_ub=np.array([b[i] if s == LE else -b[i]
                       for i, s in enumerate(senses)]),
        bounds=[(v.lb, v.ub) for v in lp.variables], method="highs")
    if sol.status != "optimal":
        assert ref.status == 2
        return 0
    assert ref.status == 0
    assert sol.objective == pytest.approx(ref.fun, abs=1e-6)
    for con, ax in zip(lp.constraints, A @ sol.x[:n]):
        if con.sense == LE:
            assert ax <= con.rhs + 1e-6
        else:
            assert ax >= con.rhs - 1e-6
    return 1


def test_c03_certificates_on_every_solve(monkeypatch):
    # Verification runs inside the solver on every optimal solve, from the
    # crash or from a given basis, with no parameter that turns it off...
    assert list(inspect.signature(solve_lp).parameters) == \
        ["lp", "var_bounds", "basis"]
    verified = []
    real = gridops.lp.verify_certificates

    def counted(*args, **kwargs):
        verified.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(gridops.lp, "verify_certificates", counted)
    # ...and independently, solutions are feasible and match a reference
    # solver's objective.
    rng = np.random.default_rng(7)
    checked = warm = 0
    for _ in range(30):
        m, n = int(rng.integers(2, 6)), int(rng.integers(2, 6))
        prog = Builder()
        c = rng.normal(size=n).round(3)
        for j in range(n):
            prog.var(f"x{j}", lb=0.0, ub=float(rng.integers(2, 8)),
                     obj=float(c[j]))
        A = rng.normal(size=(m, n)).round(3)
        b = rng.normal(size=m).round(3) * 2
        senses = [LE if rng.random() < 0.6 else GE for _ in range(m)]
        for i in range(m):
            prog.constr(f"r{i}", [(j, float(A[i, j])) for j in range(n)],
                        senses[i], float(b[i]))
        lp = prog.program()
        sol = solve_lp(lp)   # raises internally if certificates fail
        checked += _matches_highs(lp, sol, A, b, c, senses)
        if sol.status == "optimal":
            # The same program with its rows moved, from the last basis.
            lp.rhs[:] += 0.5
            sol = solve_lp(lp, basis=sol.basis)
            warm += _matches_highs(lp, sol, A, b + 0.5, c, senses)
    assert checked >= 10 and warm >= 10
    assert len(verified) == checked + warm


# --------------------------------------------------------------------------
# 4. Renewable profile synthesis is calibrated.


def test_c04_ver_calibration():
    # Forecast error std lands within 5% of the requested level.
    eps, pi, peak = 0.12, 0.4, 10_000.0
    errs = synthesize_error(3, eps, pi, peak, 20_000, "day-ahead")
    target = eps * pi * peak
    assert abs(float(errs.std()) - target) / target < 0.05

    # Doubling the requested variability doubles the measured variability
    # to within 1%.
    n = 43_200   # 30 whole days of a daily cycle
    tt = np.arange(n)
    base = Profile(1.0 + 0.3 * np.sin(2 * np.pi * tt / 1440.0))
    a0 = variability(base) * 60.0
    spec1 = VerSpec(pi=0.3, gamma_cf=0.4, A=2.0 * a0)
    spec2 = VerSpec(pi=0.3, gamma_cf=0.4, A=4.0 * a0)
    v1 = variability(scale_ver(base, spec1, 1000.0))
    v2 = variability(scale_ver(base, spec2, 1000.0))
    assert v2 / v1 == pytest.approx(2.0, rel=0.01)


# --------------------------------------------------------------------------
# 5. Ramp severity is ordered by resolution.


def test_c05_ramp_ordering_on_random_profiles():
    rng = np.random.default_rng(11)
    for _ in range(20):
        n = int(rng.integers(2000, 6000))
        values = np.cumsum(rng.normal(size=n)) + 500.0
        values -= values.min() - 10.0
        p = Profile(values)
        s = {res: ramp_stats(p, res) for res in ("1min", "10min", "1h")}
        # Normalized MW/min: averaging can only soften the steepest ramp.
        assert s["1h"].max_up <= s["10min"].max_up + 1e-9
        assert s["10min"].max_up <= s["1min"].max_up + 1e-9
        assert s["1h"].max_down <= s["10min"].max_down + 1e-9
        assert s["10min"].max_down <= s["1min"].max_down + 1e-9


# --------------------------------------------------------------------------
# 6. The bundled system holds balance almost every minute, fast.


def test_c06_two_day_balance(base_2day):
    trace, elapsed = base_2day
    assert elapsed < 300.0
    within = float(np.mean(np.abs(trace.imbalance) <= 1.0))
    assert within >= 0.99
    assert trace.supergen.max(initial=0.0) == pytest.approx(0.0, abs=1e-6)


# --------------------------------------------------------------------------
# 7. Curtailment happens exactly when the interface binds.


def test_c07_congestion_coupling(congested_day, wide_day):
    trace, scn = congested_day
    limit = scn.network.interfaces[0].limit
    step = scn.timing.sced_step_min
    curtailed = np.nonzero(trace.curtailment() > 1e-3)[0]
    assert len(curtailed) > 0
    flow = np.abs(trace.interface_flow[:, 0])
    for m in curtailed:
        lo, hi = max(m - step, 0), min(m + step + 1, trace.minutes)
        assert flow[lo:hi].max() >= limit - 2.0, \
            f"curtailment at minute {m} without a binding interface"
    wide_trace, _ = wide_day
    assert np.all(wide_trace.curtailment() <= 1e-3)


# --------------------------------------------------------------------------
# 8. Regulation saturates and the minute counts as exhausted.


def test_c08_regulation_saturation():
    reg = RegulationState(unit_ids=["r"], bubbles=["a"],
                          saturation=np.array([50.0]))
    residual = 0.0
    history = []
    for _ in range(30):
        residual = regulation_step(-80.0, reg)
        history.append(reg.g.copy())
    assert residual == pytest.approx(-30.0, abs=0.5)
    tr = SimulationTrace(minutes=30, branch_names=[], interface_names=[],
                         reg_units=["r"])
    tr.reg_saturation = 50.0
    tr.regulation = np.array(history)
    assert exhausted_minutes(tr, tr.regulation.sum(axis=1)) >= 1


# --------------------------------------------------------------------------
# 9. Same seed, same bytes.


def test_c09_byte_identical_determinism(tmp_path):
    path = str(tmp_path / "mini3.scn")
    write_mini3(path, days=1)
    tr1 = simulate(load_scenario(path), 120, seed=3)
    tr2 = simulate(load_scenario(path), 120, seed=3)
    for name in ("imbalance_raw", "imbalance", "load", "generation",
                 "ver_delivered", "flows", "regulation"):
        assert getattr(tr1, name).tobytes() == getattr(tr2, name).tobytes()
    for g in tr1.unit_output:
        assert tr1.unit_output[g].tobytes() == tr2.unit_output[g].tobytes()


# The same runs give the bytes recorded in ``golden.json``.  Runs the
# shared fixtures already simulate are hashed from their traces.
GOLDEN_FIXTURES = {"mini3-base": "base_2day", "congestion": "congested_day",
                   "congestion-wide": "wide_day", "high-solar": "solar_day"}


@pytest.mark.parametrize("run", sorted(golden.RUNS))
def test_c09_golden_outputs(run, request, tmp_path):
    path = golden.write_scenario(run, str(tmp_path))
    scn = load_scenario(path)
    if run in GOLDEN_FIXTURES:
        trace = request.getfixturevalue(GOLDEN_FIXTURES[run])[0]
    else:
        trace = golden.simulate_run(run, scn)
    out = golden.write_outputs(run, trace, scn, path, str(tmp_path / "out"))
    moved = golden.first_difference(run, out, golden.load_manifest())
    assert moved is None, moved


# Every program those runs solve is bitwise the one recorded: arrays,
# names, senses and repr, so build-path changes cannot move a program
# unseen.
@pytest.mark.parametrize("run", golden.PROGRAM_RUNS)
def test_c09_golden_programs(run, tmp_path):
    want = golden.load_manifest()["programs"][run]
    assert golden.program_digest(run, str(tmp_path)) == want


# --------------------------------------------------------------------------
# 10. The evening net-load ramp dominates once solar fades.


def test_c10_duck_curve(solar_day):
    trace, _ = solar_day
    net = trace.net_load()
    ramps = net[60:] - net[:-60]
    steepest = int(np.argmax(ramps))
    solar_peak = int(np.argmax(trace.ver_delivered))
    assert steepest >= solar_peak
    # And the reported metric is that exact brute-force maximum.
    from gridops.metrics import evening_ramp_mw
    assert evening_ramp_mw(trace, net) == pytest.approx(
        float(ramps[solar_peak:].max()))
