"""Simplex solver checked against scipy's HiGHS backend and hand solutions."""

from __future__ import annotations

import numpy as np
import pytest
from scipy.optimize import linprog

import gridops.lp as lpmod
from gridops.lp import EQ, GE, INF, LE, LinearProgram, solve_lp


def small_lp():
    lp = LinearProgram()
    x = lp.add_var("x", 0, 10, obj=-3.0)
    y = lp.add_var("y", 0, 10, obj=-5.0)
    lp.add_constr("c1", [(x, 1.0), (y, 2.0)], LE, 14.0)
    lp.add_constr("c2", [(x, 3.0), (y, -1.0)], GE, 0.0)
    lp.add_constr("c3", [(x, 1.0), (y, -1.0)], LE, 2.0)
    return lp


def test_hand_solved_vertex():
    sol = solve_lp(small_lp())
    assert sol.status == "optimal"
    # Optimum at intersection of c1 and c3: x+2y=14, x-y=2.
    assert sol.x == pytest.approx([6.0, 4.0], abs=1e-8)
    assert sol.objective == pytest.approx(-38.0, abs=1e-8)


def test_duals_match_scipy():
    lp = small_lp()
    sol = solve_lp(lp)
    ref = linprog([-3, -5], A_ub=[[1, 2], [-3, 1], [1, -1]],
                  b_ub=[14, 0, 2], bounds=[(0, 10), (0, 10)], method="highs")
    assert sol.objective == pytest.approx(ref.fun, abs=1e-8)
    # c2 was flipped to <= for scipy, so its dual flips sign.
    y = sol.duals
    expect = ref.ineqlin.marginals * np.array([1, -1, 1])
    assert y[:3] == pytest.approx(expect, abs=1e-7)


def test_equality_and_free_variable():
    lp = LinearProgram()
    x = lp.add_var("x", -INF, INF, obj=1.0)
    y = lp.add_var("y", 0, 5, obj=2.0)
    lp.add_constr("fix", [(x, 1.0), (y, 1.0)], EQ, 3.0)
    lp.add_constr("floor", [(x, 1.0)], GE, -4.0)
    sol = solve_lp(lp)
    assert sol.status == "optimal"
    # Substituting x = 3 - y gives objective 3 + y, so y drops to 0.
    assert sol.x == pytest.approx([3.0, 0.0], abs=1e-8)


def test_infeasible_names_rows():
    lp = LinearProgram()
    x = lp.add_var("x", 0, 1, obj=1.0)
    lp.add_constr("bal_low", [(x, 1.0)], GE, 2.0)
    sol = solve_lp(lp)
    assert sol.status == "infeasible"
    assert sol.infeasible_rows == ["bal_low"]


def test_unbounded():
    lp = LinearProgram()
    x = lp.add_var("x", 0, INF, obj=-1.0)
    lp.add_constr("c", [(x, -1.0)], LE, 0.0)
    assert solve_lp(lp).status == "unbounded"


def test_bound_overrides():
    lp = small_lp()
    sol = solve_lp(lp, var_bounds={1: (0.0, 3.0)})
    ref = linprog([-3, -5], A_ub=[[1, 2], [-3, 1], [1, -1]],
                  b_ub=[14, 0, 2], bounds=[(0, 10), (0, 3)], method="highs")
    assert sol.objective == pytest.approx(ref.fun, abs=1e-8)
    assert sol.x[1] <= 3.0 + 1e-9


def test_fixed_variable():
    lp = small_lp()
    sol = solve_lp(lp, var_bounds={0: (1.5, 1.5)})
    assert sol.status == "optimal"
    assert sol.x[0] == pytest.approx(1.5, abs=1e-9)


def test_degenerate_lp_terminates():
    # Many redundant constraints meeting at one vertex.
    lp = LinearProgram()
    xs = [lp.add_var(f"x{i}", 0, INF, obj=-1.0) for i in range(4)]
    for i in range(4):
        lp.add_constr(f"r{i}", [(xs[i], 1.0)], LE, 1.0)
        lp.add_constr(f"s{i}", [(xs[i], 1.0), (xs[(i + 1) % 4], 1.0)], LE, 2.0)
    lp.add_constr("all", [(j, 1.0) for j in xs], LE, 4.0)
    sol = solve_lp(lp)
    assert sol.status == "optimal"
    assert sol.objective == pytest.approx(-4.0, abs=1e-8)


def test_random_lps_match_scipy():
    rng = np.random.default_rng(7)
    for trial in range(60):
        n = int(rng.integers(2, 6))
        m = int(rng.integers(1, 9))
        A = rng.normal(size=(m, n)).round(3)
        c = rng.normal(size=n).round(3)
        lo = rng.uniform(-2, 0, n).round(3)
        hi = lo + rng.uniform(0.5, 4, n).round(3)
        # rhs chosen near A @ midpoint so many rows bind.
        mid = (lo + hi) / 2
        b = (A @ mid + rng.normal(scale=0.5, size=m)).round(3)
        senses = rng.choice([LE, GE, EQ], size=m, p=[0.5, 0.35, 0.15])

        lp = LinearProgram()
        for j in range(n):
            lp.add_var(f"x{j}", lo[j], hi[j], obj=c[j])
        for i in range(m):
            lp.add_constr(f"r{i}", [(j, A[i, j]) for j in range(n)],
                          str(senses[i]), b[i])
        sol = solve_lp(lp)

        ub_rows = [(A[i] if senses[i] == LE else -A[i], b[i] if senses[i] == LE else -b[i])
                   for i in range(m) if senses[i] != EQ]
        eq_rows = [(A[i], b[i]) for i in range(m) if senses[i] == EQ]
        ref = linprog(c,
                      A_ub=np.array([r[0] for r in ub_rows]) if ub_rows else None,
                      b_ub=np.array([r[1] for r in ub_rows]) if ub_rows else None,
                      A_eq=np.array([r[0] for r in eq_rows]) if eq_rows else None,
                      b_eq=np.array([r[1] for r in eq_rows]) if eq_rows else None,
                      bounds=list(zip(lo, hi)), method="highs")
        if ref.status == 2:
            assert sol.status == "infeasible", f"trial {trial}"
        else:
            assert ref.status == 0
            assert sol.status == "optimal", f"trial {trial}"
            assert sol.objective == pytest.approx(ref.fun, abs=1e-6), f"trial {trial}"


def test_deterministic_repeat():
    lp = small_lp()
    a = solve_lp(lp)
    b = solve_lp(lp)
    assert np.array_equal(a.x, b.x)
    assert a.objective == b.objective


def test_feasible_start_needs_no_phase1():
    # x = y = 0 satisfies every row, so all rows start on their slacks.
    sol = solve_lp(small_lp())
    assert sol.status == "optimal"
    assert sol.phase1_pivots == 0
    assert sol.pivots >= 2


def two_var_lp(sense, rhs):
    lp = LinearProgram()
    x = lp.add_var("x", 0, 10, obj=1.0)
    y = lp.add_var("y", 0, 10, obj=2.0)
    lp.add_constr("r", [(x, 1.0), (y, -1.0 if sense == LE else 1.0)],
                  sense, rhs)
    lp.add_constr("cap", [(x, 1.0)], LE, 8.0)
    return lp


@pytest.mark.parametrize("sense,rhs,opt_x", [
    (LE, -1.0, [0.0, 1.0]),   # x - y <= -1 reads 0 at the start point
    (GE, 3.0, [3.0, 0.0]),    # x + y >= 3 reads 0 at the start point
])
def test_rows_needing_artificials_reach_optimum(sense, rhs, opt_x):
    sol = solve_lp(two_var_lp(sense, rhs))
    assert sol.status == "optimal"
    assert sol.phase1_pivots >= 1
    assert sol.x == pytest.approx(opt_x, abs=1e-9)


@pytest.mark.parametrize("rhs,opt_x,needs_phase1", [
    (2.0, [2.0, 0.0], False),   # y (fewest nonzeros) absorbs x + y = 2
    (15.0, [8.0, 7.0], True),   # x, y <= 10: neither alone reaches 15
], ids=["absorbed", "needs_artificial"])
def test_equality_row_crash(rhs, opt_x, needs_phase1):
    sol = solve_lp(two_var_lp(EQ, rhs))
    assert sol.status == "optimal"
    assert (sol.phase1_pivots >= 1) == needs_phase1
    assert sol.x == pytest.approx(opt_x, abs=1e-9)


def test_crash_prefers_fewest_nonzeros():
    # x + y = 2: x also sits in the cap row, so y starts basic at 2 although
    # x has the lower index.
    sx = lpmod._Simplex(*two_var_lp(EQ, 2.0).dense())
    assert sx.basis[0] == 1
    assert sx.x[1] == 2.0


def test_crash_of_chained_equality_rows_is_triangular():
    # Storage-like chain E[t] - E[t-1] (+ spill at t = 3) = inflow[t] with
    # E[t] in [0, 5].  Row 3 needs 6.5, beyond both E[3] and spill, so it
    # gets an artificial and row 4 crashes on E[3] instead of E[4].  Columns
    # of earlier crashed rows reappear in later ones, so the crash block has
    # entries below its diagonal and needs real forward substitution.
    inflow = [2.0, 1.0, -0.5, 4.0, -1.0, 1.0]
    lp = LinearProgram()
    E = [lp.add_var(f"E{t}", 0, 5, obj=float(t % 2)) for t in range(len(inflow))]
    spill = lp.add_var("spill", 0, 2, obj=10.0)
    for t, q in enumerate(inflow):
        coeffs = [(E[t], 1.0)] + ([(E[t - 1], -1.0)] if t else [])
        if t == 3:
            coeffs.append((spill, 1.0))
        lp.add_constr(f"stor{t}", coeffs, EQ, q)
    A, b, senses, c, l, u = lp.dense()
    sx = lpmod._Simplex(A, b, senses, c, l, u)

    n = len(lp.variables)
    pos = np.flatnonzero(sx.basis < n)
    cols = sx.basis[pos]
    assert pos.tolist() == [0, 1, 2, 4, 5]
    assert cols.tolist() == [E[0], E[1], E[2], E[3], E[5]]
    assert sx.art_rows.tolist() == [3]
    T = A[np.ix_(pos, cols)]
    assert np.all(np.triu(T, 1) == 0.0) and np.all(np.diag(T) != 0.0)
    assert np.any(np.tril(T, -1) != 0.0)
    B = sx.A[:, sx.basis]
    assert np.allclose(sx.Binv @ B, np.eye(len(inflow)), atol=1e-12)
    assert np.all(sx.x[cols] >= l[cols]) and np.all(sx.x[cols] <= u[cols])
    assert np.allclose(sx.A @ sx.x, b, atol=1e-12)

    sol = solve_lp(lp)
    ref = linprog(c, A_eq=A, b_eq=b, bounds=list(zip(l, u)), method="highs")
    assert sol.status == "optimal"
    assert sol.objective == pytest.approx(ref.fun, abs=1e-8)


def test_pivot_cap_reports_iteration_limit(monkeypatch):
    # small_lp has 3 rows and 2 columns, so this caps the solve at 1 pivot;
    # its optimum has both structurals basic and needs at least 2.
    monkeypatch.setattr(lpmod, "_PIVOTS_PER_DIM", 1 / 5)
    sol = solve_lp(small_lp())
    assert sol.status == "iteration_limit"
    assert sol.x is None
    assert sol.pivots == 1
