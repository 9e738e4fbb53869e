"""Simplex solver checked against scipy's HiGHS backend and hand solutions."""

from __future__ import annotations

import re

import numpy as np
import pytest
from scipy.optimize import linprog

import gridops.lp as lpmod
from gridops.lp import EQ, GE, INF, LE, LinearProgram, solve_lp
from shared import Builder


def with_slacks(A):
    """``[A | I]``: the structural columns and one slack ``e_i`` per row."""
    return np.hstack((A, np.eye(len(A))))


def entry(lp, i, j):
    """Index of the first entry of row ``i`` in column ``j``."""
    lo, hi = lp.indptr[i], lp.indptr[i + 1]
    return int(lo + np.flatnonzero(lp.entry_col[lo:hi] == j)[0])


def small_lp():
    prog = Builder()
    x = prog.var("x", 0, 10, obj=-3.0)
    y = prog.var("y", 0, 10, obj=-5.0)
    prog.constr("c1", [(x, 1.0), (y, 2.0)], LE, 14.0)
    prog.constr("c2", [(x, 3.0), (y, -1.0)], GE, 0.0)
    prog.constr("c3", [(x, 1.0), (y, -1.0)], LE, 2.0)
    return prog.program()


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
    prog = Builder()
    x = prog.var("x", -INF, INF, obj=1.0)
    y = prog.var("y", 0, 5, obj=2.0)
    prog.constr("fix", [(x, 1.0), (y, 1.0)], EQ, 3.0)
    prog.constr("floor", [(x, 1.0)], GE, -4.0)
    lp = prog.program()
    sol = solve_lp(lp)
    assert sol.status == "optimal"
    # Substituting x = 3 - y gives objective 3 + y, so y drops to 0.
    assert sol.x == pytest.approx([3.0, 0.0], abs=1e-8)


def test_infeasible_names_rows():
    prog = Builder()
    x = prog.var("x", 0, 1, obj=1.0)
    prog.constr("bal_low", [(x, 1.0)], GE, 2.0)
    lp = prog.program()
    sol = solve_lp(lp)
    assert sol.status == "infeasible"
    assert sol.infeasible_rows == ["bal_low"]


def test_unbounded():
    prog = Builder()
    x = prog.var("x", 0, INF, obj=-1.0)
    prog.constr("c", [(x, -1.0)], LE, 0.0)
    lp = prog.program()
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
    prog = Builder()
    xs = [prog.var(f"x{i}", 0, INF, obj=-1.0) for i in range(4)]
    for i in range(4):
        prog.constr(f"r{i}", [(xs[i], 1.0)], LE, 1.0)
        prog.constr(f"s{i}", [(xs[i], 1.0), (xs[(i + 1) % 4], 1.0)], LE, 2.0)
    prog.constr("all", [(j, 1.0) for j in xs], LE, 4.0)
    lp = prog.program()
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

        prog = Builder()
        for j in range(n):
            prog.var(f"x{j}", lo[j], hi[j], obj=c[j])
        for i in range(m):
            prog.constr(f"r{i}", [(j, A[i, j]) for j in range(n)],
                        str(senses[i]), b[i])
        lp = prog.program()
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
    # x = y = 0 satisfies every row, so all rows start on their slacks
    # within their bounds and the solve makes no dual pivot.
    sol = solve_lp(small_lp())
    assert sol.status == "optimal"
    assert sol.dual_pivots == 0
    assert sol.pivots >= 2


def _spy_dual_costs(monkeypatch):
    """Record the cost vector each dual loop runs on."""
    costs = []
    real = lpmod._Simplex._dual_iterate

    def spy(self, cost):
        costs.append(cost.copy())
        return real(self, cost)
    monkeypatch.setattr(lpmod._Simplex, "_dual_iterate", spy)
    return costs


def _start_violations(sx):
    """Each column's violation of its reduced cost's sign at the start of
    ``sx``, under the true costs; all zero when the start is dual
    feasible."""
    return sx._dual_infeasibility(sx._reduced_costs(sx.cost))


def two_var_lp(sense, rhs):
    prog = Builder()
    x = prog.var("x", 0, 10, obj=1.0)
    y = prog.var("y", 0, 10, obj=2.0)
    prog.constr("r", [(x, 1.0), (y, -1.0 if sense == LE else 1.0)],
                sense, rhs)
    prog.constr("cap", [(x, 1.0)], LE, 8.0)
    return prog.program()


@pytest.mark.parametrize("sense,rhs,opt_x", [
    (LE, -1.0, [0.0, 1.0]),   # x - y <= -1 reads 0 at the start point
    (GE, 3.0, [3.0, 0.0]),    # x + y >= 3 reads 0 at the start point
])
def test_rows_needing_artificials_reach_optimum(sense, rhs, opt_x):
    # Row r's slack starts basic outside its bounds; the start is dual
    # feasible, so one dual pivot brings the cheaper column in to carry
    # the row, and phase 2 has nothing to do.
    lp = two_var_lp(sense, rhs)
    sx = lpmod._Simplex(*lp.dense())
    assert sx.basis.tolist() == [2, 3]
    assert sx._outside().tolist() == [abs(rhs), 0.0]
    assert not _start_violations(sx).any()
    sol = solve_lp(lp)
    assert sol.status == "optimal"
    assert (sol.pivots, sol.dual_pivots) == (1, 1)
    assert sol.x == pytest.approx(opt_x, abs=1e-9)


@pytest.mark.parametrize("rhs,opt_x,outside", [
    (2.0, [2.0, 0.0], False),   # y (fewest nonzeros) absorbs x + y = 2
    (15.0, [8.0, 7.0], True),   # x, y <= 10: neither alone reaches 15
], ids=["absorbed", "needs_artificial"])
def test_equality_row_crash(rhs, opt_x, outside):
    # A row no column can absorb stays on its slack, fixed at 0 but basic
    # at the row's residual, and the dual loop moves it out.
    lp = two_var_lp(EQ, rhs)
    sx = lpmod._Simplex(*lp.dense())
    assert sx._outside().any() == outside
    sol = solve_lp(lp)
    assert sol.status == "optimal"
    assert (sol.dual_pivots >= 1) == outside
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
    # stays on its slack and row 4 crashes on E[3] instead of E[4].  Columns
    # of earlier crashed rows reappear in later ones, so the crash block has
    # entries below its diagonal.
    inflow = [2.0, 1.0, -0.5, 4.0, -1.0, 1.0]
    prog = Builder()
    E = [prog.var(f"E{t}", 0, 5, obj=float(t % 2)) for t in range(len(inflow))]
    spill = prog.var("spill", 0, 2, obj=10.0)
    for t, q in enumerate(inflow):
        coeffs = [(E[t], 1.0)] + ([(E[t - 1], -1.0)] if t else [])
        if t == 3:
            coeffs.append((spill, 1.0))
        prog.constr(f"stor{t}", coeffs, EQ, q)
    lp = prog.program()
    A, b, senses, c, l, u = lp.dense()
    sx = lpmod._Simplex(A, b, senses, c, l, u)

    n = len(lp.variables)
    pos = np.flatnonzero(sx.basis < n)
    cols = sx.basis[pos]
    assert pos.tolist() == [0, 1, 2, 4, 5]
    assert cols.tolist() == [E[0], E[1], E[2], E[3], E[5]]
    # Row 3's slack, fixed at 0, is the one basic outside its bounds.
    assert sx.basis[3] == n + 3
    assert np.flatnonzero(sx._outside()).tolist() == [3]
    T = A[np.ix_(pos, cols)]
    assert np.all(np.triu(T, 1) == 0.0) and np.all(np.diag(T) != 0.0)
    assert np.any(np.tril(T, -1) != 0.0)
    B = with_slacks(sx.An)[:, sx.basis]
    assert np.allclose(sx.Binv @ B, np.eye(len(inflow)), atol=1e-12)
    assert np.all(sx.x[cols] >= l[cols]) and np.all(sx.x[cols] <= u[cols])
    assert np.allclose(with_slacks(sx.An) @ sx.x, b, atol=1e-12)

    sol = solve_lp(lp)
    ref = linprog(c, A_eq=A, b_eq=b, bounds=list(zip(l, u)), method="highs")
    assert sol.status == "optimal" and sol.dual_pivots >= 1
    assert sol.objective == pytest.approx(ref.fun, abs=1e-8)


def test_pivot_cap_reports_iteration_limit(monkeypatch):
    # small_lp has 3 rows and 2 columns, so this caps the solve at 1 pivot;
    # its optimum has both structurals basic and needs at least 2.
    monkeypatch.setattr(lpmod, "_PIVOTS_PER_DIM", 1 / 5)
    sol = solve_lp(small_lp())
    assert sol.status == "iteration_limit"
    assert sol.x is None
    assert sol.pivots == 1


def chain_lp():
    # Equality rows, a free column and a column at its upper bound.
    prog = Builder()
    E = [prog.var(f"E{t}", 0, 5, obj=float(t % 2) - 0.5) for t in range(4)]
    f = prog.var("f", -INF, INF, obj=0.25)
    for t, q in enumerate([2.0, 1.0, -0.5, 1.5]):
        coeffs = [(E[t], 1.0)] + ([(E[t - 1], -1.0)] if t else [])
        prog.constr(f"stor{t}", coeffs, EQ, q)
    prog.constr("f_floor", [(f, 1.0), (E[3], -1.0)], GE, -4.0)
    prog.constr("f_ceil", [(f, 1.0)], LE, 3.0)
    return prog.program()


def upper_lp():
    # x ends nonbasic at its upper bound 4, y basic at 3.
    prog = Builder()
    x = prog.var("x", 0, 4, obj=-1.0)
    y = prog.var("y", 0, 10, obj=-1.0)
    prog.constr("cap", [(x, 1.0), (y, 2.0)], LE, 10.0)
    return prog.program()


@pytest.mark.parametrize("make", [small_lp, chain_lp, upper_lp,
                                  lambda: two_var_lp(EQ, 15.0)],
                         ids=["inequalities", "chain", "at_upper_bound",
                              "needs_artificial"])
def test_restart_from_own_basis_takes_no_pivots(make):
    lp = make()
    cold = solve_lp(lp)
    assert cold.status == "optimal" and cold.pivots > 0
    warm = solve_lp(lp, basis=cold.basis)
    assert warm.status == "optimal"
    assert warm.pivots == 0
    assert warm.x == pytest.approx(cold.x, abs=1e-12)
    assert set(warm.basis.cols.tolist()) == set(cold.basis.cols.tolist())
    assert np.array_equal(warm.basis.states, cold.basis.states)


def _same_as_cold(lp, basis):
    cold = solve_lp(lp)
    got = solve_lp(lp, basis=basis)
    assert got.status == cold.status
    assert got.x.tobytes() == cold.x.tobytes()
    assert (got.pivots, got.dual_pivots) == (cold.pivots, cold.dual_pivots)


def test_unusable_basis_falls_back_to_the_crash():
    lp = small_lp()                 # 3 rows, 2 columns, 5 basis columns
    opt = solve_lp(lp).basis
    states = opt.states
    for cols in ([2, 3], [2, 3, 4, 0], [0, 0, 4], [0, 1, 7], [-1, 3, 4]):
        _same_as_cold(lp, lpmod.Basis(np.array(cols), states))
    _same_as_cold(lp, lpmod.Basis(opt.cols, states[:4]))


def test_singular_or_ill_conditioned_basis_falls_back():
    # Columns x and y are parallel in both rows, so no basis holding both
    # is usable; with z they are merely close to parallel.
    for eps in (0.0, 1e-13):
        prog = Builder()
        x = prog.var("x", 0, 10, obj=-1.0)
        y = prog.var("y", 0, 10, obj=-1.0 - eps)
        prog.constr("a", [(x, 1.0), (y, 1.0)], LE, 4.0)
        prog.constr("b", [(x, 2.0), (y, 2.0 + eps)], LE, 9.0)
        lp = prog.program()
        start = lpmod.Basis(np.array([x, y]),
                            np.full(4, lpmod._AT_LB, dtype=np.int8))
        assert not lpmod._Simplex(*lp.dense(), start).warm
        _same_as_cold(lp, start)


def test_start_with_out_of_bound_basics_runs_the_dual_loop(monkeypatch):
    # From the optimum of x + y >= 3 (x = 3), moving the rhs to 12 puts
    # the basic x above its bound of 10.  The costs are unchanged, so the
    # start is dual feasible: the dual loop runs on the true costs, moves
    # x out at 10 and y in.
    costs = _spy_dual_costs(monkeypatch)
    prog = Builder()
    prog.var("x", 0, 10, obj=1.0)
    prog.var("y", 0, 10, obj=2.0)
    prog.constr("r", [(0, 1.0), (1, 1.0)], GE, 3.0)
    lp = prog.program()
    opt = solve_lp(lp)
    assert opt.x.tolist() == [3.0, 0.0]
    lp.rhs[0] = 12.0
    sx = lpmod._Simplex(*lp.dense(), opt.basis)
    assert sx.warm and sx._outside().tolist() == [2.0]
    assert not _start_violations(sx).any()
    assert sx.x[0] == 12.0 and sx.state[0] == lpmod._BASIC
    warm = solve_lp(lp, basis=opt.basis)
    assert warm.status == "optimal"
    assert warm.x.tolist() == [10.0, 2.0]
    assert (warm.pivots, warm.dual_pivots) == (1, 1)
    assert costs[-1].tolist() == [1.0, 2.0, 0.0]
    # With y now cheaper than x the same start is dual infeasible too:
    # y's cost is lowered by its reduced cost of -0.5 for the dual loop,
    # which brings y in at no cost; phase 2 on the true costs then trades
    # x for y.
    lp.obj[1] = 0.5
    sx = lpmod._Simplex(*lp.dense(), opt.basis)
    assert sx.warm and sx._outside().tolist() == [2.0]
    assert _start_violations(sx).tolist() == [0.0, 0.5, 0.0]
    warm = solve_lp(lp, basis=opt.basis)
    assert warm.status == "optimal"
    assert (warm.pivots, warm.dual_pivots) == (2, 1)
    assert costs[-1].tolist() == [1.0, 1.0, 0.0]
    assert sx._reduced_costs(costs[-1]).tolist() == [0.0, 0.0, -1.0]
    assert warm.x == pytest.approx([2.0, 10.0], abs=1e-9)
    # Lowering the rhs to -1 leaves x = -1 below 0 instead, a start that
    # is neither primal nor dual feasible: x leaves at 0 and the GE row's
    # slack, entering, carries the row.  The basis returned holds only
    # that slack, and its simplex holds the inverse of [A | I][:, cols].
    lp.rhs[0] = -1.0
    sx = lpmod._Simplex(*lp.dense(), opt.basis)
    assert sx.warm and sx._outside().tolist() == [1.0]
    assert sx.x[0] == -1.0 and sx.state[0] == lpmod._BASIC
    assert _start_violations(sx).any()
    warm = solve_lp(lp, basis=opt.basis)
    assert warm.status == "optimal" and warm.x.tolist() == [0.0, 0.0]
    assert (warm.pivots, warm.dual_pivots) == (1, 1)
    assert costs[-1].tolist() == [1.0, 1.0, 0.0]
    assert warm.basis.cols.tolist() == [2]
    inverse = warm.simplex.Binv
    B = with_slacks(lp.A)[:, warm.basis.cols]
    assert np.array_equal(inverse @ B, np.eye(1))
    lp.obj[1] = 2.0
    # A basic column fixed where it stands is within its bounds: it stays
    # basic at its value, a degenerate basic, and no dual loop runs.
    lp.rhs[0] = 3.0
    A, b, senses, c, l, u = lp.dense()
    l[0] = u[0] = 3.0
    sx = lpmod._Simplex(A, b, senses, c, l, u, opt.basis)
    assert not sx._outside().any()
    assert sx.basis.tolist() == [0] and sx.state[0] == lpmod._BASIC
    assert sx.x[0] == 3.0
    runs = len(costs)
    assert sx.solve()[0] == "optimal" and sx.dual_pivots == 0
    assert len(costs) == runs
    assert sx.x[:2].tolist() == [3.0, 0.0]
    # Fixed away from its value, as a B&B child fixes a fractional basic
    # binary, it leaves by the dual loop at 2.0 and y takes the rest.
    l[0] = u[0] = 2.0
    sx = lpmod._Simplex(A, b, senses, c, l, u, opt.basis)
    assert sx._outside().tolist() == [1.0]
    assert not _start_violations(sx).any()
    assert sx.solve()[0] == "optimal"
    assert (sx.pivots, sx.dual_pivots) == (1, 1)
    assert sx.x[:2].tolist() == [2.0, 1.0]
    assert sx.state[0] == lpmod._AT_UB       # it left from above
    # Lowering the rhs to -1 with the true costs: x leaves at 0 and the
    # slack enters, on costs left as they are.
    lp.rhs[0] = -1.0
    sx = lpmod._Simplex(*lp.dense(), opt.basis)
    assert sx._outside().tolist() == [1.0]
    assert not _start_violations(sx).any()
    warm = solve_lp(lp, basis=opt.basis)
    assert warm.status == "optimal" and warm.x.tolist() == [0.0, 0.0]
    assert warm.dual_pivots == 1
    assert costs[-1].tolist() == [1.0, 2.0, 0.0]
    assert warm.basis.cols.tolist() == [2]


def two_block_lp():
    # Two copies of x + y >= 3 with x the cheaper column; at the optimum
    # both x are basic at 3.
    prog = Builder()
    for k in range(2):
        x = prog.var(f"x{k}", 0, 10, obj=1.0)
        y = prog.var(f"y{k}", 0, 10, obj=2.0)
        prog.constr(f"r{k}", [(x, 1.0), (y, 1.0)], GE, 3.0)
    return prog.program()


def test_dual_loop_pivot_cap_reports_iteration_limit(monkeypatch):
    # Moving both rhs to 12 puts both basic x above 10: a dual start that
    # needs two dual pivots.  2 rows and 4 columns cap the solve at 1.
    lp = two_block_lp()
    opt = solve_lp(lp)
    lp.rhs[:] = 12.0
    full = solve_lp(lp, basis=opt.basis)
    assert full.status == "optimal"
    assert (full.pivots, full.dual_pivots) == (2, 2)
    monkeypatch.setattr(lpmod, "_PIVOTS_PER_DIM", 1 / 6)
    sol = solve_lp(lp, basis=opt.basis)
    assert sol.status == "iteration_limit"
    assert sol.x is None
    assert (sol.pivots, sol.dual_pivots) == (1, 1)


def test_dual_start_with_no_entering_column_is_solved_from_the_crash():
    # x + y >= 25 with x, y <= 10 is infeasible; from the optimum at rhs 3
    # the start is dual feasible, the dual simplex moves x out at 10 and y
    # in, then finds no column to move y toward its bound, and the crash
    # re-solve (two dual pivots of its own) names the row.
    prog = Builder()
    prog.var("x", 0, 10, obj=1.0)
    prog.var("y", 0, 10, obj=2.0)
    prog.constr("r", [(0, 1.0), (1, 1.0)], GE, 3.0)
    lp = prog.program()
    opt = solve_lp(lp)
    lp.rhs[0] = 25.0
    sx = lpmod._Simplex(*lp.dense(), opt.basis)
    assert sx._outside().any() and not _start_violations(sx).any()
    assert sx.solve() == ("infeasible", None, [0])
    assert (sx.pivots, sx.dual_pivots) == (1, 1)
    got = solve_lp(lp, basis=opt.basis)
    assert got.status == "infeasible"
    assert (got.pivots, got.dual_pivots) == (3, 3)
    assert got.infeasible_rows == solve_lp(lp).infeasible_rows == ["r"]


def _count_inversions(monkeypatch):
    """Count the fresh inversions a solve makes: starts and refills
    (``_basis_inverse``) and every ``np.linalg.inv``."""
    calls = {"factor": 0, "inv": 0}
    factor, inv = lpmod._basis_inverse, np.linalg.inv

    def count_factor(A, given):
        calls["factor"] += 1
        return factor(A, given)

    def count_inv(a):
        calls["inv"] += 1
        return inv(a)
    monkeypatch.setattr(lpmod, "_basis_inverse", count_factor)
    monkeypatch.setattr(np.linalg, "inv", count_inv)
    return calls


@pytest.mark.parametrize("make", [small_lp, chain_lp, upper_lp,
                                  lambda: two_var_lp(EQ, 15.0)],
                         ids=["inequalities", "chain", "at_upper_bound",
                              "needs_artificial"])
def test_carried_inverse_is_reused(monkeypatch, make):
    lp = make()
    cold = solve_lp(lp)
    sx = cold.simplex
    B = with_slacks(lp.A)[:, cold.basis.cols]
    assert sx.Binv @ B == pytest.approx(np.eye(lp.m), abs=1e-12)
    Binv = sx.Binv
    inverse = Binv.tobytes()
    calls = _count_inversions(monkeypatch)
    warm = solve_lp(lp, basis=sx)
    assert calls == {"factor": 0, "inv": 0}
    assert warm.status == "optimal" and warm.pivots == 0
    assert warm.x == pytest.approx(cold.x, abs=1e-12)
    # The live simplex is re-solved in place, on the inverse it ended with.
    assert warm.simplex is sx and sx.Binv is Binv
    assert Binv.tobytes() == inverse
    # Its basis alone, without the simplex, is inverted afresh.
    again = solve_lp(lp, basis=cold.basis)
    assert calls["factor"] == 1
    assert again.x == pytest.approx(cold.x, abs=1e-12)


def test_a_refilled_copy_leaves_the_original_as_it_was():
    # Branch and bound refills copies of the root's simplex under other
    # bounds; a refill writes the bounds and costs in place, so a copy has
    # its own.
    lp = small_lp()
    sx = solve_lp(lp).simplex
    before = [a.tobytes() for a in (sx.l, sx.u, sx.cost, sx.x, sx.Binv)]
    twin = sx.copy()
    lp.obj[0] = -4.0
    child = solve_lp(lp, var_bounds={0: (1.0, 2.0)}, basis=twin)
    assert child.status == "optimal" and child.simplex is twin
    assert twin.l[0] == 1.0 and twin.u[0] == 2.0 and twin.cost[0] == -4.0
    assert [a.tobytes() for a in (sx.l, sx.u, sx.cost, sx.x, sx.Binv)] == \
        before


def test_carried_inverse_is_refused_after_a_basic_column_changes(
        monkeypatch):
    lp = small_lp()
    opt = solve_lp(lp)
    sx = opt.simplex
    assert sorted(opt.basis.cols.tolist()) == [0, 1, 3]   # x, y, slack c2
    calls = _count_inversions(monkeypatch)
    # Writing a value bitwise equal to the old one keeps the inverse.
    k = entry(lp, 2, 1)                                   # y in c3
    lp.set_coeffs(lp.cells([k]), np.array([-1.0]))
    Binv = sx.Binv
    solve_lp(lp, basis=sx)
    assert calls["factor"] == 0 and sx.Binv is Binv
    # A new value in the basic column y is refused: the re-solve inverts
    # afresh without reading the stale inverse, bitwise the solve from
    # the basis alone.
    lp.set_coeffs(lp.cells([k]), np.array([-1.5]))
    start = lpmod.Basis(sx.basis.copy(), sx.state.copy())
    sx.Binv = None                   # any read of the stale inverse fails
    got = solve_lp(lp, basis=sx)
    assert calls["factor"] == 1
    fresh = solve_lp(lp, basis=start)
    assert got.status == fresh.status == "optimal"
    assert got.x.tobytes() == fresh.x.tobytes()
    assert got.duals.tobytes() == fresh.duals.tobytes()
    assert (got.pivots, got.dual_pivots) == (fresh.pivots, fresh.dual_pivots)
    assert got.simplex.Binv.tobytes() == fresh.simplex.Binv.tobytes()


def test_write_to_a_nonbasic_column_keeps_the_inverse(monkeypatch):
    # x sits nonbasic at its upper bound 4 and y is basic: a new
    # coefficient of x moves what y has left, not the basis, so the
    # re-solve keeps the inverse.
    lp = upper_lp()
    opt = solve_lp(lp)
    sx = opt.simplex
    assert opt.basis.cols.tolist() == [1] and opt.x.tolist() == [4.0, 3.0]
    calls = _count_inversions(monkeypatch)
    lp.set_coeffs(lp.cells([entry(lp, 0, 0)]), np.array([1.5]))
    Binv = sx.Binv
    sol = solve_lp(lp, basis=sx)
    assert calls == {"factor": 0, "inv": 0} and sx.Binv is Binv
    assert sol.x.tolist() == [4.0, 2.0]


def test_repeated_cells_reread_A_and_refactor(monkeypatch):
    # Two entries in one cell make set_coeffs drop A: the re-solve reads
    # the matrix assembled afresh and inverts its basis afresh, even after
    # a write to a column that is not basic.
    prog = Builder()
    x = prog.var("x", 0, 10, obj=-1.0)
    y = prog.var("y", 0, 10, obj=-2.0)
    prog.constr("a", [(x, 1.0), (y, 0.5), (y, 0.5)], LE, 8.0)
    prog.constr("b", [(x, 1.0)], LE, 20.0)
    lp = prog.program()
    opt = solve_lp(lp)
    sx = opt.simplex
    assert lp.A[0, 1] == 1.0 and opt.x.tolist() == [0.0, 8.0]
    old = lp.A
    calls = _count_inversions(monkeypatch)
    lp.set_coeffs(lp.cells([entry(lp, 1, x)]), np.array([2.0]))
    sol = solve_lp(lp, basis=sx)
    assert lp.A is not old and sx.An is lp.A
    assert calls["factor"] == 1
    assert sol.x.tolist() == [0.0, 8.0]
    # Such a program cannot tell which bits a write changed: the same
    # write again drops A and inverts afresh once more.
    lp.set_coeffs(lp.cells([entry(lp, 1, x)]), np.array([2.0]))
    sol = solve_lp(lp, basis=sx)
    assert calls["factor"] == 2 and sx.An is lp.A
    assert sol.x.tolist() == [0.0, 8.0]


def test_refactor_cadence_counts_pivots_across_carried_solves(monkeypatch):
    monkeypatch.setattr(lpmod, "_REFACTOR_EVERY", 4)
    refactors = []
    real = lpmod._Simplex._refactor

    def spy(self):
        refactors.append(self.pivots)
        return real(self)
    monkeypatch.setattr(lpmod._Simplex, "_refactor", spy)
    prog = Builder()
    for j, cost in enumerate([-1, -2, -3, -1.5, -2.5]):
        prog.var(f"x{j}", 0, 10, obj=cost)
    for i in range(5):
        prog.constr(f"r{i}", [(j, 1.0 + (i * j) % 3) for j in range(5)],
                    LE, 20.0 + i)
    lp = prog.program()
    cold = solve_lp(lp)
    sx = cold.simplex
    assert (cold.pivots, sx.age, refactors) == (3, 0, [])
    for j, cost in enumerate([-3, -1, -0.5, -2, -4]):
        lp.obj[j] = cost
    warm = solve_lp(lp, basis=sx)
    # 3 carried + 1 pivot reach the cadence of 4: one fresh inversion
    # after the first pivot, then 2 more pivots on it.
    assert warm.simplex is sx
    assert (warm.pivots, sx.age, refactors) == (3, 3, [1])
    # The next re-solve carries the count on: 6 pivots, 2 past the
    # cadence.
    solve_lp(lp, basis=sx)
    assert sx.age == 2 and refactors == [1]


def test_warm_start_that_ends_infeasible_names_the_cold_rows():
    lp = small_lp()
    opt = solve_lp(lp)
    lp.rhs[0] = -1.0  # x + 2y <= -1 with x, y >= 0
    got = solve_lp(lp, basis=opt.basis)
    assert got.status == "infeasible"
    assert got.infeasible_rows == solve_lp(lp).infeasible_rows == ["c1"]


def states_lp():
    # At the optimum x sits at its upper bound 4, y is basic at 3, z at its
    # lower bound and the free f nonbasic at 0; the "loose" row has slack,
    # so its dual is 0 and leaves z's and f's reduced costs at 1 and 0.
    prog = Builder()
    x = prog.var("x", 0, 4, obj=-1.0)
    y = prog.var("y", 0, 10, obj=-1.0)
    z = prog.var("z", 0, 5, obj=1.0)
    f = prog.var("f", -INF, INF)
    prog.constr("cap", [(x, 1.0), (y, 2.0)], LE, 10.0)
    prog.constr("loose", [(z, 1.0), (f, 1.0)], LE, 100.0)
    return prog.program()


@pytest.mark.parametrize("part, k, value, message", [
    ("x", 1, 3.5, "primal infeasibility 1.000e\\+00 in cap"),
    ("x", 1, np.nan, "primal infeasibility nan in cap"),
    ("x", 2, -0.5, "bound violation on z"),
    ("duals", 0, -0.4, "nonzero reduced cost -2.000e-01 on basic col 1"),
    ("duals", 0, np.nan, "dual infeasibility nan at upper bound col 0"),
    ("duals", 1, 2.0, "dual infeasibility -1.000e\\+00 at lower bound col 2"),
    ("duals", 0, -2.0, "dual infeasibility 1.000e\\+00 at upper bound col 0"),
    ("duals", 1, 1.0, "dual infeasibility -1.000e\\+00 on free col 3"),
], ids=["primal_row", "primal_nan", "bound", "basic", "dual_nan",
        "at_lower", "at_upper", "free"])
def test_certificate_check_names_the_first_violation(monkeypatch, part, k,
                                                     value, message):
    real = lpmod.verify_certificates
    seen = []
    monkeypatch.setattr(lpmod, "verify_certificates",
                        lambda *args: seen.append(args))
    lp = states_lp()
    sol = solve_lp(lp)
    _, _, sx = seen[0]
    assert sol.x.tolist() == [4.0, 3.0, 0.0, 0.0]
    assert sx.state[:4].tolist() == [lpmod._AT_UB, lpmod._BASIC,
                                     lpmod._AT_LB, lpmod._FREE]
    real(lp, sol, sx)                 # the solved program passes
    getattr(sol, part)[k] = value
    with pytest.raises(lpmod.SolverError, match=f"^{message}$"):
        real(lp, sol, sx)


def test_repr_lists_the_calls_that_rebuild_the_program():
    prog = Builder()
    x = prog.var("x", -INF, INF, obj=-0.0)
    y = prog.var("y", 0.0, 1.0, obj=0.1, binary=True)
    z = prog.var("z", -2.5, 7.0, obj=3.0)
    prog.constr("le", [(x, 1.0), (y, 1.0 / 3.0), (x, 2.0)], LE, 4.0)
    prog.constr("eq", [(z, -1.0)], EQ, -0.0)
    prog.constr("ge", [], GE, -INF)
    lp = prog.program()
    text = repr(lp)
    assert text.startswith("LinearProgram(cols=[('x', -inf, inf, -0.0, "
                           "False), ('y', 0.0, 1.0, 0.1, True), ")
    cols, rows = eval(text, {"inf": INF,
                             "LinearProgram": lambda cols, rows: (cols, rows)})
    copy = LinearProgram(cols, rows)
    arrays = ("binary", "entry_row", "entry_col", "entry_val", "indptr")
    for a, b in zip([*lp.dense(), *(getattr(lp, n) for n in arrays)],
                    [*copy.dense(), *(getattr(copy, n) for n in arrays)]):
        assert np.asarray(a).tobytes() == np.asarray(b).tobytes()  # bitwise
    assert (copy.col_names, copy.row_names) == (lp.col_names, lp.row_names)
    assert repr(copy) == text


@pytest.mark.parametrize("item,message", [
    (("var", "b", -1.0, 0.5, 0.0, True),
     "binary variable b needs bounds within [0,1]"),
    (("var", "b", 0, 2, 0.0, True),
     "binary variable b needs bounds within [0,1]"),
    (("var", "b", 2.0, 1.5, 0.0, True),
     "binary variable b needs bounds within [0,1]"),
    (("var", "x", 2, 1.5, 0.0, False), "variable x has empty domain [2,1.5]"),
    (("var", "x", INF, -INF, 0.0, False),
     "variable x has empty domain [inf,-inf]"),
    (("constr", "r", [(0, 1.0)], "==", 0.0),
     "unknown sense '==' in constraint r"),
    (("constr", "r", [(0, 1.0), (1, 2.0)], LE, 0.0),
     "constraint r references variable index 1"),
    (("constr", "r", [(-1, 1.0)], LE, 0.0),
     "constraint r references variable index -1"),
], ids=["binary", "binary-int", "binary-empty", "domain", "domain-inf",
        "sense", "column", "negative-column"])
def test_malformed_items_are_named(item, message):
    # Making a program of one column and the item raises the message.
    kind, *args = item
    cols = [("y", 0.0, INF, 0.0, False)]
    block = (cols + [args], []) if kind == "var" else (cols, [args])
    with pytest.raises(lpmod.SolverError, match=f"^{re.escape(message)}$"):
        LinearProgram(*block)
