"""Branch and bound checked by exhaustive enumeration over binaries."""

from __future__ import annotations

import itertools

import numpy as np
import pytest

import gridops.lp as lpmod
import gridops.milp as milpmod
from gridops.lp import GE, INF, LE, LinearProgram, solve_lp
from gridops.milp import solve_milp
from shared import Builder


def enumerate_best(lp: LinearProgram, fixed=None):
    """Oracle: try every binary assignment, solve the remaining LP."""
    binaries = lp.binary_indices
    best = None
    for combo in itertools.product([0.0, 1.0], repeat=len(binaries)):
        bounds = {j: (v, v) for j, v in zip(binaries, combo)}
        if fixed:
            skip = False
            for j, v in fixed.items():
                if j in bounds and bounds[j][0] != v:
                    skip = True
                bounds[j] = (v, v)
            if skip:
                continue
        sol = solve_lp(lp, var_bounds=bounds)
        if sol.status == "optimal" and (best is None or sol.objective < best - 1e-9):
            best = sol.objective
    return best


def knapsack_lp():
    # Pick items maximizing value under a weight cap.
    values = [6.0, 10.0, 12.0, 7.0]
    weights = [1.0, 2.0, 3.0, 2.0]
    prog = Builder()
    for k, v in enumerate(values):
        prog.var(f"z{k}", 0, 1, obj=-v, binary=True)
    prog.constr("cap", [(k, w) for k, w in enumerate(weights)], LE, 5.0)
    return prog.program()


def test_knapsack():
    lp = knapsack_lp()
    sol = solve_milp(lp)
    assert sol.status == "optimal"
    assert sol.objective == pytest.approx(enumerate_best(lp), abs=1e-6)
    assert sol.objective == pytest.approx(-23.0, abs=1e-6)  # items 1 and 2
    assert all(abs(v - round(v)) < 1e-9 for v in sol.x)


def test_fixed_binaries_respected():
    lp = knapsack_lp()
    lp.ub[2] = 0.0
    sol = solve_milp(lp)
    assert sol.x[2] == 0.0
    assert sol.objective == pytest.approx(enumerate_best(lp, {2: 0.0}),
                                          abs=1e-6)


def test_integral_relaxation_skips_branching():
    prog = Builder()
    z = prog.var("z", 0, 1, obj=1.0, binary=True)
    p = prog.var("p", 0, 10, obj=0.5)
    prog.constr("need", [(p, 1.0)], GE, 4.0)
    # p <= 4z with p >= 4 forces z = 1 already in the relaxation.
    prog.constr("link", [(p, 1.0), (z, -4.0)], LE, 0.0)
    lp = prog.program()
    sol = solve_milp(lp)
    assert sol.status == "optimal"
    assert sol.branches == 0
    assert sol.objective == pytest.approx(3.0, abs=1e-9)


def test_infeasible_program():
    prog = Builder()
    z = prog.var("z", 0, 1, obj=1.0, binary=True)
    prog.constr("hi", [(z, 1.0)], GE, 0.4)
    prog.constr("lo", [(z, 1.0)], LE, 0.6)
    lp = prog.program()
    # No integral point in [0.4, 0.6].
    assert solve_milp(lp).status == "infeasible"


def test_node_limit_reports_distinct_status():
    lp = knapsack_lp()
    sol = solve_milp(lp, node_limit=2)
    assert sol.status == "node_limit"


def test_random_mixed_programs_match_enumeration():
    rng = np.random.default_rng(11)
    for trial in range(25):
        nb = int(rng.integers(2, 5))
        nc = int(rng.integers(1, 3))
        m = int(rng.integers(1, 5))
        prog = Builder()
        for k in range(nb):
            prog.var(f"z{k}", 0, 1, obj=round(float(rng.normal()), 3), binary=True)
        for k in range(nc):
            prog.var(f"x{k}", 0, 3, obj=round(float(rng.normal()), 3))
        n = nb + nc
        for i in range(m):
            coeffs = [(j, round(float(rng.normal()), 3)) for j in range(n)]
            rhs = round(float(rng.normal(scale=2)), 3)
            prog.constr(f"r{i}", coeffs, LE if rng.random() < 0.7 else GE, rhs)
        lp = prog.program()
        sol = solve_milp(lp)
        best = enumerate_best(lp)
        if best is None:
            assert sol.status == "infeasible", f"trial {trial}"
        else:
            assert sol.status == "optimal", f"trial {trial}"
            assert sol.objective == pytest.approx(best, abs=1e-6), f"trial {trial}"


def test_deterministic_repeat():
    lp = knapsack_lp()
    a = solve_milp(lp)
    b = solve_milp(lp)
    assert np.array_equal(a.x, b.x)
    assert a.nodes == b.nodes


def _spy_node_lps(monkeypatch, before=None):
    """Record every node LP solve_milp makes; ``before(k)`` runs ahead of
    the k-th one (0 is the root)."""
    seen = []

    def spy(lp, var_bounds=None, basis=None):
        if before:
            before(len(seen))
        seen.append(solve_lp(lp, var_bounds=var_bounds, basis=basis))
        return seen[-1]
    monkeypatch.setattr(milpmod, "solve_lp", spy)
    return seen


def test_pivots_summed_over_nodes(monkeypatch):
    seen = _spy_node_lps(monkeypatch)
    sol = solve_milp(knapsack_lp())
    assert sol.status == "optimal"
    assert sol.nodes == len(seen) > 1
    assert sol.pivots == sum(s.pivots for s in seen) > 0
    assert sol.dual_pivots == sum(s.dual_pivots for s in seen) > 0


def test_pivot_cap_at_root_reports_iteration_limit(monkeypatch):
    # knapsack_lp has 1 row and 4 columns: the cap is 1 pivot.
    monkeypatch.setattr(lpmod, "_PIVOTS_PER_DIM", 1 / 5)
    sol = solve_milp(knapsack_lp())
    assert sol.status == "iteration_limit"
    assert sol.x is None
    assert sol.nodes == 1


def test_infeasible_root_counts_one_node():
    prog = Builder()
    z = prog.var("z", 0, 1, obj=1.0, binary=True)
    prog.constr("need2", [(z, 1.0)], GE, 2.0)
    lp = prog.program()
    sol = solve_milp(lp)
    assert sol.status == "infeasible"
    assert sol.nodes == 1
    assert sol.pivots == solve_lp(lp).pivots > 0


def test_pivot_cap_in_a_child_ends_the_search(monkeypatch):
    # A child starts from its parent's basis and needs a single pivot
    # here, so the cap allows none.
    def cap_children(k):
        if k == 1:
            monkeypatch.setattr(lpmod, "_PIVOTS_PER_DIM", 0)
    seen = _spy_node_lps(monkeypatch, cap_children)
    sol = solve_milp(knapsack_lp())
    # The capped child is not mistaken for an infeasible one.
    assert seen[1].status == "iteration_limit"
    assert sol.status == "iteration_limit"
    assert sol.x is None
    assert sol.nodes == 2


def _random_mip(rng, nb=6, nc=2, m=3):
    prog = Builder()
    for k in range(nb):
        prog.var(f"z{k}", 0, 1, obj=round(float(rng.normal()), 3),
                 binary=True)
    for k in range(nc):
        prog.var(f"x{k}", 0, 3, obj=round(float(rng.normal()), 3))
    for i in range(m):
        coeffs = [(j, round(float(rng.normal()), 3)) for j in range(nb + nc)]
        prog.constr(f"r{i}", coeffs, LE if rng.random() < 0.7 else GE,
                    round(float(rng.normal(scale=2)), 3))
    return prog.program()


def test_children_start_from_their_parent_basis(monkeypatch):
    rng = np.random.default_rng(5)
    programs = [knapsack_lp()] + [_random_mip(rng) for _ in range(30)]
    calls = []

    def spy(lp, var_bounds=None, basis=None):
        sol = solve_lp(lp, var_bounds=var_bounds, basis=basis)
        calls.append((lp, var_bounds, basis, sol))
        return sol

    branched = 0
    for lp in programs:
        # Every node solved from the crash instead: the search is the same.
        monkeypatch.setattr(
            milpmod, "solve_lp",
            lambda lp, var_bounds=None, basis=None: solve_lp(lp, var_bounds))
        cold = solve_milp(lp)
        calls.clear()
        monkeypatch.setattr(milpmod, "solve_lp", spy)
        warm = solve_milp(lp)
        assert calls[0][1] is None and calls[0][2] is None      # the root
        parents = {(): calls[0][3]}
        for _, bounds, basis, sol in calls[1:]:
            branched += 1
            # The parent's bounds are the child's less its newest fix.  The
            # root's children start from copies of its live simplex, the
            # others from their parent's basis.
            parent = parents[tuple(list(bounds.items())[:-1])]
            if len(bounds) == 1:
                assert isinstance(basis, lpmod._Simplex)
                assert basis is not parent.simplex
            else:
                assert basis is parent.basis
            ref = solve_lp(lp, var_bounds=bounds)
            assert sol.status == ref.status
            if ref.status == "optimal":
                assert sol.objective == pytest.approx(ref.objective,
                                                      abs=1e-9)
                parents[tuple(bounds.items())] = sol
        assert (warm.status, warm.nodes) == (cold.status, cold.nodes)
        if warm.status == "optimal":
            assert warm.objective == pytest.approx(cold.objective, abs=1e-9)
    assert branched > 20


def test_root_starts_from_the_given_basis_and_returns_its_own():
    lp = knapsack_lp()
    first = solve_milp(lp)
    root = solve_lp(lp)
    assert np.array_equal(first.basis.cols, root.basis.cols)
    again = solve_milp(lp, basis=first.basis)
    assert again.objective == pytest.approx(first.objective, abs=1e-12)
    assert again.nodes == first.nodes
    assert again.pivots < first.pivots


def test_heap_entries_hold_no_factor(monkeypatch):
    # The root's children start from copies of the root's live simplex,
    # with its inverse bitwise; deeper nodes from a basis without one.  No
    # heap entry keeps a simplex, and the result carries the root's, which
    # the children left as it was.
    rng = np.random.default_rng(5)
    programs = [knapsack_lp()] + [_random_mip(rng) for _ in range(30)]
    pushed, starts = [], []
    push = milpmod.heapq.heappush

    def record_push(heap, entry):
        pushed.append(entry)
        push(heap, entry)

    def inverse(sx):
        return sx.Binv.tobytes() if isinstance(sx, lpmod._Simplex) else None

    def record_start(lp, var_bounds=None, basis=None):
        at_start = inverse(basis)
        sol = solve_lp(lp, var_bounds=var_bounds, basis=basis)
        starts.append((var_bounds, basis, at_start, sol,
                       inverse(sol.simplex)))
        return sol
    monkeypatch.setattr(milpmod.heapq, "heappush", record_push)
    monkeypatch.setattr(milpmod, "solve_lp", record_start)
    deep = 0
    for lp in programs:
        starts.clear()
        sol = solve_milp(lp)
        _, _, _, root, root_inverse = starts[0]
        if sol.status == "optimal":
            assert sol.simplex is root.simplex is not None
        for bounds, basis, at_start, _, _ in starts[1:]:
            if len(bounds) == 1:
                assert isinstance(basis, lpmod._Simplex)
                assert basis is not root.simplex
                assert at_start == root_inverse
            else:
                assert isinstance(basis, lpmod.Basis)
                deep += 1
        if len(starts) > 1:
            assert inverse(root.simplex) == root_inverse
    assert deep and len(pushed) > len(programs)
    for _, _, _, relax in pushed:
        assert relax.simplex is None
