"""Best-first branch and bound over the simplex in :mod:`gridops.lp`.

Only binary variables are branched.  The search is deterministic: nodes are
ordered by (relaxation bound, creation sequence), the branch variable is the
binary closest to 0.5 (lowest index on ties), and the zero branch is created
first so it wins ties.
"""

from __future__ import annotations

import heapq
from dataclasses import replace

import numpy as np

from .lp import Basis, LinearProgram, Solution, _Simplex, solve_lp

INT_TOL = 1e-6
GAP_TOL = 1e-6
NODE_LIMIT = 200_000


def _fractional(x: np.ndarray, binaries: list[int]) -> int | None:
    """Most fractional binary index, or None if all are integral."""
    best_j, best_d = None, INT_TOL
    for j in binaries:
        d = abs(x[j] - round(x[j]))
        if d > best_d + 1e-12:
            best_j, best_d = j, d
    return best_j


def solve_milp(lp: LinearProgram, node_limit: int = NODE_LIMIT,
               basis: Basis | _Simplex | None = None) -> Solution:
    """Solve a mixed-binary program.

    Hitting ``node_limit`` returns the incumbent (``x`` is None when there
    is none) with status ``node_limit``.  A node LP that ends with any
    status other than optimal or infeasible, such as ``iteration_limit``,
    ends the search with that status.  Pivot counts are summed over every
    node LP.  A root LP that is not optimal ends the search at once and
    counts as one node.  Fix a binary before the search by setting its
    bounds on the program.

    The root LP starts from ``basis`` (see :func:`gridops.lp.solve_lp`):
    given the ``simplex`` of the last solve of this program, it re-solves
    that live simplex in place.  The root's children each start from a
    copy of the root's simplex, so they start without inverting and leave
    the root's as it is; deeper nodes start from their parent's optimal
    basis, inverted afresh, and the heap holds no simplex.  An optimal
    result carries the root's basis and simplex, the start for the next
    solve of the program.
    """
    binaries = lp.binary_indices
    root = solve_lp(lp, basis=basis)
    if root.status != "optimal":
        root.nodes = 1
        return root

    seq = 0
    heap: list[tuple[float, int, dict[int, tuple[float, float]], Solution]] = []
    heapq.heappush(heap, (root.objective, seq, {},
                          replace(root, basis=None, simplex=None)))
    incumbent: Solution | None = None
    nodes = 1
    branches = 0
    pivots = root.pivots
    dual_pivots = root.dual_pivots

    def finish(status: str, best: Solution | None) -> Solution:
        out = Solution(status=status, nodes=nodes, branches=branches,
                       pivots=pivots, dual_pivots=dual_pivots)
        if best is not None:
            out.x, out.objective, out.duals = best.x, best.objective, best.duals
            out.basis, out.simplex = root.basis, root.simplex
        return out

    while heap:
        bound, _, bounds, relax = heapq.heappop(heap)
        if incumbent is not None and bound >= incumbent.objective - GAP_TOL:
            continue
        j = _fractional(relax.x, [b for b in binaries if b not in bounds or
                                  bounds[b][0] != bounds[b][1]])
        if j is None:
            if incumbent is None or relax.objective < incumbent.objective - GAP_TOL:
                incumbent = relax
            continue
        branches += 1
        for val in (0.0, 1.0):
            if nodes >= node_limit:
                break
            child = dict(bounds)
            child[j] = (val, val)
            start = relax.basis if bounds else root.simplex.copy()
            sol = solve_lp(lp, var_bounds=child, basis=start)
            nodes += 1
            seq += 1
            pivots += sol.pivots
            dual_pivots += sol.dual_pivots
            if sol.status == "infeasible":
                continue
            if sol.status != "optimal":
                return finish(sol.status, None)
            if incumbent is not None and sol.objective >= incumbent.objective - GAP_TOL:
                continue
            sol.simplex = None
            heapq.heappush(heap, (sol.objective, seq, child, sol))
        if nodes >= node_limit:
            return finish("node_limit", incumbent)

    if incumbent is None:
        return finish("infeasible", None)
    out = finish("optimal", incumbent)
    out.x = incumbent.x.copy()
    for j in binaries:
        out.x[j] = round(out.x[j])
    return out
