"""Dense primal simplex for linear programs with bounded variables.

The solver is deliberately self-contained and deterministic: identical
programs produce bit-identical solutions.  Pricing uses Dantzig's rule with
lowest-index tie-breaking and falls back to Bland's rule after a run of
degenerate pivots, which keeps the method finite without paying Bland's
price on every iteration.

Every solve starts from a triangular crash basis (Bixby, "Implementing
the simplex method: the initial basis", ORSA J. Computing 4, 1992).
Nonbasic columns sit at a finite bound.  Each equality row, in row order,
takes a basic structural column that can absorb its residual within bounds
and has no nonzero in an earlier crashed row, which keeps the crash block
triangular and the basis nonsingular.  Each inequality row whose slack can
absorb the residual left after that starts on its slack, and only the
remaining rows get an artificial.  Phase 1 then drives just those
artificials to zero.  A solve that reaches the pivot cap (``_PIVOTS_PER_DIM``
per row plus column) ends with status ``iteration_limit``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

LE = "<="
EQ = "="
GE = ">="

INF = math.inf

# Pivoting / feasibility tolerances.  CHECK_TOL is the externally promised
# certificate tolerance; the internal tolerances are tighter.
COST_TOL = 1e-9
RATIO_TOL = 1e-9
CHECK_TOL = 1e-6

_DEGEN_STREAK_FOR_BLAND = 60
_REFACTOR_EVERY = 256
# Pivot cap per solve, per row plus column; a solve that reaches it ends
# with status ``iteration_limit``.
_PIVOTS_PER_DIM = 50


class SolverError(Exception):
    """Malformed program or internal failure of the solver."""


@dataclass
class Variable:
    name: str
    lb: float = 0.0
    ub: float = INF
    obj: float = 0.0
    binary: bool = False


@dataclass
class Constraint:
    name: str
    coeffs: list[tuple[int, float]]
    sense: str
    rhs: float


@dataclass
class LinearProgram:
    variables: list[Variable] = field(default_factory=list)
    constraints: list[Constraint] = field(default_factory=list)

    def add_var(self, name: str, lb: float = 0.0, ub: float = INF,
                obj: float = 0.0, binary: bool = False) -> int:
        if binary and not (lb >= 0.0 and ub <= 1.0):
            raise SolverError(f"binary variable {name} needs bounds within [0,1]")
        if lb > ub:
            raise SolverError(f"variable {name} has empty domain [{lb},{ub}]")
        self.variables.append(Variable(name, float(lb), float(ub), float(obj), binary))
        return len(self.variables) - 1

    def add_constr(self, name: str, coeffs: list[tuple[int, float]],
                   sense: str, rhs: float) -> int:
        if sense not in (LE, EQ, GE):
            raise SolverError(f"unknown sense {sense!r} in constraint {name}")
        n = len(self.variables)
        for j, _ in coeffs:
            if not 0 <= j < n:
                raise SolverError(f"constraint {name} references variable index {j}")
        self.constraints.append(Constraint(name, list(coeffs), sense, float(rhs)))
        return len(self.constraints) - 1

    @property
    def binary_indices(self) -> list[int]:
        return [j for j, v in enumerate(self.variables) if v.binary]

    def dense(self) -> tuple[np.ndarray, np.ndarray, list[str], np.ndarray,
                             np.ndarray, np.ndarray]:
        """Return (A, b, senses, c, l, u) as dense arrays."""
        m, n = len(self.constraints), len(self.variables)
        A = np.zeros((m, n))
        b = np.zeros(m)
        senses = []
        for i, con in enumerate(self.constraints):
            for j, a in con.coeffs:
                A[i, j] += a
            b[i] = con.rhs
            senses.append(con.sense)
        c = np.array([v.obj for v in self.variables], dtype=float)
        l = np.array([v.lb for v in self.variables], dtype=float)
        u = np.array([v.ub for v in self.variables], dtype=float)
        return A, b, senses, c, l, u


@dataclass
class Solution:
    status: str      # optimal | infeasible | unbounded | node_limit | iteration_limit
    x: np.ndarray | None = None
    objective: float | None = None
    duals: np.ndarray | None = None
    infeasible_rows: list[str] = field(default_factory=list)
    nodes: int = 0
    branches: int = 0
    pivots: int = 0
    phase1_pivots: int = 0


# Nonbasic states.
_AT_LB = 0
_AT_UB = 1
_FREE = 2
_BASIC = 3


class _Simplex:
    """Bounded-variable primal simplex over an explicit basis inverse.

    Columns are the structurals, one slack per row (``A x + s = b``, with
    ``s >= 0`` for LE, ``s <= 0`` for GE, ``s == 0`` for EQ) and one
    artificial for each row in ``art_rows``.  The starting basis comes from
    a triangular crash (:func:`_crash`): equality rows take a structural
    column where one can absorb the row's residual, inequality rows take
    their slack where it can absorb the residual left after that, and only
    the remaining rows get an artificial.
    """

    def __init__(self, A: np.ndarray, b: np.ndarray, senses: list[str],
                 c: np.ndarray, l: np.ndarray, u: np.ndarray):
        m, n = A.shape
        self.m, self.n = m, n
        is_le = np.array([s == LE for s in senses], dtype=bool)
        is_ge = np.array([s == GE for s in senses], dtype=bool)
        lo = np.concatenate([l, np.where(is_ge, -INF, 0.0)])
        hi = np.concatenate([u, np.where(is_le, INF, 0.0)])

        # Start nonbasic structurals/slacks at a finite bound (prefer lower).
        x0 = np.where(lo > -INF, lo, np.where(hi < INF, hi, 0.0))
        state0 = np.where(lo > -INF, _AT_LB,
                          np.where(hi < INF, _AT_UB, _FREE)).astype(np.int8)

        resid = b - A @ x0[:n]          # every slack starts at 0
        eq_rows = np.flatnonzero(~(is_le | is_ge))
        crash_rows, crash_cols = _crash(A, resid, x0[:n], l, u, eq_rows)
        on_slack = (is_le & (resid >= 0.0)) | (is_ge & (resid <= 0.0))
        art_rows = np.setdiff1d(np.flatnonzero(~on_slack), crash_rows)
        k = len(art_rows)

        # Columns: structurals, one slack per row, one artificial per
        # row that needs one.
        ncols = n + m + k
        self.ncols = ncols
        self.A = np.zeros((m, ncols))
        self.A[:, :n] = A
        self.A[np.arange(m), n + np.arange(m)] = 1.0
        self.b = b.copy()
        self.l = np.concatenate([lo, np.zeros(k)])
        self.u = np.concatenate([hi, np.full(k, INF)])
        self.x = np.concatenate([x0, np.zeros(k)])
        self.state = np.concatenate([state0, np.full(k, _BASIC, np.int8)])

        art = n + m + np.arange(k)
        sign = np.where(on_slack | (resid >= 0.0), 1.0, -1.0)
        sign[crash_rows] = 0.0          # those positions hold structurals
        self.A[art_rows, art] = sign[art_rows]
        self.basis = n + np.arange(m)
        self.basis[art_rows] = art
        self.basis[crash_rows] = crash_cols
        self.state[self.basis] = _BASIC
        self.Binv = _crash_inverse(A, sign, crash_rows, crash_cols)
        # Basic values from the nonbasic ones: x_B = Binv (b - N x_N).
        self.x[crash_cols] = 0.0
        self.x[self.basis] = self.Binv @ (b - A @ self.x[:n])
        self.art = art
        self.art_rows = art_rows
        self.art_sign = sign[art_rows]
        self.pivots = 0
        self.phase1_pivots = 0
        self.max_pivots = _PIVOTS_PER_DIM * (m + n)

    # -- core iteration -------------------------------------------------

    def _refactor(self):
        B = self.A[:, self.basis]
        try:
            self.Binv = np.linalg.inv(B)
        except np.linalg.LinAlgError as exc:  # pragma: no cover
            raise SolverError("singular basis during refactorization") from exc

    def _iterate(self, cost: np.ndarray) -> str:
        """Run simplex to optimality for the given cost vector."""
        m, n = self.m, self.n
        fixed = self.l == self.u        # bounds do not change within a call
        degen_streak = 0
        while True:
            if self.pivots and self.pivots % _REFACTOR_EVERY == 0:
                self._refactor()
                # Recompute basic values from scratch for accuracy.
                nb = self.state != _BASIC
                rhs = self.b - self.A[:, nb] @ self.x[nb]
                self.x[self.basis] = self.Binv @ rhs

            # Reduced costs: slack columns are e_i and artificial columns
            # sign * e_i, so only the structural block needs a product.
            y = cost[self.basis] @ self.Binv
            r = np.empty(self.ncols)
            r[:n] = cost[:n] - y @ self.A[:, :n]
            r[n:n + m] = cost[n:n + m] - y
            r[n + m:] = cost[n + m:] - self.art_sign * y[self.art_rows]
            # Violation along each eligible direction (increase from a lower
            # bound or free, decrease from an upper bound or free); fixed
            # variables never enter.
            st = self.state
            incr = (st == _AT_LB) | (st == _FREE)
            viol = np.maximum(np.where(incr, -r, 0.0),
                              np.where((st == _AT_UB) | (st == _FREE), r, 0.0))
            viol[fixed | (viol <= COST_TOL)] = 0.0
            j = int(np.argmax(viol))       # Dantzig, lowest index on ties
            if viol[j] == 0.0:
                return "optimal"
            if self.pivots >= self.max_pivots:
                return "iteration_limit"
            if degen_streak > _DEGEN_STREAK_FOR_BLAND:
                j = int(np.flatnonzero(viol)[0])               # Bland
            dirn = 1.0 if (incr[j] and r[j] < -COST_TOL) else -1.0

            d = self.Binv @ (dirn * self.A[:, j])
            # Ratio test: basics move by -d * t.
            t_best = self.u[j] - self.x[j] if dirn > 0 else self.x[j] - self.l[j]
            leave_pos = -1
            lb_b = self.l[self.basis]
            ub_b = self.u[self.basis]
            xb = self.x[self.basis]
            t_row = np.full(m, INF)
            dn = d > RATIO_TOL
            t_row[dn] = (xb[dn] - lb_b[dn]) / d[dn]
            up = d < -RATIO_TOL
            t_row[up] = (ub_b[up] - xb[up]) / -d[up]
            t_min = float(t_row.min()) if m else INF
            if t_min < INF and t_min <= t_best:
                # Smallest variable index among minimal ratios (Bland-compatible).
                cand = np.nonzero(t_row <= t_min + RATIO_TOL)[0]
                leave_pos = int(cand[np.argmin(self.basis[cand])])
                t_star = max(t_min, 0.0)
            else:
                t_star = t_best
            if leave_pos == -1 and not np.isfinite(t_star):
                return "unbounded"

            # Apply the step.
            self.x[self.basis] = xb - d * t_star
            self.x[j] += dirn * t_star
            self.pivots += 1
            if t_star <= RATIO_TOL:
                degen_streak += 1
            else:
                degen_streak = 0

            if leave_pos == -1:
                # Bound flip: entering variable moved to its other bound.
                self.state[j] = _AT_UB if dirn > 0 else _AT_LB
                continue

            out = self.basis[leave_pos]
            # Leaving variable lands on whichever bound it hit.
            if d[leave_pos] > 0:
                self.x[out] = self.l[out]
                self.state[out] = _AT_LB
            else:
                self.x[out] = self.u[out]
                self.state[out] = _AT_UB
            self.basis[leave_pos] = j
            self.state[j] = _BASIC
            # Eta update of the basis inverse.
            dj = d * dirn  # Binv @ A[:, j]
            piv = dj[leave_pos]
            if abs(piv) < 1e-11:
                self._refactor()
                continue
            row = self.Binv[leave_pos] / piv
            # Only the rows where dj is nonzero change.
            rows = np.flatnonzero(dj)
            self.Binv[rows] -= dj[rows, None] * row
            self.Binv[leave_pos] = row

    # -- driver ---------------------------------------------------------

    def solve(self, c: np.ndarray) -> tuple[str, np.ndarray | None, list[int]]:
        n = self.n
        phase1 = np.zeros(self.ncols)
        phase1[self.art] = 1.0
        status = self._iterate(phase1)
        self.phase1_pivots = self.pivots
        if status == "iteration_limit":
            return status, None, []
        if status != "optimal":  # pragma: no cover - phase 1 is bounded
            raise SolverError("phase 1 terminated " + status)
        infeas = float(self.x[self.art].sum())
        if infeas > 1e-6:
            bad = self.art_rows[self.x[self.art] > 1e-7].tolist()
            return "infeasible", None, bad
        # Forbid artificials from re-entering.
        self.u[self.art] = 0.0
        self.x[self.art] = np.clip(self.x[self.art], 0.0, None)

        cost = np.zeros(self.ncols)
        cost[:n] = c
        status = self._iterate(cost)
        if status != "optimal":
            return status, None, []
        y = cost[self.basis] @ self.Binv
        return "optimal", y, []


def _crash(A: np.ndarray, resid: np.ndarray, x: np.ndarray, l: np.ndarray,
           u: np.ndarray, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Triangular crash: give each of ``rows``, in order, a basic structural.

    A row takes a column that is not fixed, has a nonzero in the row and
    none in any row crashed before, and can absorb the row's residual
    within its bounds when moved from its value in ``x``; the column with
    the fewest nonzeros wins, lowest index on ties.  ``resid`` is updated in
    place for each pick.  Because no crashed column touches an earlier
    crashed row, the crash block is lower triangular with a nonzero
    diagonal.  Returns the crashed rows and their columns, in crash order.
    """
    nnz = np.count_nonzero(A, axis=0).tolist()
    blocked = (l >= u).tolist()
    x, l, u = x.tolist(), l.tolist(), u.tolist()
    # Nonzeros of the crash rows in one pass: rows[p] owns entries
    # ends[p-1]:ends[p] of cols/vals.
    at, cols = np.nonzero(A[rows])
    vals = A[rows[at], cols].tolist()
    cols = cols.tolist()
    ends = np.searchsorted(at, np.arange(1, len(rows) + 1)).tolist()
    crash_rows, crash_cols = [], []
    begin = 0
    for i, end in zip(rows.tolist(), ends):
        entries = range(begin, end)
        begin = end
        r = float(resid[i])
        best = -1
        for q in entries:
            j = cols[q]
            if not blocked[j] and l[j] <= x[j] + r / vals[q] <= u[j] and \
                    (best < 0 or nnz[j] < nnz[cols[best]]):
                best = q
        if best < 0:
            continue
        j = cols[best]
        resid -= (r / vals[best]) * A[:, j]
        for q in entries:
            blocked[cols[q]] = True
        crash_rows.append(i)
        crash_cols.append(j)
    return np.array(crash_rows, dtype=int), np.array(crash_cols, dtype=int)


def _crash_inverse(A: np.ndarray, sign: np.ndarray, rows: np.ndarray,
                   cols: np.ndarray) -> np.ndarray:
    """Inverse of the crash basis by forward substitution.

    Basis position ``rows[p]`` holds structural ``cols[p]``; every other
    position ``i`` holds ``sign[i] * e_i`` (a slack or an artificial).  In
    crash order the block ``T = A[rows][:, cols]`` is lower triangular, so
    ``B = [[T, 0], [X, D]]`` and ``B^-1 = [[T^-1, 0], [-D X T^-1, D]]``
    with ``D = diag(sign)`` over the other rows (``D^-1 = D``).
    """
    T = A[np.ix_(rows, cols)]
    Tinv = np.diag(1.0 / np.diag(T))
    # Only rows with entries left of the diagonal need substitution.
    for p in np.flatnonzero(np.tril(T, -1).any(axis=1)).tolist():
        Tinv[p] = -(T[p, :p] @ Tinv[:p])
        Tinv[p, p] += 1.0
        Tinv[p] /= T[p, p]
    # B^-1[:, rows] is [[I], [-D X]] @ T^-1 (sign is 0 on rows).
    S = -sign[:, None] * A[:, cols]
    S[rows] = np.eye(len(rows))
    Binv = np.diag(sign)
    Binv[:, rows] = S @ Tinv
    return Binv


def _apply_overrides(l: np.ndarray, u: np.ndarray,
                     var_bounds: dict[int, tuple[float, float]] | None):
    if var_bounds:
        l = l.copy()
        u = u.copy()
        for j, (lo, hi) in var_bounds.items():
            l[j], u[j] = lo, hi
    return l, u


def solve_lp(lp: LinearProgram,
             var_bounds: dict[int, tuple[float, float]] | None = None
             ) -> Solution:
    """Solve an LP (binaries, if any, are relaxed to their bounds).

    ``var_bounds`` optionally overrides individual variable bounds, which is
    how branch and bound fixes binaries without copying the program.  Every
    optimal solution is checked by ``verify_certificates``.
    """
    A, b, senses, c, l, u = lp.dense()
    l, u = _apply_overrides(l, u, var_bounds)
    if np.any(l > u):
        return Solution(status="infeasible")
    sx = _Simplex(A, b, senses, c, l, u)
    status, y, bad_rows = sx.solve(c)
    counts = dict(pivots=sx.pivots, phase1_pivots=sx.phase1_pivots)
    if status != "optimal":
        names = [lp.constraints[i].name for i in bad_rows]
        return Solution(status=status, infeasible_rows=names, **counts)
    x = sx.x[: len(lp.variables)].copy()
    duals = np.asarray(y).copy()
    sol = Solution(status="optimal", x=x, objective=float(c @ x), duals=duals,
                   **counts)
    verify_certificates(lp, sol, sx, c, A, b, senses)
    return sol


def verify_certificates(lp: LinearProgram, sol: Solution, sx: _Simplex,
                        c: np.ndarray, A: np.ndarray, b: np.ndarray,
                        senses: list[str], tol: float = CHECK_TOL) -> None:
    """Primal feasibility, dual feasibility and complementary slackness.

    ``A``, ``b`` and ``senses`` are the program as ``lp.dense()`` gives it.
    Raises SolverError if any condition is violated beyond ``tol``.
    """
    x = sol.x
    ax = A @ x if len(lp.constraints) else np.zeros(0)
    for i, s in enumerate(senses):
        r = ax[i] - b[i]
        ok = (s == LE and r <= tol) or (s == GE and r >= -tol) or \
             (s == EQ and abs(r) <= tol)
        if not ok:
            raise SolverError(
                f"primal infeasibility {r:.3e} in {lp.constraints[i].name}")
    for j, v in enumerate(lp.variables):
        lo, hi = sx.l[j], sx.u[j]
        if x[j] < lo - tol or x[j] > hi + tol:
            raise SolverError(f"bound violation on {v.name}")
    # Reduced costs over structurals + slacks (dual feasibility + slackness);
    # slack columns are e_i with zero cost.
    r = np.concatenate([c - sol.duals @ A, -sol.duals])
    for j in range(sx.n + sx.m):
        if sx.l[j] == sx.u[j]:
            continue
        st = sx.state[j]
        if st == _BASIC:
            if abs(r[j]) > tol:
                raise SolverError(f"nonzero reduced cost {r[j]:.3e} on basic col {j}")
        elif st == _AT_LB:
            if r[j] < -tol:
                raise SolverError(f"dual infeasibility {r[j]:.3e} at lower bound col {j}")
        elif st == _AT_UB:
            if r[j] > tol:
                raise SolverError(f"dual infeasibility {r[j]:.3e} at upper bound col {j}")
        else:  # free nonbasic
            if abs(r[j]) > tol:
                raise SolverError(f"dual infeasibility {r[j]:.3e} on free col {j}")
