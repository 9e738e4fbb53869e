"""Dense primal simplex for linear programs with bounded variables.

The solver is deliberately self-contained and deterministic: identical
programs produce bit-identical solutions.  Pricing uses Dantzig's rule with
lowest-index tie-breaking and falls back to Bland's rule after a run of
degenerate pivots, which keeps the method finite without paying Bland's
price on every iteration.

Every solve starts from a slack crash basis: nonbasic columns sit at a
finite bound, each inequality row whose slack can absorb the residual at
that point starts on its slack, and only the remaining rows (every equality
row among them) get an artificial.  Phase 1 then drives just those
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

    def value(self, j: int) -> float:
        return float(self.x[j])


# Nonbasic states.
_AT_LB = 0
_AT_UB = 1
_FREE = 2
_BASIC = 3


class _Simplex:
    """Bounded-variable primal simplex over an explicit basis inverse.

    Columns are the structurals, one slack per row (``A x + s = b``, with
    ``s >= 0`` for LE, ``s <= 0`` for GE, ``s == 0`` for EQ) and one
    artificial for each row in ``art_rows``: those whose slack cannot take
    the starting residual.  The starting basis is those artificials plus
    the slacks of all other rows, so ``Binv`` starts diagonal with +1 on
    slack rows and the artificial's sign on the others.
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

        # Crash basis: a row whose slack can absorb the residual starts on
        # that slack; only the others get an artificial.
        resid = b - A @ x0[:n]          # every slack starts at 0
        on_slack = (is_le & (resid >= 0.0)) | (is_ge & (resid <= 0.0))
        art_rows = np.nonzero(~on_slack)[0]
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
        self.A[art_rows, art] = sign[art_rows]
        self.x[art] = np.abs(resid[art_rows])
        slack_rows = np.nonzero(on_slack)[0]
        self.x[n + slack_rows] = resid[slack_rows]
        self.state[n + slack_rows] = _BASIC
        self.basis = n + np.arange(m)
        self.basis[art_rows] = art
        self.Binv = np.diag(sign)
        self.art = art
        self.art_rows = art_rows
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
        degen_streak = 0
        while True:
            if self.pivots and self.pivots % _REFACTOR_EVERY == 0:
                self._refactor()
                # Recompute basic values from scratch for accuracy.
                nb = self.state != _BASIC
                rhs = self.b - self.A[:, nb] @ self.x[nb]
                self.x[self.basis] = self.Binv @ rhs

            y = cost[self.basis] @ self.Binv
            r = cost - y @ self.A
            # Eligible directions: +1 means increase, -1 decrease.
            incr = (self.state == _AT_LB) | (self.state == _FREE)
            decr = (self.state == _AT_UB) | (self.state == _FREE)
            viol = np.zeros(self.ncols)
            viol[incr & (r < -COST_TOL)] = -r[incr & (r < -COST_TOL)]
            dec_mask = decr & (r > COST_TOL)
            viol[dec_mask] = np.maximum(viol[dec_mask], r[dec_mask])
            # Fixed variables (l == u) never enter.
            viol[self.l == self.u] = 0.0
            if not np.any(viol > 0.0):
                return "optimal"
            if self.pivots >= self.max_pivots:
                return "iteration_limit"

            if degen_streak > _DEGEN_STREAK_FOR_BLAND:
                j = int(np.nonzero(viol > 0.0)[0][0])          # Bland
            else:
                j = int(np.argmax(viol))                       # Dantzig, lowest index on ties
            dirn = 1.0 if (incr[j] and r[j] < -COST_TOL) else -1.0

            d = self.Binv @ (dirn * self.A[:, j])
            # Ratio test: basics move by -d * t.
            t_best = self.u[j] - self.x[j] if dirn > 0 else self.x[j] - self.l[j]
            leave_pos = -1
            lb_b = self.l[self.basis]
            ub_b = self.u[self.basis]
            xb = self.x[self.basis]
            with np.errstate(divide="ignore", invalid="ignore"):
                t_dn = np.where(d > RATIO_TOL, (xb - lb_b) / d, INF)
                t_up = np.where(d < -RATIO_TOL, (ub_b - xb) / (-d), INF)
            t_row = np.minimum(t_dn, t_up)
            t_row = np.where(np.isnan(t_row), INF, t_row)
            t_min = float(t_row.min()) if self.m else INF
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
            self.Binv -= np.outer(dj, row)
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


def _apply_overrides(l: np.ndarray, u: np.ndarray,
                     var_bounds: dict[int, tuple[float, float]] | None):
    if var_bounds:
        l = l.copy()
        u = u.copy()
        for j, (lo, hi) in var_bounds.items():
            l[j], u[j] = lo, hi
    return l, u


def solve_lp(lp: LinearProgram,
             var_bounds: dict[int, tuple[float, float]] | None = None,
             check: bool = True) -> Solution:
    """Solve an LP (binaries, if any, are relaxed to their bounds).

    ``var_bounds`` optionally overrides individual variable bounds, which is
    how branch and bound fixes binaries without copying the program.
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
    if check:
        verify_certificates(lp, sol, sx, c)
    return sol


def verify_certificates(lp: LinearProgram, sol: Solution, sx: _Simplex,
                        c: np.ndarray, tol: float = CHECK_TOL) -> None:
    """Primal feasibility, dual feasibility and complementary slackness.

    Raises SolverError if any condition is violated beyond ``tol``.
    """
    A, b, senses, _, _, _ = lp.dense()
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
    # Reduced costs over structurals + slacks (dual feasibility + slackness).
    cost = np.zeros(sx.ncols)
    cost[: sx.n] = c
    r = cost - sol.duals @ sx.A
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
