"""Dense simplex for linear programs with bounded variables.

A :class:`LinearProgram` holds its program as arrays, and the solver reads
them as they are: a solve copies nothing but the bounds that branch and
bound overrides, so a program refilled in place for each use is never
rebuilt.  A program is made one way, by ``LinearProgram(cols, rows)``,
which checks every column and row and fixes them for good; its ``repr``
prints that call, so ``eval(repr(lp))`` rebuilds it.  It is changed one
way, by writing to its arrays.

The solver is deliberately self-contained and deterministic: identical
programs produce bit-identical solutions.  Pricing uses Dantzig's rule with
lowest-index tie-breaking and falls back to Bland's rule after a run of
degenerate pivots, which keeps the method finite without paying Bland's
price on every iteration.

A solve starts from a given basis or from a triangular crash basis (Bixby,
"Implementing the simplex method: the initial basis", ORSA J. Computing 4,
1992).  Every optimal solve returns its basis (:class:`Basis`), so a related
program, such as a branch-and-bound child or the next window of a layer,
can start where the last one ended (Huangfu & Hall, Math. Prog. Comp. 10,
2018, on reusing bases across related LPs).

Every fresh basis inverse, of a given basis, a crash, a refill or a
refactor, is built by one routine (:func:`_invert`): B = [A | I][:, basis]
is inverted through its block of basic structurals, each basic slack in
its own row's position.

- *Given basis.*  Its inverse is checked cheaply for conditioning
  (:func:`_basis_inverse`).  Nonbasic columns sit at the bound their state
  names, or where the crash would put them when that bound is infinite.
  A basis of the wrong length, with repeated or unknown columns, singular
  or badly conditioned is dropped for the crash.
- *Live simplex.*  The simplex an optimal solve ended in
  (``Solution.simplex``), given as the start of the next solve of its
  program, re-solves it in place from its own basis, placed as a given
  one.  It keeps its inverse unless that fails the conditioning check or
  ``set_coeffs`` changed a basic structural column since; its refactor
  cadence counts pivots across solves (see :meth:`_Simplex.refill`).
- *Crash.*  Nonbasic columns sit at a finite bound.  Each equality row, in
  row order, takes a basic structural column that can absorb its residual
  within bounds and has no nonzero in an earlier crashed row, which keeps
  the crash block triangular and the basis nonsingular.  Every other row
  starts on its slack.
- *Dual start.*  A start whose basic columns all lie within their bounds
  goes straight to phase 2.  Any other, warm or crashed, runs a bounded
  dual simplex (Koberstein, "The dual simplex method, techniques for a
  fast and stable implementation", PhD thesis, Paderborn 2005) until every
  basic column is within its bounds.  It runs on shifted costs: each
  nonbasic column whose reduced cost has the wrong sign (beyond
  ``COST_TOL``) has its cost lowered by that reduced cost, which then reads
  zero, so the start is dual feasible (Koberstein & Suhl, Comput. Optim.
  Appl. 37, 2007).  A start that is dual feasible already, as a window
  whose right-hand side moved or a B&B child whose fractional basic binary
  was fixed away from its value, is not shifted.  Phase 2 then runs on the
  true costs.  A fixed basic column at its value is within its bounds, an
  ordinary degenerate basic.

A row that no column can move proves the program infeasible: the solve
names the rows where that row of the basis inverse is nonzero beyond
``RATIO_TOL``, and those rows alone, with every bound, admit no solution.
A warm start that ends infeasible is solved again from the crash, so the
rows it names do not depend on the start.  A solve that reaches the pivot
cap (``_PIVOTS_PER_DIM`` per row plus column) ends with status
``iteration_limit``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

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

# A basic column more than _BOUND_TOL outside its bounds is out of bounds.
_BOUND_TOL = 1e-9
# A starting basis is used when Tinv (T 1) is within _FACTOR_TOL of 1
# for its block T of basic structurals (see _basis_inverse), and a live
# simplex keeps its inverse when Binv (B 1) is (see _Simplex.refill).
_FACTOR_TOL = 1e-9
_DEGEN_STREAK_FOR_BLAND = 60
_REFACTOR_EVERY = 256
# Pivot cap per solve, per row plus column; a solve that reaches it ends
# with status ``iteration_limit``.
_PIVOTS_PER_DIM = 50


class SolverError(Exception):
    """Malformed program or internal failure of the solver."""


class Column(NamedTuple):
    """A snapshot of one column, as the constructor takes it."""
    name: str
    lb: float
    ub: float
    obj: float
    binary: bool


class Row(NamedTuple):
    """A snapshot of one row, as the constructor takes it: ``coeffs`` as
    (column, coefficient) pairs in insertion order."""
    name: str
    coeffs: list[tuple[int, float]]
    sense: str
    rhs: float


class Cells(NamedTuple):
    """Entries of a program located in its matrix: the entry indices, the
    flat index of each one's cell in the m x n matrix ``A`` and its column."""
    entries: np.ndarray
    flat: np.ndarray
    cols: np.ndarray


class LinearProgram:
    """A linear program held as arrays, each exactly as long as the program.

    Columns: ``lb``, ``ub``, ``obj``, ``binary`` and ``col_names``.  Rows:
    ``rhs``, ``senses`` and ``row_names``, with their entries kept in
    the order given as ``entry_row``/``entry_col``/``entry_val`` (row ``i``
    owns entries ``indptr[i]:indptr[i + 1]``).  ``cols`` are ``(name, lb,
    ub, obj, binary)`` and ``rows`` ``(name, [(column, coefficient), ...],
    sense, rhs)``, as ``variables`` and ``constraints`` give them back; a
    malformed item raises :class:`SolverError` naming the first one,
    columns before rows.  ``A`` is the dense constraint matrix, assembled
    once per structure: each cell is ``0.0`` plus its entries, which keeps
    zeros unsigned and sums repeated entries in order.  :meth:`set_coeffs`
    writes entries and their cells in place, so a program of fixed
    structure is refilled without being built again, and stamps the
    columns whose cells change bits (``_edited``, assembling A stamps all).
    """

    def __init__(self, cols, rows):
        cols, rows = list(cols), list(rows)
        n = len(cols)
        for name, lb, ub, _, binary in cols:
            if binary and not (lb >= 0.0 and ub <= 1.0):
                raise SolverError(
                    f"binary variable {name} needs bounds within [0,1]")
            if lb > ub:
                raise SolverError(
                    f"variable {name} has empty domain [{lb},{ub}]")
        for name, coeffs, sense, _ in rows:
            if sense not in (LE, EQ, GE):
                raise SolverError(
                    f"unknown sense {sense!r} in constraint {name}")
            for j, _ in coeffs:
                if not 0 <= j < n:
                    raise SolverError(
                        f"constraint {name} references variable index {j}")
        names, lb, ub, obj, binary = zip(*cols) if cols else ((),) * 5
        rnames, coeffs, senses, rhs = zip(*rows) if rows else ((),) * 4
        counts = [len(c) for c in coeffs]
        self.col_names, self.row_names = list(names), list(rnames)
        self.senses = list(senses)
        self.lb, self.ub, self.obj, self.rhs = (
            np.array(a, dtype=float) for a in (lb, ub, obj, rhs))
        self.binary = np.array(binary, dtype=bool)
        self.indptr = np.zeros(len(rows) + 1, dtype=np.intp)
        self.indptr[1:] = np.cumsum(counts)
        self.entry_row = np.repeat(np.arange(len(rows), dtype=np.intp),
                                   counts)
        self.entry_col = np.array([j for c in coeffs for j, _ in c],
                                  dtype=np.intp)
        self.entry_val = np.array([a for c in coeffs for _, a in c],
                                  dtype=float)
        self.n, self.m, self.nnz = n, len(rows), len(self.entry_val)
        self._A: np.ndarray | None = None
        self._repeated = False       # some cell has more than one entry
        self._edits = 0              # writes that changed bits of A
        self._edited = np.zeros(0, dtype=np.intp)   # each column's last one

    def cells(self, entries: np.ndarray) -> Cells:
        """Locate the matrix cells of ``entries`` (indices into the entry
        arrays) once, for a :meth:`set_coeffs` that writes them again and
        again."""
        entries = np.asarray(entries, dtype=np.intp)
        cols = self.entry_col[entries]
        return Cells(entries, self.entry_row[entries] * self.n + cols, cols)

    def set_coeffs(self, entries: Cells, values: np.ndarray) -> None:
        """Write the values of existing, distinct entries and of their
        matrix cells, stamping the columns whose cells change bits.
        ``entries`` are the :class:`Cells` :meth:`cells` located.  A
        program with repeated cells drops A instead, and assembles and
        stamps it afresh when it is next read."""
        self.entry_val[entries.entries] = values
        if self._A is None:
            return
        if self._repeated:
            self._A = None
            return
        new = 0.0 + np.asarray(values, dtype=float)
        moved = self._A.take(entries.flat).view(np.uint64) != \
            new.view(np.uint64)
        if np.count_nonzero(moved):
            self._edits += 1
            self._edited[entries.cols[moved]] = self._edits
        self._A.put(entries.flat, new)

    @property
    def A(self) -> np.ndarray:
        """The dense m x n constraint matrix (held; do not write to it)."""
        if self._A is None:
            rows, cols = self.entry_row, self.entry_col
            A = np.zeros((self.m, self.n))
            np.add.at(A, (rows, cols), self.entry_val)
            self._repeated = bool(
                np.unique(rows * self.n + cols).size < self.nnz)
            self._A = A
            self._edits += 1
            self._edited = np.full(self.n, self._edits)
        return self._A

    @property
    def variables(self) -> list[Column]:
        return [Column(*col) for col in zip(
            self.col_names, self.lb.tolist(), self.ub.tolist(),
            self.obj.tolist(), self.binary.tolist())]

    @property
    def constraints(self) -> list[Row]:
        ends = self.indptr.tolist()
        cols, vals = self.entry_col.tolist(), self.entry_val.tolist()
        return [Row(name, list(zip(cols[lo:hi], vals[lo:hi])), sense, rhs)
                for name, lo, hi, sense, rhs in zip(
                    self.row_names, ends, ends[1:], self.senses,
                    self.rhs.tolist())]

    @property
    def binary_indices(self) -> list[int]:
        return np.flatnonzero(self.binary).tolist()

    def dense(self) -> tuple[np.ndarray, np.ndarray, list[str], np.ndarray,
                             np.ndarray, np.ndarray]:
        """Return copies of (A, b, senses, c, l, u) as dense arrays."""
        return (self.A.copy(), self.rhs.copy(), list(self.senses),
                self.obj.copy(), self.lb.copy(), self.ub.copy())

    def __repr__(self) -> str:
        """The constructor call that rebuilds the program."""
        return (f"LinearProgram(cols={list(map(tuple, self.variables))!r}, "
                f"rows={list(map(tuple, self.constraints))!r})")


class Basis(NamedTuple):
    """A simplex basis over the structural and slack columns.

    ``cols[i]`` is the column basic in position ``i``: structural ``j < n``
    or the slack ``n + r`` of row ``r``.  ``states`` holds each of the
    ``n + m`` columns' state: at its lower bound, at its upper bound, free
    at zero, or basic.
    """
    cols: np.ndarray
    states: np.ndarray


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
    dual_pivots: int = 0
    basis: Basis | None = None       # set on every optimal solve
    simplex: _Simplex | None = None  # likewise: the solve's live simplex


# Nonbasic states.
_AT_LB = 0
_AT_UB = 1
_FREE = 2
_BASIC = 3
_LB8, _UB8, _FREE8 = np.int8(_AT_LB), np.int8(_AT_UB), np.int8(_FREE)
# By state: whether a column may increase (at its lower bound or free) or
# decrease (at its upper bound or free).
_MAY_RISE = np.array([True, False, True, False])
_MAY_FALL = np.array([False, True, True, False])


class _Simplex:
    """Bounded-variable primal and dual simplex over an explicit basis
    inverse.

    Columns are the structurals and one slack per row (``A x + s = b``,
    with ``s >= 0`` for LE, ``s <= 0`` for GE, ``s == 0`` for EQ).  The
    structural block ``An`` is the program's own matrix, read in place; a
    slack column is formed when a pivot needs it.  The starting basis is
    ``start`` when it is usable, otherwise a triangular crash
    (:func:`_crash`) with every row that no structural takes on its slack.
    ``warm`` tells which one was used.  A start with basics outside their
    bounds runs the dual simplex on shifted costs before phase 2 (see
    :meth:`solve`).  :meth:`refill` starts the next solve of the same
    program from where the last one ended, in place.
    """

    def __init__(self, A: np.ndarray, b: np.ndarray, senses: list[str],
                 c: np.ndarray, l: np.ndarray, u: np.ndarray,
                 start: Basis | None = None):
        m, n = A.shape
        self.m, self.n = m, n
        self.senses = list(senses)
        self.is_le = np.array([s == LE for s in senses], dtype=bool)
        self.is_ge = np.array([s == GE for s in senses], dtype=bool)
        # Bounds and costs over the structurals and slacks, allocated once:
        # each load writes the structurals' part in place, after which the
        # slacks' part stays as the senses fix it.
        self.l = np.concatenate([np.zeros(n),
                                 np.where(self.is_ge, -INF, 0.0)])
        self.u = np.concatenate([np.zeros(n),
                                 np.where(self.is_le, INF, 0.0)])
        self.cost = np.zeros(n + m)
        self.basis = self.Binv = None
        self.age = 0        # pivots on Binv since its last fresh inversion
        self.edits = 0      # the program's edit count when A was last read
        self.checked = False    # Binv passed refill's check and is unchanged
        if start is not None and _usable(start, m, n):
            self.basis, self.Binv = _basis_inverse(A, start.cols)
        self._load(A, b, c, l, u, None if start is None else start.states)

    def _load(self, A: np.ndarray, b: np.ndarray, c: np.ndarray,
              l: np.ndarray, u: np.ndarray, states: np.ndarray | None):
        """Take the program's values and place the columns for a solve:
        nonbasic ones at a finite bound, the lower one unless ``states``
        names the upper (a slack's finite bound is 0), the basis crashed
        when there is no inverse, and x_B = Binv (b - N x_N)."""
        m, n = self.m, self.n
        lo, hi = self.l, self.u
        lo[:n], hi[:n], self.cost[:n] = l, u, c
        finite_hi = hi < INF
        state = np.where(lo > -INF, _LB8, np.where(finite_hi, _UB8, _FREE8))
        self.warm = self.Binv is not None
        if self.warm:
            state[(states == _AT_UB) & finite_hi] = _AT_UB
        x = np.where(state == _AT_LB, lo, np.where(state == _AT_UB, hi, 0.0))
        if not self.warm:
            eq_rows = np.flatnonzero(~(self.is_le | self.is_ge))
            rows, cols = _crash(A, b - A @ x[:n], x[:n], l, u, eq_rows)
            self.basis, self.Binv = _invert(A, rows, cols)
        self.An, self.b, self.x = A, b, x
        self._basic_values()
        state[self.basis] = _BASIC

        self.fixed = lo == hi
        self.state = state
        self.pivots = self.dual_pivots = 0
        self.max_pivots = _PIVOTS_PER_DIM * (m + n)

    def refill(self, lp: LinearProgram, l: np.ndarray, u: np.ndarray) -> None:
        """Start the next solve of ``lp``, of this simplex's shape and
        senses, from the basis the last solve ended in, under bounds ``l``
        and ``u``.  The inverse is kept when no basic structural column of
        A changed bits since this simplex last read A and ``Binv (B 1)``
        gives back the ones vector to ``_FACTOR_TOL``; otherwise the basis
        is inverted afresh, or crashed when that fails.  The product is
        skipped when this inverse passed it at the last refill and no pivot
        or inversion has changed it since (``checked``): its result could
        not differ."""
        A = lp.A
        self.age = (self.age + self.pivots) % _REFACTOR_EVERY
        given = self.basis
        cols = given[given < self.n]
        keep = not (lp._edited[cols] > self.edits).any()
        if keep and not self.checked:
            # An inverse that passed this check and has not changed since,
            # over basic columns whose bits have not changed, passes again.
            ones = A[:, cols].sum(axis=1)
            ones[given[given >= self.n] - self.n] += 1.0
            keep = _conditioned(self.Binv, ones)
        self.checked = keep
        if not keep:
            self.basis, self.Binv = _basis_inverse(A, given)
            self.age = 0
        self._load(A, lp.rhs, lp.obj, l, u, self.state)

    def copy(self) -> _Simplex:
        """A copy to refill and solve without changing this simplex."""
        twin = object.__new__(_Simplex)
        twin.__dict__.update(self.__dict__, basis=self.basis.copy(),
                             Binv=self.Binv.copy(), l=self.l.copy(),
                             u=self.u.copy(), cost=self.cost.copy())
        return twin

    def _basic_values(self) -> None:
        """x_B = Binv (b - An x_N), the nonbasic slacks being at 0."""
        x, basis = self.x, self.basis
        x[basis] = 0.0
        x[basis] = self.Binv @ (self.b - self.An @ x[:self.n])

    def _outside(self) -> np.ndarray:
        """Distance of each basic column outside its bounds, 0 within
        ``_BOUND_TOL`` of them."""
        xb = self.x[self.basis]
        lo_b, hi_b = self.l[self.basis], self.u[self.basis]
        out = (xb < lo_b - _BOUND_TOL) | (xb > hi_b + _BOUND_TOL)
        if not out.any():
            return np.zeros(self.m)
        return np.where(out, np.maximum(lo_b - xb, xb - hi_b), 0.0)

    # -- columns ---------------------------------------------------------

    def _column(self, j: int) -> np.ndarray:
        """Column ``j`` of ``[An | I]``: structural ``j``, or the slack
        ``e_i`` of row ``i = j - n``."""
        if j < self.n:
            return self.An[:, j]
        e = np.zeros(self.m)
        e[j - self.n] = 1.0
        return e

    # -- core iteration -------------------------------------------------

    def _refactor(self) -> None:
        """Invert the basis afresh (:func:`_invert`), each basic slack back
        in its own row's position; a singular basis raises SolverError."""
        self.checked = False
        rows, cols = _structurals(self.basis, self.m, self.n)
        self.basis, self.Binv = _invert(self.An, rows, cols)

    def _refactor_on_cadence(self) -> None:
        """Invert afresh every ``_REFACTOR_EVERY`` pivots on Binv, counted
        from its last fresh inversion, across the solves that carried it,
        and recompute the basic values from scratch for accuracy."""
        k = self.age + self.pivots
        if k and k % _REFACTOR_EVERY == 0:
            self._refactor()
            self._basic_values()

    def _reduced_costs(self, cost: np.ndarray) -> np.ndarray:
        """Reduced costs of every column.  Slack columns are e_i, so only
        the structural block needs a product."""
        n = self.n
        y = self.y = cost[self.basis] @ self.Binv
        return np.concatenate((cost[:n] - y @ self.An, cost[n:] - y))

    def _dual_infeasibility(self, r: np.ndarray) -> np.ndarray:
        """Violation of each reduced cost's sign along its eligible
        direction (increase from a lower bound or free, decrease from an
        upper bound or free), 0 within ``COST_TOL``; fixed columns never
        enter."""
        st = self.state
        viol = np.maximum(np.where(_MAY_RISE[st], -r, 0.0),
                          np.where(_MAY_FALL[st], r, 0.0))
        viol[self.fixed | (viol <= COST_TOL)] = 0.0
        return viol

    def _exchange(self, pos: int, j: int, dj: np.ndarray) -> None:
        """Make column ``j`` basic in position ``pos``, with ``dj`` =
        Binv A[:, j]: an eta update of Binv, or a fresh inversion when the
        pivot element is too small."""
        self.basis[pos] = j
        self.state[j] = _BASIC
        self.checked = False
        piv = dj[pos]
        if abs(piv) < 1e-11:
            self._refactor()
            return
        row = self.Binv[pos] / piv
        # Only the rows where dj is nonzero change.
        rows = np.flatnonzero(dj)
        self.Binv[rows] -= dj[rows, None] * row
        self.Binv[pos] = row

    def _iterate(self, cost: np.ndarray) -> str:
        """Run the primal simplex to optimality for the given cost vector."""
        m = self.m
        degen_streak = 0
        while True:
            self._refactor_on_cadence()
            r = self._reduced_costs(cost)
            viol = self._dual_infeasibility(r)
            j = int(viol.argmax())         # Dantzig, lowest index on ties
            if viol[j] == 0.0:
                return "optimal"
            if self.pivots >= self.max_pivots:
                return "iteration_limit"
            if degen_streak > _DEGEN_STREAK_FOR_BLAND:
                j = int(np.flatnonzero(viol)[0])               # Bland
            dirn = 1.0 if (self.state[j] != _AT_UB and r[j] < -COST_TOL) \
                else -1.0

            d = self.Binv @ (dirn * self._column(j))
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
            self._exchange(leave_pos, j, d * dirn)

    def _dual_iterate(self, cost: np.ndarray) -> tuple[str, list[int]]:
        """Run the dual simplex from a start dual feasible under ``cost``
        until every basic column lies within its bounds.

        The leaving column is the basic one farthest outside its bounds,
        and it leaves at the bound it violates.  The entering column is
        one whose move takes the leaving one toward that bound, with the
        least ratio |r_j / alpha_j| (alpha the leaving row of Binv A), so
        every reduced cost keeps its sign; among near ties the largest
        |alpha_j| wins, lowest index on ties.  After a run of degenerate
        pivots both choices take the lowest column index (Bland).  A row
        that no column can move proves the program infeasible; the rows
        returned are those where that row of Binv is nonzero beyond
        ``RATIO_TOL``, in program order, and are empty for any other
        status.
        """
        degen_streak = 0
        while True:
            self._refactor_on_cadence()
            gap = self._outside()
            p = int(np.argmax(gap))
            if gap[p] == 0.0:
                return "optimal", []
            if self.pivots >= self.max_pivots:
                return "iteration_limit", []
            bland = degen_streak > _DEGEN_STREAK_FOR_BLAND
            if bland:
                out = np.flatnonzero(gap)
                p = int(out[np.argmin(self.basis[out])])
            xp = self.x[self.basis[p]]
            rise = xp < self.l[self.basis[p]]
            target = self.l[self.basis[p]] if rise else self.u[self.basis[p]]
            rho = self.Binv[p]
            # Moving column j by t moves x_p by -alpha_j t; s_j > 0 when
            # raising j takes x_p toward its bound.
            s = np.concatenate((rho @ self.An, rho))
            if rise:
                s = -s
            st = self.state
            can = ((_MAY_RISE[st] & (s > RATIO_TOL)) |
                   (_MAY_FALL[st] & (s < -RATIO_TOL)))
            can &= ~self.fixed
            if not can.any():
                return "infeasible", \
                    np.flatnonzero(np.abs(rho) > RATIO_TOL).tolist()
            r = self._reduced_costs(cost)
            ratio = np.full(len(s), INF)
            ratio[can] = np.maximum(r[can] * np.sign(s[can]), 0.0) / \
                np.abs(s[can])
            t_min = float(ratio.min())
            cand = np.flatnonzero(ratio <= t_min + COST_TOL)
            q = int(cand[0] if bland else cand[np.argmax(np.abs(s[cand]))])

            d = self.Binv @ self._column(q)
            step = (xp - target) / d[p]
            self.x[self.basis] -= d * step
            self.x[q] += step
            leaving = self.basis[p]
            self.x[leaving] = target
            self.state[leaving] = _AT_LB if rise else _AT_UB
            self.pivots += 1
            degen_streak = degen_streak + 1 if t_min <= COST_TOL else 0
            self._exchange(p, q, d)

    # -- driver ---------------------------------------------------------

    def solve(self) -> tuple[str, np.ndarray | None, list[int]]:
        """Solve from the start: the status, the duals when optimal, and
        the rows that prove the program infeasible when it is.

        A start with basics outside their bounds first runs the dual
        simplex on costs in which each nonbasic column whose reduced cost
        has the wrong sign has that reduced cost taken off its own cost,
        so the start is dual feasible; a start dual feasible already keeps
        its costs.  Phase 2 then runs on the true costs.
        """
        cost = self.cost
        if self._outside().any():
            r = self._reduced_costs(cost)
            shift = self._dual_infeasibility(r) > 0.0
            shifted = cost.copy()
            shifted[shift] -= r[shift]
            status, rows = self._dual_iterate(shifted)
            self.dual_pivots = self.pivots
            if status != "optimal":
                return status, None, rows
        status = self._iterate(cost)
        if status != "optimal":
            return status, None, []
        # The duals of the reduced costs that proved the basis optimal.
        return "optimal", self.y, []


def _usable(start: Basis, m: int, n: int) -> bool:
    """Whether ``start`` fits an m-row, n-column program: m distinct
    columns among the n structurals and m slacks, and n + m states."""
    cols = np.asarray(start.cols)
    if cols.shape != (m,) or np.shape(start.states) != (n + m,) or \
            cols.dtype.kind not in "iu":
        return False
    if not m:
        return True
    if cols.min() < 0 or cols.max() >= n + m:
        return False
    return int(np.bincount(cols).max()) == 1


def _conditioned(inv: np.ndarray, rowsum: np.ndarray) -> bool:
    """Whether ``inv`` gives back the ones vector from the row sums
    ``rowsum`` of the matrix it inverts, to ``_FACTOR_TOL`` (never for NaN):
    one O(k^2) product whose error grows with the condition number."""
    return bool(np.abs(inv @ rowsum - 1.0).max(initial=0.0) <= _FACTOR_TOL)


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


def _structurals(given: np.ndarray, m: int, n: int
                 ) -> tuple[np.ndarray, np.ndarray]:
    """The positions of the basic columns ``given`` (see :class:`Basis`)
    that no basic slack holds as its own row, and the basic structurals
    that take them, in order."""
    given = np.asarray(given)
    on_slack = np.zeros(m, dtype=bool)
    on_slack[given[given >= n] - n] = True
    return np.flatnonzero(~on_slack), given[given < n]


def _invert(A: np.ndarray, rows: np.ndarray, cols: np.ndarray
            ) -> tuple[np.ndarray, np.ndarray]:
    """The basis that holds structural ``cols[p]`` in position ``rows[p]``
    and the slack ``e_i`` in every other position ``i``, and its inverse,
    inverted afresh; every fresh inverse is built here.

    With ``T = A[rows][:, cols]`` and ``X = A[others][:, cols]``, the basis
    is ``[[T, 0], [X, I]]`` up to a permutation, so its inverse is
    ``[[T^-1, 0], [-X T^-1, I]]``: only T is ever inverted, and
    ``Binv[rows][:, rows]`` is T^-1.  A singular T raises SolverError.
    """
    m, n = A.shape
    try:
        Tinv = np.linalg.inv(A[np.ix_(rows, cols)])
    except np.linalg.LinAlgError as exc:
        raise SolverError("singular basis") from exc
    basis = n + np.arange(m)
    basis[rows] = cols
    # B^-1[:, rows] is [[I], [-X]] @ T^-1.
    S = -A[:, cols]
    S[rows] = np.eye(len(rows))
    Binv = np.eye(m)
    Binv[:, rows] = S @ Tinv
    return basis, Binv


def _basis_inverse(A: np.ndarray, given: np.ndarray
                   ) -> tuple[np.ndarray | None, np.ndarray | None]:
    """Basis positions and inverse for the basic columns ``given`` of a
    start (see :class:`Basis`), inverted afresh (:func:`_invert`), or Nones
    when their block T of basic structurals is singular or too badly
    conditioned to start from: ``T^-1 (T 1)`` must give back the ones
    vector (:func:`_conditioned`).
    """
    rows, cols = _structurals(given, *A.shape)
    try:
        basis, Binv = _invert(A, rows, cols)
    except SolverError:
        return None, None
    if not _conditioned(Binv[np.ix_(rows, rows)],
                        A[np.ix_(rows, cols)].sum(axis=1)):
        return None, None
    return basis, Binv


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
             basis: Basis | _Simplex | None = None) -> Solution:
    """Solve an LP (binaries, if any, are relaxed to their bounds).

    The solve reads the program's own arrays; nothing is copied but the
    bounds that ``var_bounds`` overrides, which is how branch and bound
    fixes binaries without copying the program.  ``basis`` is the start:
    a :class:`Basis`, inverted afresh, or the ``simplex`` of an earlier
    optimal solve of this program, which is re-solved in place
    (:meth:`_Simplex.refill`).  A start that does not fit is replaced by
    the crash.  Every optimal solution is checked by
    ``verify_certificates`` and carries its basis and its live simplex.
    """
    A, b, senses, c = lp.A, lp.rhs, lp.senses, lp.obj
    l, u = _apply_overrides(lp.lb, lp.ub, var_bounds)
    if (l > u).any():
        return Solution(status="infeasible")
    live = isinstance(basis, _Simplex)
    if live and (basis.m, basis.n, basis.senses) == (lp.m, lp.n, senses):
        sx = basis
        sx.refill(lp, l, u)
    else:
        sx = _Simplex(A, b, senses, c, l, u, None if live else basis)
    sx.edits = lp._edits
    status, y, bad_rows = sx.solve()
    counts = dict(pivots=sx.pivots, dual_pivots=sx.dual_pivots)
    if status == "infeasible" and sx.warm:
        # Name the rows the crash start names.
        sx = _Simplex(A, b, senses, c, l, u)
        status, y, bad_rows = sx.solve()
        counts["pivots"] += sx.pivots
        counts["dual_pivots"] += sx.dual_pivots
    if status != "optimal":
        names = [lp.row_names[i] for i in bad_rows]
        return Solution(status=status, infeasible_rows=names, **counts)
    x = sx.x[:lp.n].copy()
    duals = np.asarray(y).copy()
    sol = Solution(status="optimal", x=x, objective=float(c @ x), duals=duals,
                   basis=Basis(sx.basis.copy(), sx.state.copy()), simplex=sx,
                   **counts)
    verify_certificates(lp, sol, sx)
    return sol


def verify_certificates(lp: LinearProgram, sol: Solution, sx: _Simplex,
                        tol: float = CHECK_TOL) -> None:
    """Primal feasibility, dual feasibility and complementary slackness.

    Rows are checked by their sense against ``lp``, structurals against
    the bounds ``sx`` solved with, and the reduced cost of every column of
    ``sx`` that is not fixed by its state.  Each test is an "ok" mask, so a
    NaN fails it.  Raises SolverError naming the first violation beyond
    ``tol``.
    """
    x, y = sol.x, sol.duals
    n = sx.n
    r = lp.A @ x - lp.rhs
    ok = np.where(sx.is_le, r <= tol,
                  np.where(sx.is_ge, r >= -tol, np.abs(r) <= tol))
    if not ok.all():
        i = int(np.argmin(ok))
        raise SolverError(
            f"primal infeasibility {r[i]:.3e} in {lp.row_names[i]}")
    ok = (x >= sx.l[:n] - tol) & (x <= sx.u[:n] + tol)
    if not ok.all():
        raise SolverError(f"bound violation on {lp.col_names[np.argmin(ok)]}")
    # Reduced costs over structurals + slacks (dual feasibility + slackness);
    # slack columns are e_i with zero cost.
    rc = np.concatenate([lp.obj - y @ lp.A, -y])
    st = sx.state
    ok = np.where(st == _AT_LB, rc >= -tol,
                  np.where(st == _AT_UB, rc <= tol, np.abs(rc) <= tol))
    ok |= sx.l == sx.u
    if not ok.all():
        j = int(np.argmin(ok))
        what = {_BASIC: "nonzero reduced cost {:.3e} on basic col {}",
                _AT_LB: "dual infeasibility {:.3e} at lower bound col {}",
                _AT_UB: "dual infeasibility {:.3e} at upper bound col {}",
                _FREE: "dual infeasibility {:.3e} on free col {}"}[st[j]]
        raise SolverError(what.format(rc[j], j))
