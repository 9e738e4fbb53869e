"""Property tests: the simplex against HiGHS on random bounded programs,
from the crash and from the basis of a related program, the live simplex
of a program refilled window after window against the crash, and a
program made in one call against the items it is made of."""

from __future__ import annotations

import collections
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.optimize import linprog

import gridops.lp as lpmod
from gridops.lp import EQ, GE, INF, LE, LinearProgram, _Simplex, solve_lp
from shared import Builder

BOX = 10.0           # rows bounding the columns that have no finite bound


@st.composite
def programs(draw):
    """A program with mixed row senses whose feasible set is bounded.

    Columns are boxed, free, or upper-bounded only (so they start at their
    upper bound); the last two kinds get extra rows that bound them.
    """
    n = draw(st.integers(1, 5))
    m = draw(st.integers(1, 6))
    prog = Builder()
    for j in range(n):
        kind = draw(st.sampled_from(["box", "free", "upper"]))
        lo = float(draw(st.integers(-5, 0)))
        hi = lo + draw(st.integers(0, 6))
        lb, ub = {"box": (lo, hi), "free": (-INF, INF),
                  "upper": (-INF, hi)}[kind]
        prog.var(f"x{j}", lb, ub, obj=float(draw(st.integers(-5, 5))))
        if kind != "box":
            prog.constr(f"floor{j}", [(j, 1.0)], GE, -BOX)
        if kind == "free":
            prog.constr(f"ceil{j}", [(j, 1.0)], LE, BOX)
    for i in range(m):
        coeffs = [(j, float(a)) for j in range(n)
                  if (a := draw(st.integers(-4, 4)))]
        sense = draw(st.sampled_from([LE, GE, EQ]))
        prog.constr(f"r{i}", coeffs, sense, float(draw(st.integers(-10, 10))))
    return prog.program()


def highs(lp: LinearProgram):
    A, b, senses, c, l, u = lp.dense()
    ub = [i for i, s in enumerate(senses) if s != EQ]
    eq = [i for i, s in enumerate(senses) if s == EQ]
    flip = np.array([1.0 if senses[i] == LE else -1.0 for i in ub])
    return linprog(
        c,
        A_ub=A[ub] * flip[:, None] if ub else None,
        b_ub=b[ub] * flip if ub else None,
        A_eq=A[eq] if eq else None, b_eq=b[eq] if eq else None,
        bounds=[(None if lo == -INF else lo, None if hi == INF else hi)
                for lo, hi in zip(l, u)],
        method="highs")


@given(programs())
def test_random_programs_match_highs(lp):
    sol = solve_lp(lp)
    ref = highs(lp)
    assert ref.status in (0, 2), ref.message
    if ref.status == 2:
        assert sol.status == "infeasible"
        names = {con.name for con in lp.constraints}
        assert sol.infeasible_rows
        assert set(sol.infeasible_rows) <= names
    else:
        assert sol.status == "optimal"
        assert sol.objective == pytest.approx(ref.fun, abs=1e-6)


def _rows_alone(lp: LinearProgram, names: list[str]) -> LinearProgram:
    """``lp`` with only the rows ``names``, every bound and no costs."""
    return LinearProgram(
        [(v.name, v.lb, v.ub, 0.0, False) for v in lp.variables],
        [con for con in lp.constraints if con.name in names])


@given(programs())
def test_rows_an_infeasible_solve_names_are_infeasible_alone(lp):
    # The named rows are those a row of the basis inverse combines into a
    # row no column can move toward its bounds, so they alone, with every
    # bound, already admit no solution.
    sol = solve_lp(lp)
    if sol.status == "infeasible":
        assert highs(_rows_alone(lp, sol.infeasible_rows)).status == 2


def _shift(v: float, d: int) -> float:
    return v if v in (-INF, INF) else v + d


@st.composite
def related_programs(draw):
    """A program and a copy with the same rows and columns whose costs,
    right-hand sides and finite bounds are moved."""
    lp = draw(programs())
    moved = Builder()
    for v in lp.variables:
        lo = _shift(v.lb, draw(st.integers(-2, 2)))
        hi = max(lo, _shift(v.ub, draw(st.integers(-2, 2))))
        moved.var(v.name, lo, hi, obj=float(draw(st.integers(-5, 5))))
    for con in lp.constraints:
        moved.constr(con.name, con.coeffs, con.sense,
                     con.rhs + draw(st.integers(-6, 6)))
    return lp, moved.program()


@given(related_programs())
def test_warm_started_programs_match_highs(pair):
    lp, moved = pair
    first = solve_lp(lp)
    sol = solve_lp(moved, basis=first.basis)
    ref = highs(moved)
    assert ref.status in (0, 2), ref.message
    if ref.status == 2:
        assert sol.status == "infeasible"
        assert sol.infeasible_rows == solve_lp(moved).infeasible_rows
    else:
        assert sol.status == "optimal"
        assert sol.objective == pytest.approx(ref.fun, abs=1e-6)


def _start_path(pair) -> str:
    """How the moved program starts from the first one's optimal basis."""
    lp, moved = pair
    first = solve_lp(lp)
    if first.status != "optimal":
        return "cold"
    sx = _Simplex(*moved.dense(), first.basis)
    if not sx.warm:
        return "cold"
    if not sx._outside().any():
        return "phase 2"
    shifted = sx._dual_infeasibility(sx._reduced_costs(sx.cost)).any()
    return "shifted dual" if shifted else "dual"


def test_related_programs_reach_every_start_path():
    # The strategy of test_warm_started_programs_match_highs, under the
    # same derandomized settings, yields starts that are primal infeasible
    # but dual feasible (the dual simplex on the true costs) and starts
    # that are neither (the dual simplex on shifted costs), as well as
    # feasible ones.
    seen = collections.Counter()

    @given(related_programs())
    def record(pair):
        seen[_start_path(pair)] += 1
    record()
    assert seen["dual"] and seen["shifted dual"] and seen["phase 2"], seen


def _refill(data, lp: LinearProgram, live: _Simplex | None) -> None:
    """Move ``lp`` in place to its next window: every right-hand side,
    finite bound and cost, and one coefficient through ``set_coeffs``,
    sometimes in a basic column of ``live``."""
    lp.rhs[:] += data.draw(st.lists(st.integers(-3, 3), min_size=lp.m,
                                    max_size=lp.m))
    for j, v in enumerate(lp.variables):
        lo = _shift(v.lb, data.draw(st.integers(-2, 2)))
        lp.lb[j] = lo
        lp.ub[j] = max(lo, _shift(v.ub, data.draw(st.integers(-2, 2))))
        lp.obj[j] = float(data.draw(st.integers(-5, 5)))
    if not lp.nnz:
        return
    k = data.draw(st.integers(0, lp.nnz - 1))
    if live is not None and data.draw(st.booleans()):
        basic = np.flatnonzero(np.isin(lp.entry_col, live.basis))
        if basic.size:
            k = int(basic[data.draw(st.integers(0, basic.size - 1))])
    lp.set_coeffs(lp.cells([k]), np.array([float(data.draw(
        st.integers(-4, 4)))]))


@given(programs(), st.data())
def test_live_resolve_equals_a_cold_solve(lp, data):
    # One program refilled window after window, as a layer refills its
    # own: the live simplex of its last optimal solve re-solves each
    # window in place and ends as the crash does.
    real = lpmod.verify_certificates
    checked = []

    def counted(*args, **kwargs):
        checked.append(1)
        return real(*args, **kwargs)

    with mock.patch.object(lpmod, "verify_certificates", counted):
        sol = solve_lp(lp)
        live = sol.simplex
        optimal = sol.status == "optimal"
        for _ in range(data.draw(st.integers(1, 4))):
            _refill(data, lp, live)
            got = solve_lp(lp, basis=live)
            cold = solve_lp(lp)
            assert got.status == cold.status
            if got.status == "optimal":
                assert live is None or got.simplex is live
                assert got.objective == pytest.approx(
                    cold.objective, rel=1e-9, abs=1e-9)
                optimal += 2
                live = got.simplex
    assert len(checked) == optimal


def _solve_pair(pair) -> list:
    """The first program from the crash, then the moved one from its basis."""
    lp, moved = pair
    first = solve_lp(lp)
    return [first, solve_lp(moved, basis=first.basis)]


def test_refactor_cadence_keeps_every_solve():
    # Inverting afresh every 2 to 4 pivots, in phase 2 and in the dual
    # loop, gives the status and objective of the default cadence (which
    # these small programs never reach), and every optimal solve still
    # passes its certificate check.
    real_refactor, real_verify = _Simplex._refactor, lpmod.verify_certificates
    refactors, checked = [], []

    def refactor(self):
        refactors.append(1)
        return real_refactor(self)

    def verify(*args, **kwargs):
        checked.append(1)
        return real_verify(*args, **kwargs)

    @given(related_programs(), st.integers(2, 4))
    def check(pair, every):
        default = _solve_pair(pair)
        del checked[:]
        with mock.patch.object(lpmod, "_REFACTOR_EVERY", every), \
                mock.patch.object(_Simplex, "_refactor", refactor), \
                mock.patch.object(lpmod, "verify_certificates", verify):
            got = _solve_pair(pair)
        for sol, ref in zip(got, default):
            assert sol.status == ref.status
            if sol.status == "optimal":
                assert sol.objective == pytest.approx(
                    ref.objective, rel=1e-9, abs=1e-9)
        assert len(checked) == sum(s.status == "optimal" for s in got)
    check()
    assert refactors


# A program made in one call from its columns and rows.
BOUNDS = st.one_of(st.sampled_from([-INF, -2.5, -0.0, 0.0, 0.5, 1.0, INF]),
                   st.integers(-2, 3))
VALUES = st.floats(allow_nan=False, width=64)
NAMES = st.text(alphabet="xy[],' \"\\", max_size=4)
ARRAYS = ("lb", "ub", "obj", "binary", "rhs", "indptr", "entry_row",
          "entry_col", "entry_val", "A")


@st.composite
def blocks(draw):
    """Columns and rows as ``LinearProgram(cols, rows)`` takes them: bounds
    with infinities, signed zeros and ints, binaries within [0, 1], rows
    with empty, repeated and unordered entries."""
    cols = []
    for _ in range(draw(st.integers(0, 5))):
        binary = draw(st.booleans())
        lo, hi = sorted(draw(st.lists(
            st.sampled_from([0.0, -0.0, 0.5, 1.0]) if binary else BOUNDS,
            min_size=2, max_size=2)))
        cols.append((draw(NAMES), lo, hi, draw(VALUES), binary))
    rows = []
    for _ in range(draw(st.integers(0, 5))):
        coeffs = draw(st.lists(st.tuples(
            st.integers(0, len(cols) - 1),
            st.floats(allow_nan=False, allow_infinity=False)),
            max_size=4)) if cols else []
        rows.append((draw(NAMES), coeffs, draw(st.sampled_from([LE, EQ, GE])),
                     draw(st.one_of(BOUNDS, VALUES))))
    return cols, rows


def _same_program(a: LinearProgram, b: LinearProgram) -> None:
    for name in ARRAYS:
        x, y = getattr(a, name), getattr(b, name)
        assert (x.dtype, x.shape, x.tobytes()) == \
            (y.dtype, y.shape, y.tobytes()), name            # bitwise
    assert (a.col_names, a.row_names, a.senses, a.n, a.m, a.nnz) == \
        (b.col_names, b.row_names, b.senses, b.n, b.m, b.nnz)


def _expected(cols, rows) -> dict:
    """Each array of ``LinearProgram(cols, rows)``, read off the items one
    by one: each cell of A is 0.0 plus its entries in the order given."""
    A = np.zeros((len(rows), len(cols)))
    for i, (_, coeffs, _, _) in enumerate(rows):
        for j, a in coeffs:
            A[i, j] += a
    counts = [len(coeffs) for _, coeffs, _, _ in rows]
    return dict(
        lb=np.array([c[1] for c in cols], dtype=float),
        ub=np.array([c[2] for c in cols], dtype=float),
        obj=np.array([c[3] for c in cols], dtype=float),
        binary=np.array([c[4] for c in cols], dtype=bool),
        rhs=np.array([r[3] for r in rows], dtype=float),
        indptr=np.array([0] + np.cumsum(counts, dtype=int).tolist(),
                        dtype=np.intp),
        entry_row=np.array([i for i, n in enumerate(counts)
                            for _ in range(n)], dtype=np.intp),
        entry_col=np.array([j for r in rows for j, _ in r[1]],
                           dtype=np.intp),
        entry_val=np.array([a for r in rows for _, a in r[1]], dtype=float),
        A=A)


@given(blocks())
# Finite entries may sum past the largest float in a cell of A.
@np.errstate(over="ignore")
def test_one_call_builds_the_arrays_its_items_list(block):
    cols, rows = block
    lp = LinearProgram(cols, rows)
    for name, want in _expected(cols, rows).items():
        got = getattr(lp, name)
        assert (got.dtype, got.shape, got.tobytes()) == \
            (want.dtype, want.shape, want.tobytes()), name      # bitwise
    assert (lp.col_names, lp.row_names, lp.senses, lp.n, lp.m, lp.nnz) == \
        ([c[0] for c in cols], [r[0] for r in rows], [r[2] for r in rows],
         len(cols), len(rows), sum(len(r[1]) for r in rows))
    _same_program(LinearProgram(lp.variables, lp.constraints), lp)
    copy = eval(repr(lp), {"inf": INF, "LinearProgram": LinearProgram})
    _same_program(copy, lp)
    assert repr(copy) == repr(lp)


def _shortest_refused_prefix(cols, rows) -> str:
    """The error of the shortest prefix of the items, columns before
    rows, that ``LinearProgram`` refuses: that of its last item."""
    prefixes = [(cols[:i], []) for i in range(1, len(cols) + 1)] + \
        [(cols, rows[:i]) for i in range(1, len(rows) + 1)]
    for prefix in prefixes:
        try:
            LinearProgram(*prefix)
        except lpmod.SolverError as exc:
            return str(exc)
    raise AssertionError("every prefix was accepted")


@given(blocks(), st.data())
def test_a_malformed_block_raises_what_its_first_bad_item_does(block, data):
    # Faults go in at random places, several at once, each naming its
    # item apart, so the block must name the first faulty item, columns
    # before rows: the last item of the shortest prefix it refuses.
    # Column faults go in first, so that a column index out of range
    # stays out of range.
    cols, rows = block
    col_faults = data.draw(st.lists(st.sampled_from(["binary", "domain"]),
                                    max_size=2))
    row_faults = data.draw(st.lists(st.sampled_from(["sense", "column"]),
                                    min_size=0 if col_faults else 1,
                                    max_size=3))
    for f, fault in enumerate(col_faults):
        lo, hi = data.draw(st.sampled_from(
            [(-1.0, 0.5), (0.0, 2.0), (0, INF)] if fault == "binary"
            else [(2.0, 1.0), (INF, -INF), (1, 0.5)]))
        cols.insert(data.draw(st.integers(0, len(cols))),
                    (f"bad{f}", lo, hi, 0.0, fault == "binary"))
    for f, fault in enumerate(row_faults):
        i = data.draw(st.integers(0, len(rows)))
        _, coeffs, sense, rhs = rows[i] if i < len(rows) else \
            (None, [], GE, 0.0)
        if fault == "sense":
            sense = data.draw(st.sampled_from(["<", "==", "=>", ""]))
        else:
            j = data.draw(st.sampled_from([-1, len(cols), len(cols) + 3]))
            coeffs = coeffs + [(j, 1.0)]
        rows[i:i + 1] = [(f"bad row {f}", coeffs, sense, rhs)]
    first = next(item[0] for item in cols + rows
                 if item[0].startswith("bad"))
    with pytest.raises(lpmod.SolverError) as one_call:
        LinearProgram(cols, rows)
    assert str(one_call.value) == _shortest_refused_prefix(cols, rows)
    assert first in str(one_call.value)
