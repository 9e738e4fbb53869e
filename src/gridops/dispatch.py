"""The three scheduling layers and the optimization program they share.

The day-ahead commitment (:func:`run_scuc`), same-day fast-start
commitment (:func:`run_rtuc`) and real-time dispatch (:func:`run_sced`)
share one constraint family: bubble balance against a DC flow,
interface limits, unit box bounds with outage masks, ramp limits with
start/stop relaxation, storage energy accounting, commitment logic, and
contingency-based reserve procurement.  This module builds that program,
parameterized by layer, and extracts a uniform Schedule.  The build
records each column family's indices as an integer block (``Columns``), so
extraction indexes the solution vector directly.

Every window of a layer has the same structure: the same columns, rows,
names, binaries and coefficient pattern.  So the structure is built once
(``_structure``) and each window, the first included, only fills in its
values (``fill_program``): bounds, costs, right-hand sides and the few
coefficients that follow forecasts and outages.  A simulation keeps one
program per layer and refills it window after window; the program keeps
the live simplex of its last optimal solve, which re-solves the next
window in place.

The structure also records the program's plan (``_plan``): every value
that only the scenario and the program's shape fix, laid out as a window
reads it.  Fuel prices by clock hour come already multiplied into each
cost column's unit constant, unit bounds and ramp rates are arrays, each
bubble's balance terms are listed in the order they are summed, the cells
a window writes are located, and each Schedule field has its block of the
solution.  What forecasts, outages and clock hours drive (costs,
available energy, contingency and balance right-hand sides, curtailment
and shedding coefficients) is computed from the plan for all of a layer's
windows at once (:class:`LayerInputs`).  So a window's fill is a short
fixed run of array writes, most of them one row of those values and the
rest what the fleet's state sets, and extraction one gather.

Each layer decides its own window from its start minute: the step grid
(:func:`layer_grid`) and the start minute itself (:class:`LayerOptions`).
The availability over the grid and the clock hour of each step, which
prices fuel, are worked out from the start minute in one place,
:meth:`LayerInputs.of_layer`, for all of a layer's windows at once or for
a window alone.  What carries over from window to window is the one live
:class:`InitialState` the caller passes in.

Everything indexed by entity is an array in scenario order, found by
position, never a dict keyed by id: the forecasts (:class:`Forecasts`,
[load, step] and [semi, step]) and the availability net of outages
(:func:`outage_masks`, [step, gen] and [semi, step]), the state and pins
(:class:`InitialState`, :class:`LayerOptions`) by generator or storage,
each :class:`Schedule` field [entity, step], and column and row blocks
[step, entity].

Conventions: ramp rates are MW/min, steps are minutes, curtailment is a
fraction in [0,1] applied to the curtailable share d of a resource.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from types import SimpleNamespace

import numpy as np

from .lp import EQ, GE, INF, LE, LinearProgram, Solution, _Simplex, solve_lp
from .milp import solve_milp
from .piecewise import linearize_cost
from .scenario import Scenario

N_SEGMENTS = 3
_ZERO = np.zeros(1)


class DispatchError(Exception):
    """Infeasible or failed optimization, naming the violated family."""


@dataclass
class Forecasts:
    """Per-step forecasts for one optimization window, in scenario order:
    ``load`` [load, step] and ``semi`` [semi, step], MW.  The window reads
    the first ``steps`` of each row.

    ``inputs`` is the batch of the layer's windows this one belongs to and
    ``index`` its row there (:meth:`LayerInputs.windows`); the window's
    options must then be those of that row's start minute.  A Forecasts
    made without one is a batch of one (:meth:`LayerInputs.of_window`),
    whose hours and outage masks follow from the options' start minute.
    """
    load: np.ndarray                     # [load, step] MW
    semi: np.ndarray                     # [semi, step] MW
    inputs: LayerInputs | None = field(default=None, repr=False,
                                       compare=False)
    index: int = 0


class LayerInputs:
    """What the windows of one layer read that no dispatch decision
    changes, as arrays with one row per window: the forecasts ``load``
    [window, load, step] and ``semi`` [window, semi, step] in scenario
    order, the clock hour of each step (``hours``) and the availability
    net of outages of units (``gen_on`` [window, step, unit]) and semis
    (``semi_on`` [window, semi, step]) as :func:`outage_masks` gives it.

    :meth:`values` turns them into the program values they drive, for
    every window in one pass.
    """

    def __init__(self, load, semi, hours, gen_on, semi_on):
        self.load, self.semi, self.hours = load, semi, hours
        self.gen_on, self.semi_on = gen_on, semi_on
        self._values = {}

    @classmethod
    def of_layer(cls, scn: Scenario, layer: str, minutes, load,
                 semi) -> LayerInputs:
        """The windows of ``layer`` that start at ``minutes``, with each
        load's and semi's forecasts as [window, step] arrays in scenario
        order.  Each window's clock hours and outage masks follow from its
        start minute here, and nowhere else."""
        step, n = layer_grid(scn.timing, layer)
        minutes = np.asarray(minutes, dtype=int)
        hours = np.add.outer(minutes, step * np.arange(n)) // 60 % 24

        def rows(series):
            return np.array(series, dtype=float).reshape(
                len(series), len(minutes), n).transpose(1, 0, 2)

        return cls(rows(load), rows(semi), hours,
                   *outage_masks(scn, minutes, step, n))

    @classmethod
    def of_window(cls, scn: Scenario, fc: Forecasts,
                  opt: LayerOptions) -> LayerInputs:
        """One window's forecasts as a batch of one, starting at the
        options' minute."""
        T = opt.steps
        for series in (fc.load, fc.semi):
            if len(series) and series.shape[1] < T:
                raise DispatchError(f"forecast horizon {series.shape[1]} "
                                    f"shorter than {T} steps")
        return cls.of_layer(scn, opt.layer, [opt.minute], fc.load[:, :T],
                            fc.semi[:, :T])

    def windows(self) -> list[Forecasts]:
        """Each window's Forecasts, row views of these arrays."""
        return [Forecasts(load=load, semi=semi, inputs=self, index=k)
                for k, (load, semi) in enumerate(zip(self.load, self.semi))]

    def values(self, cols: Columns) -> SimpleNamespace:
        """The program values these inputs drive, each with one row per
        window, for programs of ``cols``' plan; computed once per plan.

        ``obj``, ``rhs`` and ``coefs`` are written at the plan's
        ``obj_cells``, ``rhs_cells`` and ``coef_cells``: the hourly costs,
        the curtailment and shedding costs, the contingency right-hand
        sides and, unless pinned storage comes into it, the balance; the
        committed floor and cap and the curtailment, contingency and
        shedding coefficients.  ``terms`` are the balance terms after the
        pinned storage, ``fuel`` the fuel price of each step and unit.
        Each value takes the floating-point operations of a window filled
        on its own, element by element.
        """
        hit = self._values.get(cols.shape)
        if hit is not None and hit[0] is cols.scn:
            return hit[1]
        W, T = self.hours.shape
        avail = self.semi_on * self.semi
        load = self.load
        obj = [cols.hourly_cost[self.hours]]
        rhs = []
        coefs = [] if cols.sced else [-self.gen_on * cols.pmin,
                                      -self.gen_on * cols.pmax]
        cv, cv_cols, cv_cost, scale, neg_d = cols.cv
        # Withholding delivery at threshold price C forfeits C*d*avail.
        avail_cv = avail[:, cv].transpose(0, 2, 1)
        obj.append(cv_cost * avail_cv)
        coefs.append(scale * (neg_d * avail_cv))
        ties, tie_rows, tie_cv, tie_d = cols.ties
        rhs.append(avail[:, ties].transpose(0, 2, 1))
        coefs.append(tie_d * avail[:, tie_cv].transpose(0, 2, 1))
        cl, cl_cols, cl_cost, cl_coef = cols.cl
        load_cl = load[:, cl].transpose(0, 2, 1)
        obj.append(cl_cost * load_cl)
        coefs.append(cl_coef * load_cl)
        terms = np.concatenate([cols.load_scale * load,
                                cols.semi_sign * avail,
                                np.zeros((W, 1, T))], axis=1)
        if not cols.sids:
            rhs.append(_balance(terms, cols.bal_terms,
                                (W,) + cols.bal_rows.shape))

        def rows(parts):
            return np.concatenate([np.empty((W, 0))] +
                                  [p.reshape(W, -1) for p in parts], axis=1)

        values = SimpleNamespace(obj=rows(obj), rhs=rows(rhs),
                                 coefs=rows(coefs), terms=terms,
                                 fuel=cols.fuel[self.hours])
        self._values[cols.shape] = (cols.scn, values)
        return values


@dataclass
class InitialState:
    """The fleet's state where a window starts, one array per quantity:
    generator order for the units, storage order for the storage.  A
    simulation keeps one and updates it minute by minute; layers only read
    it."""
    online: np.ndarray           # w at t=0
    output: np.ndarray           # MW at t=0
    run_hours: np.ndarray        # hours in the current status, +on/-off
    starts_used: np.ndarray      # n_Gk today (ints)
    energy: np.ndarray           # storage MWh
    mode_gen: np.ndarray
    mode_pump: np.ndarray


@dataclass
class Schedule:
    """One window's solution: each field but ``c1`` [step] is an array
    [entity, step] whose rows follow the ids ``Columns.read`` lists for it.
    A quantity the program has no column for reads 0.0 (SCED's u and v,
    an unsheddable load's shedding, storage energy and modes where storage
    is pinned, whose pinned output is kept)."""
    layer: str
    steps: int
    step_minutes: int
    status: str
    objective: float
    w: np.ndarray
    u: np.ndarray
    v: np.ndarray
    p: np.ndarray
    tmsr: np.ndarray
    tmor: np.ndarray
    storage_gen: np.ndarray
    storage_pump: np.ndarray
    storage_energy: np.ndarray
    storage_mode_gen: np.ndarray
    storage_mode_pump: np.ndarray
    curtail: np.ndarray
    shed: np.ndarray
    dr: np.ndarray
    super_pos: np.ndarray
    super_neg: np.ndarray
    flows: np.ndarray
    c1: np.ndarray
    program: tuple | None = None     # (lp, cols); refilled by the next window


@dataclass
class LayerOptions:
    """One window of a layer: its step grid, its start minute and what the
    caller pins, as arrays in generator or storage order.  The window's
    clock hours and outage masks are not held here:
    :meth:`LayerInputs.of_layer` derives them from ``minute``."""
    layer: str                           # scuc | rtuc | sced
    steps: int
    step_minutes: int
    minute: int = 0                      # where the window starts
    pinned_w: np.ndarray | None = None   # [gen, step] w; a NaN row is free
    pinned_storage: tuple | None = None  # ([st, step] P_s, S_s); None=free
    fixed_uv: tuple | None = None        # sced: ([gen] u, [gen] v) consts
    starts_ahead: np.ndarray | None = None   # [gen] m_Gk lookahead


class Columns(dict):
    """Column family -> int array of column indices, indexed [step, entity].

    Entries are -1 where an entity has no such column.  ``fixed_cost`` is
    objective that lies outside the program: in SCED, the pinned
    commitments' cost at P^min.  ``simplex`` is the live simplex of the
    program's last optimal solve (None until it is first solved), which
    its next solve re-solves in place.

    What a window fills in is indexed the same way: ``rows`` maps the row
    families whose right-hand side depends on the window to row indices,
    and ``entries`` the window-dependent coefficients (``"bal.cl"`` is the
    ``cl`` entry of each ``bal`` row) to indices into the program's
    entries.  ``shape`` and ``scn`` are what the structure was built for
    (:func:`_shape`).

    The rest is the program's plan (:func:`_plan`), the scenario's
    constants laid out against those indices: ``hourly`` holds every cost
    column that is a fuel price times a unit constant (the segments of
    each unit, and w, u and v in commitment) and ``hourly_cost`` those
    costs for each clock hour; ``fuel``, ``pmin``, ``pmax``, ``ramp``
    and the like hold unit constants; ``bal_terms`` lists each bubble's
    balance terms in summation order; ``obj_cells``, ``rhs_cells`` and
    ``coef_cells`` (located once, see ``LinearProgram.cells``) are where a
    window's forecast-driven values (:meth:`LayerInputs.values`) go;
    ``gather`` reads every Schedule field from the solution at once and
    ``read`` lists each field's rows of it with the ids they follow.  Like
    the coefficients baked into the structure, the plan belongs to the
    scenario object ``scn``: a program is refilled only for that same
    object (``scn is``), so a scenario edited in place needs a new
    program.
    """
    fixed_cost = 0.0
    simplex: _Simplex | None = None


def reserves_active(scn: Scenario) -> bool:
    r = scn.reserves
    if r.lfr_requirement is not None and r.lfr_requirement > 0:
        return True
    sys_any = (r.alpha_sys_tmsr > 0 or r.alpha_sys_tmor > 0)
    bub_any = any(v > 0 for v in r.alpha_tmsr.values()) or \
        any(v > 0 for v in r.alpha_tmor.values())
    return sys_any or bub_any


def _shape(scn: Scenario, opt: LayerOptions) -> tuple:
    """Everything the structure of a layer's program depends on, beyond
    the scenario: the layer, its steps, which units are pinned (one flag
    per generator) and whether storage is.  Windows of equal shape differ
    only in values."""
    pinned = (False,) * len(scn.generators) if opt.pinned_w is None else \
        tuple((~np.isnan(opt.pinned_w[:, 0])).tolist())
    return (opt.layer, opt.steps, opt.step_minutes, pinned,
            opt.pinned_storage is None)


def build_program(scn: Scenario, fc: Forecasts, init: InitialState,
                  opt: LayerOptions):
    """Build the layer's program for one window; returns (LinearProgram,
    Columns).  The structure is built first, then filled for the window
    by :func:`fill_program`, which refills it for every later window of
    the same shape."""
    program = _structure(scn, opt)
    fill_program(program, scn, fc, init, opt)
    return program


def _structure(scn: Scenario, opt: LayerOptions):
    """Columns, rows and every coefficient that no window changes.

    Bounds, costs and right-hand sides that depend on the window are left
    at placeholders, as are the window-dependent coefficients; the
    indices :func:`fill_program` writes them at are recorded in the
    returned ``Columns``.
    """
    T = opt.steps
    net = scn.network
    gens, semis = scn.generators, scn.semis
    penalty = scn.penalty_price()
    res = scn.reserves
    sced = opt.layer == "sced"
    use_res = not sced and reserves_active(scn)
    storage_vars = opt.pinned_storage is None
    dt = opt.step_minutes

    # Index blocks as nested lists [t][entity]: plain ints index faster
    # than numpy scalars in the row loops below.
    G, S, B = len(gens), len(scn.storages), len(net.bubbles)
    sizes = dict(w=G, u=G, v=G, P=G, rS=G, rO=G, wP=S, wS=S, Ps=S, Ss=S,
                 Es=S, cv=len(semis), cl=len(scn.loads), Pm=len(scn.drs),
                 sgP=B, sgN=B, F=len(net.branches), C1=1)
    blk = {name: [[-1] * n for _ in range(T)] for name, n in sizes.items()}
    (w, u, v, P, rS, rO, wP, wS, Ps, Ss, Es, cv, cl, Pm, sgP, sgN, F,
     C1) = blk.values()
    dP = [[None] * G for _ in range(T)]    # segment columns
    row_sizes = dict(bal=B, seg=G, link=G, stor=S, flip1=S, flip2=S,
                     ct1=len(semis), maxup=G)
    row_sizes["ramp+"] = row_sizes["ramp-"] = G
    rows = {name: [[-1] * n for _ in range(T)]
            for name, n in row_sizes.items()}
    ent_sizes = {"bal.cl": len(scn.loads), "bal.cv": len(semis),
                 "seg.w": G, "plim.w": G, "ct1.cv": len(semis)}
    ents = {name: [[-1] * n for _ in range(T)]
            for name, n in ent_sizes.items()}
    pw = [linearize_cost(g.p_min, g.p_max, 1.0, g.h_f, g.h_l, g.h_q,
                         N_SEGMENTS) for g in gens]
    pinned = _shape(scn, opt)[3]

    # -- variables ---------------------------------------------------------
    # The program's columns and rows, and the entries ``mark`` names:
    # (family, t, k, row, place in the row), located once it is made.
    columns, constraints, marks = [], [], []

    def var(name, lb=0.0, ub=INF, obj=0.0, binary=False):
        columns.append((name, lb, ub, obj, binary))
        return len(columns) - 1

    for t in range(T):
        for k, g in enumerate(gens):
            if sced:
                P[t][k] = var(f"P[{g.id},{t}]")
            else:
                free = g.kind != "must-run" and not pinned[k]
                w[t][k] = var(f"w[{g.id},{t}]", ub=1.0, binary=free)
                u[t][k] = var(f"u[{g.id},{t}]", lb=0.0, ub=1.0)
                v[t][k] = var(f"v[{g.id},{t}]", lb=0.0, ub=1.0)
                P[t][k] = var(f"P[{g.id},{t}]", lb=0.0, ub=g.p_max)
            dP[t][k] = [var(f"dP[{g.id},{t},{s}]", lb=0.0, ub=width)
                        for s, width in enumerate(pw[k].widths)]
            if use_res:
                rS[t][k] = var(f"rS[{g.id},{t}]", lb=0.0,
                               ub=max(g.r_max * res.t_10, 0.0))
                rO[t][k] = var(f"rO[{g.id},{t}]", lb=0.0,
                               ub=max(g.r_max * res.t_30, 0.0))

        if storage_vars:
            for k, st in enumerate(scn.storages):
                for fam, lo, hi, binary in (
                        ("wP", 0.0, 1.0, True), ("wS", 0.0, 1.0, True),
                        ("Ps", 0.0, st.p_max, False),
                        ("Ss", 0.0, st.s_max, False),
                        ("Es", st.e_min, st.e_max, False)):
                    blk[fam][t][k] = var(f"{fam}[{st.id},{t}]", lb=lo,
                                         ub=hi, binary=binary)
        for k, sm in enumerate(semis):
            if sm.d > 0:
                cv[t][k] = var(f"cv[{sm.id},{t}]", lb=0.0, ub=1.0)
        for k, ld in enumerate(scn.loads):
            if ld.d > 0:
                cl[t][k] = var(f"cl[{ld.bubble},{t}]", lb=0.0, ub=1.0)
        for k, m in enumerate(scn.drs):
            Pm[t][k] = var(f"Pm[{m.id},{t}]", lb=m.p_min, ub=m.p_max,
                           obj=m.cost)
        for k, b in enumerate(net.bubbles):
            sgP[t][k] = var(f"sgP[{b},{t}]", ub=INF, obj=penalty)
            sgN[t][k] = var(f"sgN[{b},{t}]", ub=INF, obj=penalty)
        for li in range(len(net.branches)):
            F[t][li] = var(f"F[{li},{t}]", lb=-INF, ub=INF)
        if use_res:
            C1[t][0] = var(f"C1[{t}]", ub=INF)

    # -- constraints -------------------------------------------------------
    itf_terms = [net.interface_terms(itf) for itf in net.interfaces]

    def add(name, coeffs, sense, rhs=0.0, row=None, t=0, k=0):
        constraints.append((name, coeffs, sense, rhs))
        if row is not None:
            rows[row][t][k] = len(constraints) - 1
        return len(constraints) - 1

    def mark(family, i, t, k, j):
        place = [c for c, _ in constraints[i][1]].index(j)
        marks.append((family, t, k, i, place))

    for t in range(T):
        for kb, b in enumerate(net.bubbles):
            coeffs = [(P[t][k], 1.0) for k, g in enumerate(gens)
                      if g.bubble == b]
            for k, st in enumerate(scn.storages):
                if st.bubble == b and storage_vars:
                    coeffs += [(Ps[t][k], 1.0), (Ss[t][k], -1.0)]
            coeffs += [(sgP[t][kb], 1.0), (sgN[t][kb], -1.0)]
            coeffs += [(Pm[t][k], 1.0) for k, m in enumerate(scn.drs)
                       if m.bubble == b]
            ks_cl = [k for k, ld in enumerate(scn.loads)
                     if ld.bubble == b and ld.d > 0]
            ks_cv = [k for k, sm in enumerate(semis)
                     if sm.bubble == b and sm.d > 0]
            coeffs += [(cl[t][k], 0.0) for k in ks_cl]
            coeffs += [(cv[t][k], 0.0) for k in ks_cv]
            for li, br in enumerate(net.branches):
                if br.from_bubble == b:
                    coeffs.append((F[t][li], -1.0))
                elif br.to_bubble == b:
                    coeffs.append((F[t][li], 1.0))
            i = add(f"bal[{b},{t}]", coeffs, EQ, row="bal", t=t, k=kb)
            for k in ks_cl:
                mark("bal.cl", i, t, k, cl[t][k])
            for k in ks_cv:
                mark("bal.cv", i, t, k, cv[t][k])

        for itf, terms in zip(net.interfaces, itf_terms):
            coeffs = [(F[t][bi], a) for bi, a in terms]
            add(f"int+[{itf.name},{t}]", coeffs, LE, itf.limit)
            add(f"int-[{itf.name},{t}]", coeffs, GE, -itf.limit)

        for k, g in enumerate(gens):
            pvar = P[t][k]
            # P = w*P^min + filled segments.
            segs = [(j, -1.0) for j in dP[t][k]]
            if sced:
                add(f"seg[{g.id},{t}]", [(pvar, 1.0)] + segs, EQ,
                    row="seg", t=t, k=k)
                add(f"ramp+[{g.id},{t}]", [(pvar, 1.0)], LE, row="ramp+",
                    t=t, k=k)
                add(f"ramp-[{g.id},{t}]", [(pvar, 1.0)], GE, row="ramp-",
                    t=t, k=k)
                continue

            wvar, uvar, vvar = w[t][k], u[t][k], v[t][k]
            # The committed floor scales with availability so a forced
            # outage of a pinned unit stays feasible; the segment sum is
            # capped by headroom.
            i = add(f"seg[{g.id},{t}]", [(pvar, 1.0), (wvar, 0.0)] + segs,
                    EQ)
            mark("seg.w", i, t, k, wvar)
            i = add(f"plim[{g.id},{t}]", [(pvar, 1.0), (wvar, 0.0)], LE)
            mark("plim.w", i, t, k, wvar)
            # w-u-v linkage and ramp with start/stop relaxation; the first
            # step's right-hand sides hold the unit's initial state.
            if t == 0:
                add(f"link[{g.id},{t}]",
                    [(wvar, 1.0), (uvar, -1.0), (vvar, 1.0)], EQ,
                    row="link", k=k)
                prev = [(pvar, 1.0)]
            else:
                add(f"link[{g.id},{t}]",
                    [(wvar, 1.0), (w[t - 1][k], -1.0), (uvar, -1.0),
                     (vvar, 1.0)], EQ)
                prev = [(pvar, 1.0), (P[t - 1][k], -1.0)]
            add(f"uv[{g.id},{t}]", [(uvar, 1.0), (vvar, 1.0)], LE, 1.0)
            add(f"ramp+[{g.id},{t}]", prev + [(uvar, -g.p_max)], LE,
                0.0 + g.r_max * dt, row="ramp+" if t == 0 else None, k=k)
            add(f"ramp-[{g.id},{t}]", prev + [(vvar, g.p_max)], GE,
                0.0 + g.r_min * dt, row="ramp-" if t == 0 else None, k=k)

        if storage_vars:
            dt_h = opt.step_minutes / 60.0
            for k, st in enumerate(scn.storages):
                wp, ws = wP[t][k], wS[t][k]
                psv, ssv, ev = Ps[t][k], Ss[t][k], Es[t][k]
                add(f"pslim+[{st.id},{t}]", [(psv, 1.0), (wp, -st.p_max)],
                    LE)
                add(f"pslim-[{st.id},{t}]", [(psv, 1.0), (wp, -st.p_min)],
                    GE)
                add(f"sslim+[{st.id},{t}]", [(ssv, 1.0), (ws, -st.s_max)],
                    LE)
                add(f"sslim-[{st.id},{t}]", [(ssv, 1.0), (ws, -st.s_min)],
                    GE)
                add(f"mode[{st.id},{t}]", [(wp, 1.0), (ws, 1.0)], LE, 1.0)
                if t == 0:
                    add(f"stor[{st.id},{t}]",
                        [(ev, 1.0), (ssv, -st.eta * dt_h), (psv, dt_h)], EQ,
                        row="stor", k=k)
                    add(f"flip1[{st.id},{t}]", [(wp, 1.0)], LE, row="flip1",
                        k=k)
                    add(f"flip2[{st.id},{t}]", [(ws, 1.0)], LE, row="flip2",
                        k=k)
                else:
                    add(f"stor[{st.id},{t}]",
                        [(ev, 1.0), (Es[t - 1][k], -1.0),
                         (ssv, -st.eta * dt_h), (psv, dt_h)], EQ)
                    # No pump-to-generate flip within one step.
                    add(f"flip1[{st.id},{t}]",
                        [(wp, 1.0), (wS[t - 1][k], 1.0)], LE, 1.0)
                    add(f"flip2[{st.id},{t}]",
                        [(ws, 1.0), (wP[t - 1][k], 1.0)], LE, 1.0)

        if use_res:
            c1 = C1[t][0]
            for k, g in enumerate(gens):
                add(f"cg1[{g.id},{t}]", [(c1, 1.0), (w[t][k], -g.p_max)], GE)
            for k, sm in enumerate(semis):
                if sm.kind != "tie-line":
                    continue
                coeffs = [(c1, 1.0)]
                if sm.d > 0:
                    coeffs.append((cv[t][k], 0.0))
                i = add(f"ct1[{sm.id},{t}]", coeffs, GE, row="ct1", t=t,
                        k=k)
                if sm.d > 0:
                    mark("ct1.cv", i, t, k, cv[t][k])
            for k, g in enumerate(gens):
                add(f"tmsr[{g.id},{t}]",
                    [(rS[t][k], 1.0), (w[t][k], -g.p_max), (P[t][k], 1.0)],
                    LE)
                add(f"tmor[{g.id},{t}]",
                    [(rO[t][k], 1.0), (w[t][k], g.p_max)], LE, g.p_max)
            a_tmr = res.alpha_sys_tmr
            for b in net.bubbles:
                ks = [k for k, g in enumerate(gens) if g.bubble == b]
                if res.alpha_tmsr.get(b, 0.0) > 0:
                    add(f"tmsr_n[{b},{t}]",
                        [(rS[t][k], 1.0) for k in ks] +
                        [(c1, -res.alpha_tmsr[b] * a_tmr)], GE)
                if res.alpha_tmor.get(b, 0.0) > 0:
                    add(f"tmor_n[{b},{t}]",
                        [(rS[t][k], 1.0) for k in ks] +
                        [(rO[t][k], 1.0) for k in ks] +
                        [(c1, -res.alpha_tmor[b] * a_tmr)], GE)
            all_rs = [(j, 1.0) for j in rS[t]]
            all_ro = [(j, 1.0) for j in rO[t]]
            if res.alpha_sys_tmsr > 0:
                add(f"tmsr_sys[{t}]",
                    all_rs + [(c1, -res.alpha_sys_tmsr * a_tmr)], GE)
            if res.lfr_requirement:
                add(f"tmsr_lfr[{t}]", all_rs, GE,
                    res.alpha_sys_tmsr * a_tmr * res.lfr_requirement)
            if res.alpha_sys_tmor > 0:
                add(f"tmor_sys[{t}]",
                    all_rs + all_ro + [(c1, -res.alpha_sys_tmor * a_tmr)],
                    GE)

    # Commitment-window constraints across steps.
    if not sced:
        for k, g in enumerate(gens):
            if g.kind == "must-run" or pinned[k]:
                continue
            tau_u = max(int(math.ceil(g.t_u * 60.0 / opt.step_minutes)), 1)
            tau_d = max(int(math.ceil(g.t_d * 60.0 / opt.step_minutes)), 1)
            for t in range(T):
                for tau in range(1, min(tau_u, t + 1)):
                    add(f"minup[{g.id},{t},{tau}]",
                        [(w[t][k], 1.0), (u[t - tau][k], -1.0)], GE)
                for tau in range(1, min(tau_d, t + 1)):
                    add(f"mindown[{g.id},{t},{tau}]",
                        [(w[t][k], 1.0), (v[t - tau][k], 1.0)], LE, 1.0)
            add(f"maxup[{g.id}]", [(u[t][k], 1.0) for t in range(T)], LE,
                row="maxup", k=k)

    lp = LinearProgram(columns, constraints)
    for family, t, k, i, place in marks:
        ents[family][t][k] = lp.indptr[i] + place

    def arrays(blocks):
        return {name: np.array(b, dtype=np.intp) for name, b in blocks.items()}

    cols = Columns(arrays(blk))
    cols.rows = arrays(rows)
    cols.entries = arrays(ents)
    cols.shape = _shape(scn, opt)
    cols.scn = scn
    _plan(lp, cols, scn, opt, pw, pinned, dP)
    return lp, cols


def _plan(lp: LinearProgram, cols: Columns, scn: Scenario,
          opt: LayerOptions, pw, pinned, dP) -> None:
    """Record on ``cols`` what only the scenario and the program's shape
    fix, laid out as :func:`fill_program`, :meth:`LayerInputs.values` and
    :func:`extract_schedule` read it."""
    T, G = opt.steps, len(scn.generators)
    gens, semis, loads = scn.generators, scn.semis, scn.loads
    sced = cols.sced = opt.layer == "sced"
    gamma = scn.gamma_loss
    rows, ents = cols.rows, cols.entries

    def col(values):
        return np.array(values, dtype=float)

    def idx(values):
        return np.array(values, dtype=np.intp)

    # Units: the fuel price by clock hour and each unit's constants.
    cols.fuel = col([[g.fuel_price(h) for g in gens]
                     for h in range(24)]).reshape(24, G)
    cols.pmin, cols.pmax = col([g.p_min for g in gens]), \
        col([g.p_max for g in gens])
    cols.at_min = col([c.cost_at_min for c in pw])
    # Costs that are the fuel price times a unit constant, by clock hour:
    # every segment's slope and, in the commitment layers, the cost at
    # P^min and the start and stop costs of w, u and v.
    seg_unit = idx([k for k, c in enumerate(pw) for _ in c.slopes])
    hourly = [idx([[j for segs in row for j in segs] for row in dP]
                  ).reshape(T, len(seg_unit))]
    cost = [cols.fuel[:, seg_unit] * col([s for c in pw for s in c.slopes])]
    if not sced:
        hourly += [cols["w"], cols["u"], cols["v"]]
        cost += [cols.fuel * cols.at_min,
                 cols.fuel * col([g.h_u for g in gens]),
                 cols.fuel * col([g.h_d for g in gens])]
    cols.hourly = np.concatenate(hourly, axis=1)
    cols.hourly_cost = np.concatenate(cost, axis=1)
    # The ramp rows that hold the initial output, [ramp+, ramp-][step,
    # unit] (every step's in SCED, the first step's in commitment), their
    # rates times the step, and the start/stop relaxation's sign.
    dt = opt.step_minutes
    held = slice(None) if sced else slice(0, 1)
    cols.ramp_rows = np.stack((rows["ramp+"][held], rows["ramp-"][held]))
    cols.ramp = np.stack((col([g.r_max for g in gens]) * dt,
                          col([g.r_min for g in gens]) * dt))[:, None]
    cols.relax = np.stack((cols.pmax, -cols.pmax))[:, None]
    # Commitment: units fixed on, pinned to a given status, or free, each
    # free unit with its minimum up and down times and daily starts.
    must = [g.kind == "must-run" for g in gens]
    pins = idx([k for k in range(G) if not must[k] and pinned[k]])
    cols.must_run = cols["w"][:, [k for k in range(G) if must[k]]]
    cols.pinned = (cols["w"][:, pins], pins)
    free = idx([k for k in range(G) if not must[k] and not pinned[k]])
    cols.free = (free, cols["w"][:, free],
                 col([[gens[k].t_u, gens[k].t_d, gens[k].u_max]
                      for k in free]).reshape(-1, 3).T)

    # Semis and loads: which have curtailment or shedding columns and which
    # tie lines are contingencies, with their constant factors.
    scale = col([1.0 if sm.kind == "tie-line" else 1.0 + gamma
                 for sm in semis])
    d = col([sm.d for sm in semis])
    cv = idx([k for k, sm in enumerate(semis) if sm.d > 0])
    ties = idx([k for k, sm in enumerate(semis) if rows["ct1"][0, k] >= 0])
    tie_cv = idx([k for k in ties if semis[k].d > 0])
    cl = idx([k for k, ld in enumerate(loads) if ld.d > 0])
    cols.cv = (cv, cols["cv"][:, cv], col([-sm.price for sm in semis])[cv]
               * d[cv], scale[cv], -d[cv])
    cols.ties = (ties, rows["ct1"][:, ties], tie_cv, d[tie_cv])
    cols.cl = (cl, cols["cl"][:, cl], col([loads[k].price * loads[k].d
                                           for k in cl]),
               col([(1.0 + gamma) * loads[k].d for k in cl]))
    # The window's coefficients, written in one call at cells located
    # here: the commitment layers' committed floor and cap, then the
    # curtailment, contingency and shedding entries.
    unit = [] if sced else [ents["seg.w"], ents["plim.w"]]
    cols.coef_entries = np.concatenate(
        [e.ravel() for e in unit + [ents["bal.cv"][:, cv],
                                    ents["ct1.cv"][:, tie_cv],
                                    ents["bal.cl"][:, cl]]])
    cols.coef_cells = lp.cells(cols.coef_entries)

    # The bubble balance: each bubble's right-hand side sums, in this
    # order, its pinned storage, its loads and its semis.  Terms are rows
    # of one stack (storage, loads, semis, then a row of zeros), and step i
    # adds each bubble's i-th term, the zero row once a bubble has none.
    St = len(scn.storages) if opt.pinned_storage is not None else 0
    members = [[k for k in range(St) if scn.storages[k].bubble == b] +
               [St + k for k, ld in enumerate(loads) if ld.bubble == b] +
               [St + len(loads) + k for k, sm in enumerate(semis)
                if sm.bubble == b] for b in scn.network.bubbles]
    pad = St + len(loads) + len(semis)
    depth = max((len(m) for m in members), default=0)
    cols.bal_terms = [idx([m[i] if i < len(m) else pad for m in members])
                      for i in range(depth)]
    cols.bal_rows = rows["bal"].T
    cols.semi_sign = -scale[:, None]
    cols.load_scale = 1.0 + gamma
    cols.sids = [st.id for st in scn.storages] if St else []
    # Where LayerInputs.values' rows are written: the hourly, curtailment
    # and shedding costs; the contingency rows and, without pinned storage
    # terms, the balance rows.
    cols.obj_cells = np.concatenate(
        [cols.hourly.ravel(), cols.cv[1].ravel(), cols.cl[1].ravel()])
    cols.rhs_cells = np.concatenate(
        [cols.ties[1].ravel()] + ([] if St else [cols.bal_rows.ravel()]))

    # Extraction: each Schedule field's rows, [entity, step], as one block
    # of a gather from the solution with a 0.0 appended, which the -1 of a
    # missing column reads.  Each entry names the column family the field
    # reads and the ids its rows follow.
    gids, sids = [g.id for g in gens], [st.id for st in scn.storages]
    bubbles = scn.network.bubbles
    read = [("w", "w", gids), ("u", "u", gids), ("v", "v", gids),
            ("p", "P", gids), ("tmsr", "rS", gids), ("tmor", "rO", gids),
            ("storage_gen", "Ps", sids), ("storage_pump", "Ss", sids),
            ("storage_energy", "Es", sids),
            ("storage_mode_gen", "wP", sids),
            ("storage_mode_pump", "wS", sids),
            ("curtail", "cv", [sm.id for sm in semis]),
            ("shed", "cl", [ld.bubble for ld in loads]),
            ("dr", "Pm", [m.id for m in scn.drs]),
            ("super_pos", "sgP", bubbles), ("super_neg", "sgN", bubbles),
            ("flows", "F", [f"{br.from_bubble}-{br.to_bubble}"
                            for br in scn.network.branches])]
    cols.read, at = [], 0
    for name, _, keys in read:
        cols.read.append((name, slice(at, at + len(keys)), keys))
        at += len(keys)
    cols.gather = np.concatenate([cols[fam].T for _, fam, _ in read]
                                 ).reshape(-1, T)
    cols.use_res = bool((cols["C1"] >= 0).all())
    cols.ties_d = [(k, semis[k].d) for k in ties]


def fill_program(program, scn: Scenario, fc: Forecasts, init: InitialState,
                 opt: LayerOptions) -> None:
    """Write one window's bounds, costs, right-hand sides and
    window-dependent coefficients into a program built by
    :func:`_structure` for the same scenario and shape.

    What forecasts, outages and clock hours drive comes from the window's
    row of its layer's :meth:`LayerInputs.values`, computed for every
    window of the layer at once (a Forecasts made for one window alone is
    a batch of one); the fill writes that row at cells the plan located
    and then what the state sets: the commitment floor and cap or status
    bounds, the ramp right-hand sides, the initial status and history,
    the starts budget, the storage state and the pinned storage terms of
    the balance.  Each value is what a row-by-row build computes: the
    same floating-point operations in the same order, up to exact
    identities (``a - b`` as ``a + (-b)``, ``-(a * b)`` as ``(-a) * b``,
    a product with an availability of 1), which agree bit for bit on
    every input that is not NaN.  So a refilled program is bitwise the
    program built afresh for the window.
    """
    lp, cols = program
    T = opt.steps
    inputs, win = (fc.inputs, fc.index) if fc.inputs is not None else \
        (LayerInputs.of_window(scn, fc, opt), 0)
    values = inputs.values(cols)
    lb, ub, obj, rhs = lp.lb, lp.ub, lp.obj, lp.rhs
    rows = cols.rows
    obj[cols.obj_cells] = values.obj[win]
    rhs[cols.rhs_cells] = values.rhs[win]
    lp.set_coeffs(cols.coef_cells, values.coefs[win])

    # -- generators ------------------------------------------------------
    fixed_cost = 0.0
    if cols.sced:
        wv = opt.pinned_w[:, :T].T
        # Segments only price output above the committed floor.
        for c in ((wv * values.fuel[win]) * cols.at_min).ravel().tolist():
            fixed_cost += c
        on = wv * inputs.gen_on[win]
        floor = on * cols.pmin
        lb[cols["P"]] = floor
        ub[cols["P"]] = on * cols.pmax
        rhs[rows["seg"]] = floor
        # Each unit's output, relaxed by its start and stop; a unit pinned
        # on but out for the interval ramps down as if it stopped.
        starts, stops = opt.fixed_uv
        stops = np.where(on[0] < wv[0], 1.0, stops)
        rhs[cols.ramp_rows] = (init.output + cols.ramp) + \
            cols.relax * np.stack((starts, stops))[:, None]
    else:
        # Commitment carries the cost of running at P^min (in ``hourly``);
        # the committed floor and cap scale with availability (in
        # ``coefs``).
        rhs[rows["link"][0]] = init.online
        rhs[cols.ramp_rows] = init.output + cols.ramp
        lb[cols.must_run] = ub[cols.must_run] = 1.0
        pinned, pins = cols.pinned
        if len(pins):
            lb[pinned] = ub[pinned] = opt.pinned_w[pins, :T].T
        # Free units finish the current minimum-run window of their
        # history, and start at most what is left of their daily budget.
        # A history carried minute by minute sums 1/60 h steps, so it may
        # sit a rounding error off the step grid; 1e-9 steps absorbs that.
        free, wcol, (t_u, t_d, u_max) = cols.free
        w0, hist = init.online[free], init.run_hours[free]
        steps_per_hour = 60.0 / opt.step_minutes
        step = np.arange(T)[:, None]
        up = np.where((w0 > 0.5) & (hist < t_u),
                      np.ceil((t_u - hist) * steps_per_hour - 1e-9), 0.0)
        down = np.where((w0 < 0.5) & (-hist < t_d),
                        np.ceil((t_d + hist) * steps_per_hour - 1e-9), 0.0)
        lb[wcol] = step < up
        ub[wcol] = step >= down
        ahead = 0 if opt.starts_ahead is None else opt.starts_ahead[free]
        rhs[rows["maxup"][0, free]] = np.maximum(
            u_max - init.starts_used[free] - ahead, 0.0)
    cols.fixed_cost = fixed_cost

    # -- storage: initial state, or pinned terms of the balance ------------
    if opt.pinned_storage is None:
        rhs[rows["stor"][0]] = init.energy
        rhs[rows["flip1"][0]] = 1.0 - init.mode_pump
        rhs[rows["flip2"][0]] = 1.0 - init.mode_gen
    if cols.sids:
        # Pinned storage comes first in its bubble's sum, so the balance
        # is summed for the window.
        ps, ss = opt.pinned_storage
        rhs[cols.bal_rows] = _balance(
            np.concatenate([ss[:, :T] - ps[:, :T], values.terms[win]]),
            cols.bal_terms, cols.bal_rows.shape)


def _balance(terms: np.ndarray, bal_terms: list, shape: tuple) -> np.ndarray:
    """Each bubble's balance right-hand side, [..., bubble, step]: the rows
    of ``terms`` [..., term, step] that ``bal_terms`` names, summed in its
    order; zeros of ``shape`` when no bubble has a term."""
    if not bal_terms:
        return np.zeros(shape)
    total = terms[..., bal_terms[0], :] + 0.0
    for step in bal_terms[1:]:
        total += terms[..., step, :]
    return total


def initial_from_scenario(scn: Scenario) -> InitialState:
    """Day-zero state taken from the scenario's declared unit status."""
    gens, stores = scn.generators, scn.storages
    on = [g.online or g.kind == "must-run" for g in gens]

    def arr(values, dtype=float):
        return np.array(list(values), dtype=dtype)

    return InitialState(
        online=arr(on),
        output=arr(max(g.initial_output, g.p_min) if o else 0.0
                   for g, o in zip(gens, on)),
        # No declared history: assume the unit has settled.
        run_hours=arr(g.online_hours or (g.t_u if o else -g.t_d)
                      for g, o in zip(gens, on)),
        starts_used=np.zeros(len(gens), dtype=int),
        energy=arr(st.initial_energy for st in stores),
        mode_gen=arr(st.mode_gen0 for st in stores),
        mode_pump=arr(st.mode_pump0 for st in stores))


def solve_layer(scn: Scenario, fc: Forecasts, init: InitialState,
                opt: LayerOptions, program: tuple | None = None) -> Schedule:
    """Fill and solve the layer's program.

    ``program`` is usually the ``Schedule.program`` of the layer's previous
    window: it is refilled for this window when its shape fits and its
    live simplex re-solves it in place; else a new one is built and starts
    cold.
    """
    if program is None or program[1].shape != _shape(scn, opt) or \
            program[1].scn is not scn:
        program = build_program(scn, fc, init, opt)
    else:
        fill_program(program, scn, fc, init, opt)
    lp, cols = program
    if lp.binary.any():
        sol = solve_milp(lp, basis=cols.simplex)
    else:
        sol = solve_lp(lp, basis=cols.simplex)
    if sol.status == "infeasible":
        family = "unknown"
        if sol.infeasible_rows:
            family = sol.infeasible_rows[0].split("[", 1)[0]
        raise DispatchError(
            f"{opt.layer} infeasible; first violated family: {family}")
    if sol.status != "optimal":
        raise DispatchError(f"{opt.layer} solve ended with status {sol.status}")
    cols.simplex = sol.simplex
    sched = extract_schedule(scn, fc, sol, cols, opt)
    sched.program = program
    return sched


def extract_schedule(scn: Scenario, fc: Forecasts, sol: Solution,
                     cols: Columns, opt: LayerOptions) -> Schedule:
    """The window's Schedule: every field read from the solution in one
    gather (``Columns.gather``), [entity, step], with what the window
    pins written over its rows."""
    T = opt.steps
    vals = np.concatenate((sol.x, _ZERO))[cols.gather]
    fields = {name: vals[span] for name, span, _ in cols.read}
    w = fields["w"]
    w[:] = opt.pinned_w[:, :T] if opt.layer == "sced" else w.round(9)
    if opt.pinned_storage is not None:
        fields["storage_gen"][:], fields["storage_pump"][:] = \
            (p[:, :T] for p in opt.pinned_storage)
    c1 = np.zeros(T)
    if cols.use_res:
        # The epigraph variable can sit anywhere above the true maximum, so
        # recompute the binding contingency from the committed schedule:
        # per step, the units' committed capacities and the ties' delivery
        # folded as max() folds them, the first of equals kept.
        curtail = fields["curtail"]
        for c in [*(w * cols.pmax[:, None]),
                  *((1.0 - d * curtail[k]) * fc.semi[k, :T]
                    for k, d in cols.ties_d)]:
            c1 = np.where(c > c1, c, c1)
    return Schedule(layer=opt.layer, steps=T, step_minutes=opt.step_minutes,
                    status=sol.status,
                    objective=sol.objective + cols.fixed_cost, c1=c1,
                    **fields)


# -- the three layers, each over a window it computes from its start ------

def layer_grid(timing, layer: str) -> tuple[int, int]:
    """(step minutes, steps) of one window of ``layer``."""
    if layer == "scuc":
        return 60, timing.scuc_horizon_h
    if layer == "rtuc":
        return (timing.rtuc_step_min,
                timing.rtuc_horizon_min // timing.rtuc_step_min)
    return timing.sced_step_min, 1


def outage_masks(scn: Scenario, m0, block: int, n: int):
    """Per-block availability of generators [step, gen] and semi resources
    [semi, step] over the window [m0, m0 + n*block), in scenario order: 0.0
    for a whole block if any outage of the resource overlaps it, else 1.0.
    With ``block`` 1 it is per-minute on/off status.  An outage of no
    minutes overlaps nothing.

    ``m0`` may be an array of window starts: each array then has one row
    per window in front, [window, step, gen] and [window, semi, step]."""
    lo = np.add.outer(m0, block * np.arange(n))
    gens = [g.id for g in scn.generators]
    semis = [sm.id for sm in scn.semis]
    gen_on = np.ones(lo.shape + (len(gens),))
    semi_on = np.ones(lo.shape[:-1] + (len(semis), n))
    for ev in scn.outages:
        if ev.duration <= 0:        # it would mask the block of its start
            continue
        out = (lo < ev.start + ev.duration) & (lo + block > ev.start)
        if ev.resource in gens:
            gen_on[..., gens.index(ev.resource)][out] = 0.0
        elif ev.resource in semis:
            semi_on[..., semis.index(ev.resource), :][out] = 0.0
    return gen_on, semi_on


def _window(scn: Scenario, layer: str, minute: int,
            **fields) -> LayerOptions:
    """Options for the ``layer`` window that starts at ``minute``: its step
    grid, its start and ``fields``."""
    step_min, steps = layer_grid(scn.timing, layer)
    return LayerOptions(layer=layer, steps=steps, step_minutes=step_min,
                        minute=minute, **fields)


def run_scuc(scn: Scenario, fc: Forecasts, init: InitialState,
             minute: int = 0, program: tuple | None = None) -> Schedule:
    """Day-ahead commitment of the full fleet over the hourly window that
    starts at ``minute``.  ``program`` is the program to refill (the
    previous run's ``Schedule.program``)."""
    return solve_layer(scn, fc, init, _window(scn, "scuc", minute), program)


def run_rtuc(scn: Scenario, fc: Forecasts, init: InitialState,
             day_sched: Schedule, start_minute: int,
             program: tuple | None = None) -> Schedule:
    """Same-day commitment of fast-start units over the window that starts
    at ``start_minute``.

    Other units' commitments are pinned to the day-ahead schedule and
    storage is dispatched exactly as scheduled day-ahead; only fast-start
    units carry binary decisions here.  ``init.starts_used`` counts
    fast-start cycles already used today; day-ahead starts after the window
    are charged against the budget too.  ``program`` is the program to
    refill (the previous window's ``Schedule.program``).
    """
    step_min, steps = layer_grid(scn.timing, "rtuc")
    # Day-ahead hour of each step, counted from the start of the SCUC run
    # that produced ``day_sched``; steps past its horizon hold the last hour.
    H = day_sched.steps
    offset = start_minute % (H * 60)
    hour = [min((offset + t * step_min) // 60, H - 1) for t in range(steps)]
    after = min((offset + scn.timing.rtuc_horizon_min) // 60, H)
    fast = np.array([g.kind == "fast-start" for g in scn.generators],
                    dtype=bool)
    # Day-ahead starts scheduled beyond this window still consume a
    # fast-start unit's daily start budget.
    ahead = np.where(fast, day_sched.u[:, after:].sum(axis=1).round(), 0.0)
    opt = _window(scn, "rtuc", start_minute,
                  pinned_w=np.where(fast[:, None], np.nan,
                                    day_sched.w[:, hour]),
                  pinned_storage=(day_sched.storage_gen[:, hour],
                                  day_sched.storage_pump[:, hour]),
                  starts_ahead=ahead.astype(int))
    return solve_layer(scn, fc, init, opt, program)


def run_sced(scn: Scenario, fc: Forecasts, init: InitialState,
             starts: np.ndarray | None = None,
             stops: np.ndarray | None = None,
             pinned_storage: tuple | None = None,
             minute: int = 0, program: tuple | None = None) -> Schedule:
    """Economic dispatch of the committed fleet over the interval that
    starts at ``minute``, with no commitment decisions.

    Each unit is pinned to its status in ``init.online``, and
    ``init.output`` holds the outputs the fleet is moving from;
    ``starts``/``stops`` ([gen], zeros when None) relax the ramp limits of
    units changing state.  ``pinned_storage`` is each storage unit's
    generating and pumping MW ([storage, 1] each, idle when None).
    ``program`` is the program to refill (the previous interval's
    ``Schedule.program``).
    """
    zero = np.zeros(len(scn.generators))
    idle = np.zeros((len(scn.storages), 1))
    opt = _window(scn, "sced", minute,
                  pinned_w=np.array(init.online, dtype=float)[:, None],
                  pinned_storage=pinned_storage or (idle, idle),
                  fixed_uv=(zero if starts is None else starts,
                            zero if stops is None else stops))
    return solve_layer(scn, fc, init, opt, program)
