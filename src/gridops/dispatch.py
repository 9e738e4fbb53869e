"""The three scheduling layers and the optimization program they share.

The day-ahead commitment (:func:`run_scuc`), same-day fast-start
commitment (:func:`run_rtuc`) and real-time dispatch (:func:`run_sced`)
share one constraint family: bubble balance against a DC flow,
interface limits, unit box bounds with outage masks, ramp limits with
start/stop relaxation, storage energy accounting, commitment logic, and
contingency-based reserve procurement.  This module builds that program,
parameterized by layer, and extracts a uniform Schedule.  Each column
or row family is built as one block over [step, entity], and the column
blocks are kept (``Columns``), so extraction indexes the solution directly.

Every window of a layer has the same structure: the same columns, rows,
names, binaries and coefficient pattern.  So the structure is built once
(``_structure``) and each window, the first included, only fills in its
values (``fill_program``): bounds, costs, right-hand sides and the few
coefficients that follow forecasts and outages.  A simulation keeps one
program per layer and refills it window after window; the program keeps
the live simplex of its last optimal solve, which re-solves the next
window in place.

The structure build also lays out the program's plan: every value
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

    What a window fills in is indexed the same way: ``rows`` maps each row
    family to its row indices, and ``entries`` the window-dependent
    coefficients (``"bal.cl"`` is the ``cl`` entry of each ``bal`` row) to
    indices into the program's entries.  ``shape`` and ``scn`` are what
    the structure was built for (:func:`_shape`).

    The rest is the program's plan, the scenario's constants laid out
    against those indices: ``hourly`` holds every cost column that is a
    fuel price times a unit constant (the segments of each unit, and w, u
    and v in commitment) and ``hourly_cost`` those costs for each clock
    hour; ``fuel``, ``pmin``, ``pmax``, ``ramp`` and the like hold unit
    constants; ``bal_terms`` lists each bubble's balance terms in summation
    order; ``obj_cells``, ``rhs_cells`` and ``coef_cells`` (located once,
    see ``LinearProgram.cells``) are where a window's forecast-driven
    values (:meth:`LayerInputs.values`) go; ``gather`` reads every Schedule
    field from the solution at once and ``read`` lists each field's rows of
    it with the ids they follow.  Like the coefficients baked into the
    structure, the plan belongs to the scenario object ``scn``: a program
    is refilled only for that same object (``scn is``), so a scenario
    edited in place needs a new program.
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
    """Columns, rows and every coefficient that no window changes, and the
    program's plan (see :class:`Columns`).

    Bounds, costs and right-hand sides that depend on the window are left
    at placeholders, as are the window-dependent coefficients; the
    indices :func:`fill_program` writes them at are recorded in the
    returned ``Columns``.  Each family of columns or rows is one block
    over [step, entity], made by array arithmetic and placed in the
    program by its key (:class:`_Items`).
    """
    T, dt = opt.steps, opt.step_minutes
    net, res, gamma = scn.network, scn.reserves, scn.gamma_loss
    gens, semis, loads, drs = scn.generators, scn.semis, scn.loads, scn.drs
    stores, bubbles = scn.storages, net.bubbles
    sced = opt.layer == "sced"
    commit = not sced
    use_res = commit and reserves_active(scn)
    storage_vars = opt.pinned_storage is None
    shape = _shape(scn, opt)
    pw = [linearize_cost(g.p_min, g.p_max, 1.0, g.h_f, g.h_l, g.h_q,
                         N_SEGMENTS) for g in gens]
    t = np.arange(T)[:, None]                      # against [step, entity]
    kg, ks, kb, kn, kd = (np.arange(len(x)) for x in (gens, stores, bubbles,
                                                      semis, loads))
    gid, sid, nid = (_of(x, "id", str) for x in (gens, stores, semis))
    bub = np.array(bubbles, dtype=str)
    pmax, semi_d, load_d = _of(gens, "p_max"), _of(semis, "d"), \
        _of(loads, "d")
    must = _of(gens, "kind", str) == "must-run"
    free = ~must & ~np.array(shape[3], dtype=bool)
    ties = _of(semis, "kind", str) == "tie-line"
    nseg = np.array([len(p.widths) for p in pw], dtype=int)
    seg = np.arange(nseg.max(initial=0))
    has_seg = seg < nseg[:, None]
    widths = np.zeros(has_seg.shape)
    widths[has_seg] = np.concatenate([np.empty(0)] + [p.widths for p in pw])

    # -- columns by step: units, storage, curtailment, shedding, demand
    # response, penalty sources, branch flows and the contingency ---------
    columns = _Items(lb=0.0, ub=INF, obj=0.0, binary=False)
    for place, fam in enumerate("wuv"):
        columns.family(fam, (t, 0, kg, place), (gid, t), commit, ub=1.0,
                       binary=free & (fam == "w"))
    columns.family("P", (t, 0, kg, 3), (gid, t), ub=INF if sced else pmax)
    columns.family("dP", (t[..., None], 0, kg[:, None], 4, seg),
                   (gid[:, None], t[..., None], seg), has_seg, ub=widths)
    for place, (fam, span) in enumerate((("rS", res.t_10),
                                         ("rO", res.t_30))):
        cap = _of(gens, "r_max") * span     # floored as max(cap, 0.0) is
        columns.family(fam, (t, 0, kg, 5 + place), (gid, t), use_res,
                       ub=np.where(0.0 > cap, 0.0, cap))
    for place, (fam, lb, ub) in enumerate((
            ("wP", 0.0, 1.0), ("wS", 0.0, 1.0),
            ("Ps", 0.0, _of(stores, "p_max")),
            ("Ss", 0.0, _of(stores, "s_max")),
            ("Es", _of(stores, "e_min"), _of(stores, "e_max")))):
        columns.family(fam, (t, 1, ks, place), (sid, t), storage_vars,
                       lb=lb, ub=ub, binary=fam[0] == "w")
    columns.family("cv", (t, 2, kn), (nid, t), semi_d > 0, ub=1.0)
    columns.family("cl", (t, 3, kd), (_of(loads, "bubble", str), t),
                   load_d > 0, ub=1.0)
    columns.family("Pm", (t, 4, np.arange(len(drs))),
                   (_of(drs, "id", str), t), lb=_of(drs, "p_min"),
                   ub=_of(drs, "p_max"), obj=_of(drs, "cost"))
    for place, fam in enumerate(("sgP", "sgN")):
        columns.family(fam, (t, 5, kb, place), (bub, t),
                       obj=scn.penalty_price())
    kl = np.arange(len(net.branches))
    columns.family("F", (t, 6, kl), (kl, t), lb=-INF)
    columns.family("C1", (t, 7, 0), (t,), use_res)
    col_fields = columns.order()[:5]
    c = columns.blocks
    w, u, v, P, rS, rO, C1, wP, wS, Ps, Ss, Es = (c[f] for f in (
        "w", "u", "v", "P", "rS", "rO", "C1", "wP", "wS", "Ps", "Ss", "Es"))

    def prev(block):
        """The block a step back: -1, no entry, at the first step."""
        return np.vstack([np.full_like(block[:1], -1), block[:-1]])

    def within(block, owners):
        """[step, bubble, entity]: the columns of each bubble's own."""
        return np.where(np.asarray(owners, dtype=str) == bub[:, None],
                        block[:, None, :], -1)

    # -- rows by step: balance, interfaces, units, storage and reserves;
    # then each unit's across steps -----------------------------------------
    rows = _Items(sense=None, rhs=0.0)
    fb, tb = (np.array([getattr(br, f) for br in net.branches], dtype=str)
              for f in ("from_bubble", "to_bubble"))
    rows.family("bal", (t, 0, kb), (bub, t), sense=EQ, terms=[
        (within(P, _of(gens, "bubble", str)), 1.0),
        (within(np.stack([Ps, Ss], -1).reshape(T, 2 * len(stores)),
                np.repeat(_of(stores, "bubble", str), 2)),
         np.tile([1.0, -1.0], len(stores))),
        (c["sgP"], 1.0), (c["sgN"], -1.0),
        (within(c["Pm"], _of(drs, "bubble", str)), 1.0),
        (within(c["cl"], _of(loads, "bubble", str)), 0.0),
        (within(c["cv"], _of(semis, "bubble", str)), 0.0),
        (np.where((fb == bub[:, None]) | (tb == bub[:, None]),
                  c["F"][:, None, :], -1),
         np.where(fb == bub[:, None], -1.0, 1.0))])
    itf = [net.interface_terms(i) for i in net.interfaces]
    depth = max(map(len, itf), default=0)
    pairs = np.array([terms + [(-1, 0.0)] * (depth - len(terms))
                      for terms in itf]).reshape(len(itf), depth, 2)
    branch, coef = pairs[..., 0].astype(np.intp), pairs[..., 1]
    limit = _of(net.interfaces, "limit")
    for place, (fam, sense, rhs) in enumerate((("int+", LE, limit),
                                               ("int-", GE, -limit))):
        rows.family(fam, (t, 1, np.arange(len(itf)), place),
                    (_of(net.interfaces, "name", str), t), sense=sense,
                    rhs=rhs, terms=[(np.where(branch >= 0, c["F"][:, branch],
                                              -1), coef)])

    # Units: P = w*P^min + filled segments (the committed floor, and the
    # cap below, scale with availability, so a forced outage of a pinned
    # unit stays feasible); the w-u-v linkage; the ramps, relaxed by
    # starts and stops in commitment, whose first step holds the initial
    # output (SCED's one step has no step before it).
    rate = np.stack([_of(gens, "r_max"), _of(gens, "r_min")]) * dt
    ramp = [0.0, 0.0] if sced else 0.0 + rate
    for place, (fam, present, sense, rhs, terms) in enumerate((
            ("seg", True, EQ, 0.0, [(P, 1.0), (w, 0.0), (c["dP"], -1.0)]),
            ("plim", commit, LE, 0.0, [(P, 1.0), (w, 0.0)]),
            ("link", commit, EQ, 0.0,
             [(w, 1.0), (prev(w), -1.0), (u, -1.0), (v, 1.0)]),
            ("uv", commit, LE, 1.0, [(u, 1.0), (v, 1.0)]),
            ("ramp+", True, LE, ramp[0], [(P, 1.0), (prev(P), -1.0),
                                          (u, -pmax)]),
            ("ramp-", True, GE, ramp[1], [(P, 1.0), (prev(P), -1.0),
                                          (v, pmax)]))):
        rows.family(fam, (t, 2, kg, place), (gid, t), present, sense=sense,
                    rhs=rhs, terms=terms)

    # Storage: output limits by mode, one mode at a time, energy, and no
    # pump-to-generate flip within one step.
    dt_h, later = dt / 60.0, np.where(t > 0, 1.0, 0.0)
    for place, (fam, sense, rhs, terms) in enumerate((
            ("pslim+", LE, 0.0, [(Ps, 1.0), (wP, -_of(stores, "p_max"))]),
            ("pslim-", GE, 0.0, [(Ps, 1.0), (wP, -_of(stores, "p_min"))]),
            ("sslim+", LE, 0.0, [(Ss, 1.0), (wS, -_of(stores, "s_max"))]),
            ("sslim-", GE, 0.0, [(Ss, 1.0), (wS, -_of(stores, "s_min"))]),
            ("mode", LE, 1.0, [(wP, 1.0), (wS, 1.0)]),
            ("stor", EQ, 0.0, [(Es, 1.0), (prev(Es), -1.0),
                               (Ss, -_of(stores, "eta") * dt_h), (Ps, dt_h)]),
            ("flip1", LE, later, [(wP, 1.0), (prev(wS), 1.0)]),
            ("flip2", LE, later, [(wS, 1.0), (prev(wP), 1.0)]))):
        rows.family(fam, (t, 3, ks, place), (sid, t), storage_vars,
                    sense=sense, rhs=rhs, terms=terms)

    # Reserves: the largest contingency C1 over committed capacity and
    # tie-line delivery, and what each unit, bubble and the system hold
    # against it.
    a_tmr = res.alpha_sys_tmr
    rows.family("cg1", (t, 4, kg), (gid, t), use_res, sense=GE,
                terms=[(C1, 1.0), (w, -pmax)])
    rows.family("ct1", (t, 5, kn), (nid, t), use_res & ties, sense=GE,
                terms=[(C1, 1.0), (c["cv"], 0.0)])
    rows.family("tmsr", (t, 6, kg, 0), (gid, t), use_res, sense=LE,
                terms=[(rS, 1.0), (w, -pmax), (P, 1.0)])
    rows.family("tmor", (t, 6, kg, 1), (gid, t), use_res, sense=LE,
                rhs=pmax, terms=[(rO, 1.0), (w, pmax)])
    gen_bub = _of(gens, "bubble", str)
    for place, (fam, alpha, held) in enumerate((
            ("tmsr_n", res.alpha_tmsr, [rS]),
            ("tmor_n", res.alpha_tmor, [rS, rO]))):
        alpha = np.array([alpha.get(b, 0.0) for b in bubbles], dtype=float)
        rows.family(fam, (t, 7, kb, place), (bub, t), use_res & (alpha > 0),
                    sense=GE, terms=[(within(r, gen_bub), 1.0) for r in held]
                    + [(C1, -alpha * a_tmr)])
    rs, ro, lfr = rS[:, None], rO[:, None], res.lfr_requirement
    rows.family("tmsr_sys", (t, 8, 0, 0), (t,),
                use_res and res.alpha_sys_tmsr > 0, sense=GE,
                terms=[(rs, 1.0), (C1, -res.alpha_sys_tmsr * a_tmr)])
    rows.family("tmsr_lfr", (t, 8, 0, 1), (t,), use_res and bool(lfr),
                sense=GE, rhs=res.alpha_sys_tmsr * a_tmr * (lfr or 0),
                terms=[(rs, 1.0)])
    rows.family("tmor_sys", (t, 8, 0, 2), (t,),
                use_res and res.alpha_sys_tmor > 0, sense=GE,
                terms=[(rs, 1.0), (ro, 1.0),
                       (C1, -res.alpha_sys_tmor * a_tmr)])

    # Each free unit's minimum up and down times, by step and lag, then
    # its daily starts: keyed after the last step (T), unit by unit.
    tau = np.arange(1, T)
    lag = t - tau                                   # [step, lag]
    least = np.ceil(np.stack([_of(gens, "t_u"), _of(gens, "t_d")]) * 60.0 /
                    dt)
    for place, (fam, other, coef, sense, rhs) in enumerate((
            ("minup", u, -1.0, GE, 0.0), ("mindown", v, 1.0, LE, 1.0))):
        rows.family(fam, (T, kg[:, None, None], t, place, tau),
                    (gid[:, None, None], t, tau),
                    commit & free[:, None, None] & (lag >= 0) &
                    (tau < np.maximum(least[place], 1)[:, None, None]),
                    sense=sense, rhs=rhs, terms=[
                        (w.T[:, :, None], 1.0),
                        (np.where(lag >= 0, other.T[:, np.maximum(lag, 0)],
                                  -1), coef)])
    rows.family("maxup", (T, kg[None], T), (gid[None],), commit & free,
                sense=LE, terms=[(u.T[None], 1.0)])
    lp = LinearProgram(arrays=(*col_fields, *rows.order()))

    # -- the plan ---------------------------------------------------------
    r, at = rows.blocks, rows.places
    dP = c.pop("dP")[:, has_seg]
    plan = Columns(c)
    plan.rows, plan.shape, plan.scn, plan.sced = r, shape, scn, sced

    # The entries a window writes, each at its place in its row; a load's
    # or semi's entry is in the balance row of its own bubble only.
    def entry(block, place):
        return np.where(place >= 0, lp.indptr[block] + place, -1)

    ents = plan.entries = {
        "bal.cl": entry(r["bal"][..., None], at["bal"][5]).max(axis=1),
        "bal.cv": entry(r["bal"][..., None], at["bal"][6]).max(axis=1),
        "seg.w": entry(r["seg"], at["seg"][1][..., 0]),
        "plim.w": entry(r["plim"], at["plim"][1][..., 0]),
        "ct1.cv": entry(r["ct1"], at["ct1"][1][..., 0])}

    # Units: the fuel price by clock hour and each unit's constants.
    plan.fuel = np.array([[g.fuel_price(h) for g in gens]
                          for h in range(24)]).reshape(24, len(gens))
    plan.pmin, plan.pmax, plan.at_min = _of(gens, "p_min"), pmax, \
        _of(pw, "cost_at_min")
    # Costs that are the fuel price times a unit constant, by clock hour:
    # every segment's slope and, in the commitment layers, the cost at
    # P^min and the start and stop costs of w, u and v.
    hourly = [dP]
    cost = [plan.fuel[:, np.repeat(kg, nseg)] *
            np.concatenate([np.empty(0)] + [p.slopes for p in pw])]
    if commit:
        hourly += [w, u, v]
        cost += list(plan.fuel * np.stack([plan.at_min, _of(gens, "h_u"),
                                           _of(gens, "h_d")])[:, None])
    plan.hourly = np.concatenate(hourly, axis=1)
    plan.hourly_cost = np.concatenate(cost, axis=1)
    # The ramp rows of the first step, which hold the initial output,
    # [ramp+, ramp-][step, unit], their rates times the step, and the
    # start/stop relaxation's sign.
    plan.ramp_rows = np.stack((r["ramp+"][:1], r["ramp-"][:1]))
    plan.ramp = rate[:, None]
    plan.relax = np.stack((pmax, -pmax))[:, None]
    # Commitment: units fixed on, pinned to a given status, or free, each
    # free unit with its minimum up and down times and daily starts.
    pins = np.flatnonzero(~must & ~free)
    plan.must_run = w[:, must]
    plan.pinned = (w[:, pins], pins)
    kf = np.flatnonzero(free)
    plan.free = (kf, w[:, kf], np.stack([_of(gens, f) for f in (
        "t_u", "t_d", "u_max")])[:, kf])

    # Semis and loads: which have curtailment or shedding columns and which
    # tie lines are contingencies, with their constant factors.
    scale = np.where(ties, 1.0, 1.0 + gamma)
    cv, cl = np.flatnonzero(semi_d > 0), np.flatnonzero(load_d > 0)
    kt = np.flatnonzero(use_res & ties)
    tie_cv = kt[semi_d[kt] > 0]
    plan.cv = (cv, c["cv"][:, cv], -_of(semis, "price")[cv] * semi_d[cv],
               scale[cv], -semi_d[cv])
    plan.ties = (kt, r["ct1"][:, kt], tie_cv, semi_d[tie_cv])
    plan.cl = (cl, c["cl"][:, cl], (_of(loads, "price") * load_d)[cl],
               ((1.0 + gamma) * load_d)[cl])
    # The window's coefficients, written in one call at cells located
    # here: the commitment layers' committed floor and cap, then the
    # curtailment, contingency and shedding entries.
    unit = [] if sced else [ents["seg.w"], ents["plim.w"]]
    plan.coef_entries = np.concatenate(
        [e.ravel() for e in unit + [ents["bal.cv"][:, cv],
                                    ents["ct1.cv"][:, tie_cv],
                                    ents["bal.cl"][:, cl]]])
    plan.coef_cells = lp.cells(plan.coef_entries)

    # The bubble balance: each bubble's right-hand side sums, in this
    # order, its pinned storage, its loads and its semis.  Terms are rows
    # of one stack (storage, loads, semis, then a row of zeros), and step i
    # adds each bubble's i-th term, the zero row once a bubble has none.
    St = 0 if storage_vars else len(stores)
    owner = np.concatenate([_of(x, "bubble", str) for x in (
        stores[:St], loads, semis)])
    members = [np.flatnonzero(owner == b) for b in bub]
    plan.bal_terms = [
        np.array([m[i] if i < len(m) else len(owner) for m in members],
                 np.intp) for i in range(max(map(len, members), default=0))]
    plan.bal_rows = r["bal"].T
    plan.semi_sign, plan.load_scale = -scale[:, None], 1.0 + gamma
    plan.sids = [st.id for st in stores] if St else []
    # Where LayerInputs.values' rows are written: the hourly, curtailment
    # and shedding costs; the contingency rows and, without pinned storage
    # terms, the balance rows.
    plan.obj_cells = np.concatenate(
        [plan.hourly.ravel(), plan.cv[1].ravel(), plan.cl[1].ravel()])
    plan.rhs_cells = np.concatenate(
        [plan.ties[1].ravel()] + ([] if St else [plan.bal_rows.ravel()]))

    # Extraction: each Schedule field's rows, [entity, step], as one block
    # of a gather from the solution with a 0.0 appended, which the -1 of a
    # missing column reads.  Each entry names the column family the field
    # reads and the ids its rows follow.
    gids, sids = [g.id for g in gens], [st.id for st in stores]
    read = [("w", "w", gids), ("u", "u", gids), ("v", "v", gids),
            ("p", "P", gids), ("tmsr", "rS", gids), ("tmor", "rO", gids),
            ("storage_gen", "Ps", sids), ("storage_pump", "Ss", sids),
            ("storage_energy", "Es", sids),
            ("storage_mode_gen", "wP", sids),
            ("storage_mode_pump", "wS", sids),
            ("curtail", "cv", [sm.id for sm in semis]),
            ("shed", "cl", [ld.bubble for ld in loads]),
            ("dr", "Pm", [m.id for m in drs]),
            ("super_pos", "sgP", bubbles), ("super_neg", "sgN", bubbles),
            ("flows", "F", [f"{br.from_bubble}-{br.to_bubble}"
                            for br in net.branches])]
    ends = np.cumsum([0] + [len(keys) for _, _, keys in read]).tolist()
    plan.read = [(name, slice(a, b), keys)
                 for (name, _, keys), a, b in zip(read, ends, ends[1:])]
    plan.gather = np.concatenate([plan[fam].T for _, fam, _ in read]
                                 ).reshape(-1, T)
    plan.use_res, plan.ties_d = use_res, [(k, semis[k].d) for k in kt]
    return lp, plan


class _Items:
    """The columns or the rows of a program, added family by family.

    A family's items lie on a grid, [step, entity] for most, and its key,
    one array per level over the grid, is (step, group, entity, place,
    sub), zeros filling levels left out: the program lists items by step,
    then group, entity, place and sub.  ``present`` leaves items out.  A
    row family's ``terms`` are (columns, coefficients) pairs in row order,
    the columns over the grid (one entry per row) or over the grid and a
    last axis of entries; a column of -1 is no entry.  Fields not given
    take ``defaults``.  ``blocks`` maps each family to its grid of item
    indices (-1 where absent) once :meth:`order` has run, and ``places`` a
    row family to where each term's entries sit in their rows, [grid...,
    entries] (-1 where there is none).
    """

    def __init__(self, **defaults):
        self.defaults, self.families = defaults, []
        self.blocks, self.places = {}, {}

    def family(self, fam: str, key: tuple, label: tuple, present=True,
               terms=(), **fields) -> None:
        """Add the items of ``fam``, each named ``fam[label,...]``."""
        shape = np.broadcast(*key).shape
        present = np.full(shape, present, bool)
        one = [c.ndim == len(shape) for c, _ in terms]   # one entry per row
        ends = np.cumsum([0] + [1 if o else c.shape[-1]
                                for o, (c, _) in zip(one, terms)]).tolist()
        self.blocks[fam] = np.full(shape, -1, np.intp)
        if not present.any():
            self.places[fam] = [np.full(shape + (b - a,), -1, np.intp)
                                for a, b in zip(ends, ends[1:])]
            return
        name = np.asarray(fam + "[")
        for i, part in enumerate(label):
            part = np.full(shape, np.asarray(part).astype(str))[present]
            name = np.char.add(np.char.add(name, "," if i else ""), part)
        fields = {"name": np.char.add(name, "]"),
                  **{f: np.full(shape, x)[present]
                     for f, x in {**self.defaults, **fields}.items()}}
        cols = np.empty(shape + (ends[-1],), np.intp)
        vals = np.empty(shape + (ends[-1],))
        for o, (c, v), a, b in zip(one, terms, ends, ends[1:]):
            cols[..., a:b] = c[..., None] if o else c
            vals[..., a:b] = np.asarray(v)[..., None] if o else v
        live = (cols >= 0) & present[..., None]
        place = np.where(live, np.cumsum(live, axis=-1) - 1, -1)
        self.places[fam] = [place[..., a:b] for a, b in zip(ends, ends[1:])]
        self.families.append((
            fam, present,
            np.stack([np.full(shape, k, int)[present]
                      for k in (*key, *(0,) * (5 - len(key)))]),
            fields, cols[live], vals[live], live.sum(axis=-1)[present]))

    def order(self) -> list:
        """The items in program order: names, each field in ``defaults``
        order (strings as lists), then ``indptr``, ``entry_col`` and
        ``entry_val``; fills ``blocks``."""
        fams = self.families
        order = np.lexsort(np.concatenate([f[2] for f in fams], axis=1)[::-1])
        rank = np.empty_like(order)
        rank[order] = np.arange(order.size)
        ends = np.cumsum([np.count_nonzero(f[1]) for f in fams])
        for (fam, present, *_), part in zip(fams, np.split(rank, ends[:-1])):
            self.blocks[fam][present] = part
        fields = [np.concatenate([x[3][f] for x in fams])[order]
                  for f in ("name", *self.defaults)]
        counts = np.concatenate([x[6] for x in fams])
        by_row = np.argsort(np.repeat(rank, counts), kind="stable")
        return [a.tolist() if a.dtype.kind == "U" else a for a in fields] + [
            np.concatenate([[0], np.cumsum(counts[order])]),
            np.concatenate([x[4] for x in fams])[by_row],
            np.concatenate([x[5] for x in fams])[by_row]]


def _of(items, attr: str, dtype=float) -> np.ndarray:
    """Attribute ``attr`` of each of ``items``, as one array."""
    return np.array([getattr(x, attr) for x in items], dtype=dtype)


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
    return InitialState(
        online=np.array(on, dtype=float),
        output=np.array([max(g.initial_output, g.p_min) if o else 0.0
                         for g, o in zip(gens, on)], dtype=float),
        # No declared history: assume the unit has settled.
        run_hours=np.array([g.online_hours or (g.t_u if o else -g.t_d)
                            for g, o in zip(gens, on)], dtype=float),
        starts_used=np.zeros(len(gens), dtype=int),
        energy=_of(stores, "initial_energy"),
        mode_gen=_of(stores, "mode_gen0"),
        mode_pump=_of(stores, "mode_pump0"))


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
    fast = _of(scn.generators, "kind", str) == "fast-start"
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
