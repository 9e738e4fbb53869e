"""What several test modules share: programs listed item by item, reading
a Schedule by id, and the perturbed mini3 scenarios the cascade's property
tests draw."""

from __future__ import annotations

import numpy as np
from hypothesis import strategies as st

from gridops.lp import INF, LinearProgram
from gridops.profiles import Profile
from gridops.scenario import (Branch, DemandResponse, Generator, Interface,
                              Outage, SemiDispatchable, Storage, Timing,
                              ZonalNetwork, load_scenario)

MINUTES = 120


class Builder:
    """Columns and rows listed one at a time, for a program made in one
    ``LinearProgram(cols, rows)`` call.  ``var`` and ``constr`` return the
    index of the column or row they list."""

    def __init__(self):
        self.cols, self.rows = [], []

    def var(self, name: str, lb=0.0, ub=INF, obj=0.0, binary=False) -> int:
        self.cols.append((name, lb, ub, obj, binary))
        return len(self.cols) - 1

    def constr(self, name: str, coeffs, sense: str, rhs) -> int:
        self.rows.append((name, coeffs, sense, rhs))
        return len(self.rows) - 1

    def program(self) -> LinearProgram:
        return LinearProgram(self.cols, self.rows)


def row(sched, name: str, key: str):
    """The row of Schedule field ``name`` that belongs to entity ``key``,
    as a view: the ids each field's rows follow are listed once, in the
    plan of the program that made the schedule (``Columns.read``)."""
    keys = {field: ids for field, _, ids in sched.program[1].read}[name]
    return getattr(sched, name)[keys.index(key)]


# -- perturbed mini3 scenarios ---------------------------------------------

# Short commitment horizons keep each example fast; the first keeps the
# fixture's 15-minute RTUC steps over 10-minute SCED steps, so commitment
# can change in the middle of a dispatch interval.
TIMINGS = (
    Timing(scuc_horizon_h=3, rtuc_step_min=15, rtuc_horizon_min=60,
           rtuc_period_min=60, sced_step_min=10),
    Timing(scuc_horizon_h=2, rtuc_step_min=5, rtuc_horizon_min=30,
           rtuc_period_min=30, sced_step_min=5),
    Timing(scuc_horizon_h=1, rtuc_step_min=10, rtuc_horizon_min=40,
           rtuc_period_min=20, sced_step_min=5),
)


@st.composite
def perturbations(draw):
    """What to change in the fixture: each draw a plain value, so a
    scenario can be rebuilt from it as often as needed."""
    return dict(
        timing=draw(st.integers(0, len(TIMINGS) - 1)),
        eps=draw(st.sampled_from(["zero", "default", "large"])),
        reg_units=draw(st.sampled_from([1, 3, 8])),
        storage=draw(st.booleans()),
        dr=draw(st.booleans()),
        shed=draw(st.sampled_from([0.0, 0.2])),
        sun_d=draw(st.sampled_from([1.0, 0.5])),
        tie=draw(st.booleans()),
        mesh=draw(st.booleans()),
        pair=draw(st.booleans()),
        gamma=draw(st.sampled_from([0.0, 0.02])),
        outages=draw(st.lists(
            st.tuples(st.sampled_from(["gas2", "fast1", "sun1", "aux1"]),
                      st.integers(0, MINUTES - 5), st.integers(0, 60)),
            max_size=2)),
        seed=draw(st.integers(0, 1000)),
        # Minimum up and down times (hours) and a daily start budget for
        # fast1 and, when drawn, a mid-merit unit whose fuel price
        # alternates by the hour, so the day-ahead layer cycles it.
        t_u=draw(st.integers(1, 3)),
        t_d=draw(st.integers(1, 3)),
        u_max=draw(st.sampled_from([1, 2, 6])),
        mid=draw(st.booleans()),
    )


def perturbed(path: str, p: dict):
    """The mini3 scenario at ``path`` with the perturbation ``p`` applied."""
    scn = load_scenario(path)
    n = len(scn.loads[0].profile)
    scn.timing = TIMINGS[p["timing"]]
    scn.gamma_loss = p["gamma"]
    for res in scn.loads + scn.semis:
        if p["eps"] == "default":
            res.eps_da = res.eps_st = res.eps_rt = None
        elif p["eps"] == "large":
            res.eps_da, res.eps_st, res.eps_rt = 0.1, 0.05, 0.02
    # Four small flexible units, so up to eight can regulate.
    for k, bubble in enumerate(("n1", "n2", "n3", "n2")):
        scn.generators.append(Generator(
            id=f"aux{k + 1}", bubble=bubble, kind="must-run", p_min=0.0,
            p_max=25.0, r_min=-5.0, r_max=5.0, h_l=20.0 + k, online=True,
            initial_output=5.0, online_hours=48))
    for k, g in enumerate(scn.generators):
        g.reg_capacity = 5.0 + 3.0 * k if k < p["reg_units"] else 0.0
    fast = next(g for g in scn.generators if g.id == "fast1")
    fast.t_u, fast.t_d, fast.u_max = p["t_u"], p["t_d"], p["u_max"]
    if p["mid"]:
        scn.generators.append(Generator(
            id="mid1", bubble="n1", p_min=20.0, p_max=60.0, r_min=-10.0,
            r_max=10.0, h_f=10.0, h_l=9.0, h_u=5.0, t_u=p["t_u"],
            t_d=p["t_d"], u_max=p["u_max"], c_f=np.tile([1.0, 6.0], 12)))
    if p["storage"]:
        scn.storages.append(Storage(
            id="pond", bubble="n2", p_min=5.0, p_max=30.0, s_min=5.0,
            s_max=30.0, e_min=10.0, e_max=120.0, eta=0.8,
            initial_energy=60.0))
    if p["dr"]:
        scn.drs.append(DemandResponse(id="flex", bubble="n3", p_min=0.0,
                                      p_max=15.0, cost=60.0))
    scn.loads[1].d, scn.loads[1].price = p["shed"], 100.0
    scn.semis[0].d = p["sun_d"]
    if p["tie"]:
        scn.semis.append(SemiDispatchable(
            id="tie", bubble="n1", kind="tie-line", d=0.5, price=20.0,
            eps_da=0.02, eps_st=0.01, eps_rt=0.01,
            profile=Profile(20.0 + 5.0 * np.sin(np.arange(n) / 37.0))))
    net: ZonalNetwork = scn.network
    if p["mesh"]:
        net.branches.append(Branch("n1", "n3", weight=2.0))
    if p["pair"]:
        net.interfaces.append(Interface(
            "pair", [("n1", "n2", 1.0), ("n3", "n2", -1.0)], limit=400.0))
    scn.outages = [Outage(resource=r, start=s, duration=d)
                   for r, s, d in p["outages"]]
    return scn
