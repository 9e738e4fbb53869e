"""Real-time economic dispatch: one 10-minute interval, no commitment."""

from __future__ import annotations

import numpy as np

from .dispatch import (Forecasts, InitialState, LayerOptions, Schedule,
                       solve_layer)
from .lp import Basis
from .scenario import Scenario


def run_sced(scn: Scenario, fc: Forecasts, init: InitialState,
             commitment: dict[str, float],
             starts: dict[str, float] | None = None,
             stops: dict[str, float] | None = None,
             pinned_storage: tuple[dict, dict] | None = None,
             minute: int = 0,
             outage_gen: dict | None = None,
             outage_semi: dict | None = None,
             basis: Basis | None = None,
             program: tuple | None = None) -> Schedule:
    """Dispatch against the current commitment for the next interval.

    ``commitment`` gives each unit's on/off status for the interval;
    ``starts``/``stops`` relax the ramp limits of units changing state.
    ``init.output`` holds the outputs the fleet is moving from.  ``basis``
    is the start and ``program`` the program to refill (the previous
    interval's ``Schedule.basis`` and ``Schedule.program``).
    """
    step_min = scn.timing.sced_step_min
    pinned = {g.id: np.array([float(commitment.get(g.id, 0.0))])
              for g in scn.generators}
    if pinned_storage is None:
        pinned_storage = ({st.id: np.zeros(1) for st in scn.storages},
                          {st.id: np.zeros(1) for st in scn.storages})
    opt = LayerOptions(
        layer="sced", steps=1, step_minutes=step_min,
        pinned_w=pinned, pinned_storage=pinned_storage,
        fixed_uv=(dict(starts or {}), dict(stops or {})),
        outage_gen=outage_gen, outage_semi=outage_semi,
        hour_of_step=[minute // 60 % 24],
    )
    return solve_layer(scn, fc, init, opt, basis, program)


def setpoints(sched: Schedule) -> dict[str, float]:
    """Target MW per generator for the interval just solved."""
    return {gid: float(p[0]) for gid, p in sched.p.items()}
