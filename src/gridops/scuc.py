"""Day-ahead hourly commitment over the full fleet."""

from __future__ import annotations

from .dispatch import (Forecasts, InitialState, LayerOptions, Schedule,
                       solve_layer)
from .lp import Basis
from .scenario import Scenario


def run_scuc(scn: Scenario, fc: Forecasts, init: InitialState,
             outage_gen: dict | None = None,
             outage_semi: dict | None = None,
             basis: Basis | None = None,
             program: tuple | None = None) -> Schedule:
    """Solve the day-ahead commitment; forecasts are hourly blocks.
    ``basis`` is the start and ``program`` the program to refill (the
    previous run's ``Schedule.basis`` and ``Schedule.program``)."""
    steps = scn.timing.scuc_horizon_h
    opt = LayerOptions(
        layer="scuc", steps=steps, step_minutes=60,
        outage_gen=outage_gen, outage_semi=outage_semi,
        hour_of_step=list(range(steps)),
    )
    return solve_layer(scn, fc, init, opt, basis, program)


def commitment_for_minute(sched: Schedule, minute: int) -> dict[str, float]:
    """Commitment status per unit at an absolute minute of the day."""
    step = min(minute // sched.step_minutes, sched.steps - 1)
    return {gid: float(w[step]) for gid, w in sched.w.items()}
