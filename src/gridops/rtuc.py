"""Same-day commitment of fast-start units on 15-minute intervals.

Non-fast-start commitments are pinned to the day-ahead schedule and storage
is dispatched exactly as scheduled day-ahead; only fast-start units carry
binary decisions here.
"""

from __future__ import annotations

import numpy as np

from .dispatch import (Forecasts, InitialState, LayerOptions, Schedule,
                       solve_layer)
from .lp import Basis
from .scenario import Scenario


def run_rtuc(scn: Scenario, fc: Forecasts, init: InitialState,
             day_sched: Schedule, start_minute: int,
             outage_gen: dict | None = None,
             outage_semi: dict | None = None,
             basis: Basis | None = None,
             program: tuple | None = None) -> Schedule:
    """Solve one same-day commitment window starting at ``start_minute``.

    ``basis`` is the start and ``program`` the program to refill (the
    previous window's ``Schedule.basis`` and ``Schedule.program``).

    ``init.starts_used`` counts fast-start cycles already used today;
    day-ahead starts after the window are charged against the budget too.
    """
    step_min = scn.timing.rtuc_step_min
    steps = scn.timing.rtuc_horizon_min // step_min
    # Day-ahead hour of each step, counted from the start of the SCUC run
    # that produced ``day_sched``; steps past its horizon hold the last hour.
    H = day_sched.steps
    offset = start_minute % (H * 60)
    hour = [min((offset + t * step_min) // 60, H - 1) for t in range(steps)]
    after = min((offset + scn.timing.rtuc_horizon_min) // 60, H)
    pinned = {}
    ahead = dict(init.starts_ahead)
    for g in scn.generators:
        if g.kind == "fast-start":
            # Day-ahead starts scheduled beyond this window still consume
            # the unit's daily start budget.
            u = day_sched.u.get(g.id)
            if u is not None:
                ahead.setdefault(g.id, 0)
                ahead[g.id] += int(round(float(np.sum(u[after:]))))
            continue
        pinned[g.id] = day_sched.w[g.id][hour]
    init = InitialState(online=init.online, output=init.output,
                        run_hours=init.run_hours,
                        starts_used=init.starts_used, starts_ahead=ahead,
                        energy=init.energy, mode_gen=init.mode_gen,
                        mode_pump=init.mode_pump)
    opt = LayerOptions(
        layer="rtuc", steps=steps, step_minutes=step_min,
        pinned_w=pinned,
        pinned_storage=({sid: p[hour]
                         for sid, p in day_sched.storage_gen.items()},
                        {sid: p[hour]
                         for sid, p in day_sched.storage_pump.items()}),
        outage_gen=outage_gen, outage_semi=outage_semi,
        hour_of_step=[(start_minute + t * step_min) // 60 % 24
                      for t in range(steps)],
    )
    return solve_layer(scn, fc, init, opt, basis, program)
