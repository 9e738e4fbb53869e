"""Same-day commitment of fast-start units on 15-minute intervals.

Non-fast-start commitments are pinned to the day-ahead schedule and storage
is dispatched exactly as scheduled day-ahead; only fast-start units carry
binary decisions here.
"""

from __future__ import annotations

import numpy as np

from .dispatch import (Forecasts, InitialState, LayerOptions, Schedule,
                       solve_layer)
from .scenario import Scenario


def _pin_from_hourly(day_sched: Schedule, gen_id: str, start_minute: int,
                     steps: int, step_min: int) -> np.ndarray:
    """Map an hourly commitment onto the window's intervals.

    Minutes past the end of the day-ahead horizon hold the last hour.
    """
    w = day_sched.w[gen_id]
    out = np.zeros(steps)
    for t in range(steps):
        minute = start_minute + t * step_min
        hour = min(minute // 60, len(w) - 1)
        out[t] = w[hour]
    return out


def _storage_from_hourly(day_sched: Schedule, start_minute: int, steps: int,
                         step_min: int) -> tuple[dict, dict]:
    ps, ss = {}, {}
    for sid in day_sched.storage_gen:
        pg = day_sched.storage_gen[sid]
        pp = day_sched.storage_pump[sid]
        gen = np.zeros(steps)
        pump = np.zeros(steps)
        for t in range(steps):
            hour = min((start_minute + t * step_min) // 60, len(pg) - 1)
            gen[t] = pg[hour]
            pump[t] = pp[hour]
        ps[sid], ss[sid] = gen, pump
    return ps, ss


def run_rtuc(scn: Scenario, fc: Forecasts, init: InitialState,
             day_sched: Schedule, start_minute: int,
             outage_gen: dict | None = None,
             outage_semi: dict | None = None) -> Schedule:
    """Solve one same-day commitment window starting at ``start_minute``.

    ``init.starts_used`` counts fast-start cycles already used today;
    day-ahead starts after the window are charged against the budget too.
    """
    step_min = scn.timing.rtuc_step_min
    steps = scn.timing.rtuc_horizon_min // step_min
    pinned = {}
    ahead = dict(init.starts_ahead)
    end_minute = start_minute + scn.timing.rtuc_horizon_min
    for g in scn.generators:
        if g.kind == "fast-start":
            # Day-ahead starts scheduled beyond this window still consume
            # the unit's daily start budget.
            u = day_sched.u.get(g.id)
            if u is not None:
                first = min(end_minute // 60, len(u))
                ahead.setdefault(g.id, 0)
                ahead[g.id] += int(round(float(np.sum(u[first:]))))
            continue
        pinned[g.id] = _pin_from_hourly(day_sched, g.id, start_minute,
                                        steps, step_min)
    init = InitialState(online=init.online, output=init.output,
                        run_hours=init.run_hours,
                        starts_used=init.starts_used, starts_ahead=ahead,
                        energy=init.energy, mode_gen=init.mode_gen,
                        mode_pump=init.mode_pump)
    opt = LayerOptions(
        layer="rtuc", steps=steps, step_minutes=step_min,
        pinned_w=pinned,
        pinned_storage=_storage_from_hourly(day_sched, start_minute, steps,
                                            step_min),
        outage_gen=outage_gen, outage_semi=outage_semi,
        hour_of_step=[(start_minute + t * step_min) // 60 % 24
                      for t in range(steps)],
    )
    return solve_layer(scn, fc, init, opt)
