"""HiGHS (through ``scipy.optimize.milp``) as the reference for a layer
program: the objective must match the in-house solve, and its solve time is
the floor a faster kernel could aim for."""

from __future__ import annotations

import statistics
import time

import numpy as np

from gridops.lp import EQ, GE, LE

REL_TOL = 1e-6
REPEATS = 3


def highs_solve(lp):
    """Solve ``lp`` with HiGHS; returns (objective, median seconds)."""
    from scipy.optimize import Bounds, LinearConstraint, milp

    A, b, senses, c, l, u = lp.dense()
    senses = np.array(senses)
    lo = np.where((senses == GE) | (senses == EQ), b, -np.inf)
    hi = np.where((senses == LE) | (senses == EQ), b, np.inf)
    integrality = np.array([1 if v.binary else 0 for v in lp.variables])
    times = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        res = milp(c, constraints=LinearConstraint(A, lo, hi),
                   integrality=integrality, bounds=Bounds(l, u),
                   options={"mip_rel_gap": 1e-9})
        times.append(time.perf_counter() - t0)
    if res.status != 0:
        raise RuntimeError(f"HiGHS did not solve the program: {res.message}")
    return float(res.fun), statistics.median(times)


def objectives_match(ours: float, ref: float) -> bool:
    return abs(ours - ref) <= REL_TOL * max(1.0, abs(ref))
