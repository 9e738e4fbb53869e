"""Piecewise-linear approximation of quadratic production cost curves.

A unit's hourly fuel cost is C_F * (H_F + H_L*P + H_Q*P^2).  The quadratic
part is replaced by chords over equal-width segments of [Pmin, Pmax]; the
chords overestimate a convex curve by at most C_F*H_Q*width^2/4, which is
reported so callers can pick a segment count.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class PiecewiseCost:
    p_min: float
    p_max: float
    breakpoints: np.ndarray   # segment edges, len n_seg + 1
    widths: np.ndarray        # MW span of each segment
    slopes: np.ndarray        # $/MWh over each segment, nondecreasing for convex curves
    cost_at_min: float        # full cost at p_min, including the constant term
    max_error: float          # worst-case chord overestimate, $

    def __post_init__(self):
        # Curves are cached and shared (see linearize_cost).
        for arr in (self.breakpoints, self.widths, self.slopes):
            arr.flags.writeable = False

    def evaluate(self, p: float) -> float:
        """Approximate cost at output ``p`` (for tests and reporting)."""
        p = min(max(p, self.p_min), self.p_max)
        filled = np.clip(p - self.breakpoints[:-1], 0.0, self.widths)
        return self.cost_at_min + float(self.slopes @ filled)


@functools.lru_cache(maxsize=256)
def linearize_cost(p_min: float, p_max: float, c_f: float, h_f: float,
                   h_l: float, h_q: float, n_seg: int = 3) -> PiecewiseCost:
    """Chord approximation of C_F*(H_F + H_L*P + H_Q*P^2) on [p_min, p_max].

    Each curve is computed once per set of arguments and then shared, so
    every program built for a unit reuses it; its arrays are read-only.
    """
    if n_seg < 1:
        raise ValueError("need at least one segment")
    if p_max < p_min:
        raise ValueError("p_max below p_min")

    def full(p: float) -> float:
        return c_f * (h_f + h_l * p + h_q * p * p)

    if p_max == p_min:
        bp = np.array([p_min, p_max])
        return PiecewiseCost(p_min, p_max, bp, np.diff(bp), np.zeros(1),
                             full(p_min), 0.0)

    bp = np.linspace(p_min, p_max, n_seg + 1)
    vals = np.array([full(p) for p in bp])
    widths = np.diff(bp)
    slopes = np.diff(vals) / widths
    width = (p_max - p_min) / n_seg
    err = c_f * h_q * width * width / 4.0
    return PiecewiseCost(p_min, p_max, bp, widths, slopes, float(vals[0]),
                         float(err))
