"""Chord linearization of quadratic cost curves."""

from __future__ import annotations

import numpy as np
import pytest

from gridops.piecewise import linearize_cost


def test_two_segment_slopes():
    # Pure quadratic P^2 on [0, 100]: chords over [0,50] and [50,100].
    pw = linearize_cost(0.0, 100.0, c_f=1.0, h_f=0.0, h_l=0.0, h_q=1.0, n_seg=2)
    assert pw.slopes == pytest.approx([50.0, 150.0])
    assert pw.cost_at_min == 0.0


def test_error_bound_formula():
    pw = linearize_cost(0.0, 100.0, 1.0, 0.0, 0.0, 1.0, n_seg=4)
    assert pw.max_error == pytest.approx(156.25)
    # Worst case sits at segment midpoints; verify directly.
    for mid in [12.5, 37.5, 62.5, 87.5]:
        gap = pw.evaluate(mid) - mid * mid
        assert gap == pytest.approx(pw.max_error, abs=1e-9)


def test_overestimates_inside_exact_at_breakpoints():
    pw = linearize_cost(20.0, 180.0, c_f=2.5, h_f=10.0, h_l=8.0, h_q=0.002, n_seg=3)

    def full(p):
        return 2.5 * (10.0 + 8.0 * p + 0.002 * p * p)

    for p in pw.breakpoints:
        assert pw.evaluate(float(p)) == pytest.approx(full(p), abs=1e-9)
    for p in np.linspace(20, 180, 33):
        approx = pw.evaluate(float(p))
        assert full(p) - 1e-9 <= approx <= full(p) + pw.max_error + 1e-9


def test_slopes_nondecreasing_for_convex():
    pw = linearize_cost(50.0, 400.0, 1.8, 100.0, 9.0, 0.001, n_seg=5)
    assert np.all(np.diff(pw.slopes) >= -1e-12)


def test_linear_curve_has_zero_error():
    pw = linearize_cost(10.0, 90.0, 1.0, 5.0, 3.0, 0.0, n_seg=3)
    assert pw.max_error == 0.0
    assert pw.slopes == pytest.approx([3.0, 3.0, 3.0])


def test_degenerate_range():
    pw = linearize_cost(60.0, 60.0, 1.0, 1.0, 1.0, 1.0, n_seg=3)
    assert pw.max_error == 0.0
    assert pw.evaluate(60.0) == pytest.approx(1.0 + 60.0 + 3600.0)


def test_curves_are_computed_once_and_read_only():
    args = (15.0, 85.0, 1.0, 2.0, 3.0, 0.01, 3)
    pw = linearize_cost(*args)
    assert linearize_cost(*args) is pw
    with pytest.raises(ValueError):
        pw.slopes[0] = 0.0
