"""Derivative profiles on a chosen grid or under an analysis window, read as
the heatmap harness reads them.

``derivative_profiles`` covers each order's whole valid range, on the grid
N sets.  A lattice plan (``derivative._lattice_plan``) may take any whole
number of steps per delta and clip its grids to a window; the harness
scores its samples of N with ``plan.peak_times``, over every delta at once.
This builds the profiles of such a plan for one delta, so that tests can
check its grids, reads and values against ``derivative_profile`` and
``brute_force``, the stencil summed term by term.
"""

import math

import numpy as np

from ratejump.derivative import (DerivativeProfile, _as_counting, _lattice_plan, _steps_per_delta,
                                 derivative_profiles)


def windowed_profiles(N, orders, delta, steps_per_delta=None, window=None):
    """One profile per entry of ``orders``: ``derivative_profiles`` on N's own
    grid and no window, else the profiles of the lattice plan of
    ``steps_per_delta`` (None: N's own) and ``window`` (None: not clipped),
    N read once, by ``plan.read``, and evaluated by the plan."""
    if steps_per_delta is None and window is None:
        return derivative_profiles(N, orders, delta)
    count_at, T = _as_counting(N)
    m = _steps_per_delta(N, delta) if steps_per_delta is None else steps_per_delta
    plan = _lattice_plan(orders, (delta,), m, T, window)
    values = plan.evaluate(plan.read(count_at))
    step = delta / m
    return [DerivativeProfile(lo + np.arange(n) * step, v, order, delta, m, (lo, hi))
            for (order, lo, hi, n, _), v in zip(plan.cells, values)]


def brute_force(N, order, delta, t):
    """Independent reference: the literal alternating-binomial sum of N, read
    by ``count_at`` one stencil point of t at a time."""
    total = 0.0
    for j in range(order + 1):
        total += (-1) ** (order - j) * math.comb(order, j) * float(
            N.count_at(t + (j - order + 1) * delta))
    return total
