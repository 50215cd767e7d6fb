"""Derivative profiles under an analysis window, read as the heatmap harness reads them.

``derivative_profiles`` covers each order's whole valid range.  A window
clips the grids of a lattice plan (``derivative._lattice_plan``), whose
samples of N the harness evaluates with ``plan.evaluate``; this builds the
profiles of such a plan, so that tests can check its grids, reads and
values against ``derivative_profile`` and the pointwise stencil.
"""

import numpy as np

from ratejump.derivative import DerivativeProfile, _as_counting, _lattice_plan, derivative_profiles


def windowed_profiles(N, orders, delta, steps_per_delta, window):
    """One profile per entry of ``orders``: ``derivative_profiles`` with no
    window, else the profiles of the window's lattice plan, N read once per
    lattice and evaluated by the plan."""
    if window is None:
        return derivative_profiles(N, orders, delta, steps_per_delta)
    count_at, T = _as_counting(N)
    plan = _lattice_plan(orders, delta, steps_per_delta, T, window)
    values = plan.evaluate([count_at(times) for times, _ in plan.lattices])
    step = delta / steps_per_delta
    return [DerivativeProfile(lo + np.arange(n) * step, v, order, delta, steps_per_delta, (lo, hi))
            for (order, lo, hi, n, _), v in zip(plan.grids, values)]
