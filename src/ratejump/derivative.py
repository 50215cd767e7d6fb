"""Higher-order discrete derivatives of a counting function.

The order-l discrete derivative with step delta is the alternating
binomial stencil

    D_l N(t) = sum_{j=0..l} (-1)^(l-j) C(l, j) * N(t + (j - l + 1)*delta)

i.e. a window reaching back to t - (l-1)*delta and forward to t + delta.
Order 1 is the forward increment N(t+delta) - N(t); order 2 is
N(t+delta) - 2 N(t) + N(t-delta).  Applied to a polynomial of degree < l
the stencil returns exactly zero, which is what makes high orders blind
to smooth trends while a rate jump of size A still shows up at scale
A * delta.

N is an object with a vectorized ``count_at(t)`` and a ``horizon`` T, the
end of the observed data, read on [0, T] only: EventTimes, or SampledCounts
(N drawn at chosen times or known at bin edges, and read there only).

The stencil is evaluated only as a profile, never at one t alone, and its
weights are never formed: they are what l lag differences add up to.  A
profile evaluates it on a grid of step delta/m, for a whole number m of
steps per delta that N sets (``_steps_per_delta``): N known at evenly
spaced knots, such as bin edges, is read at every knot, so m is delta over
the knot gap; any other N is read m = 10 times per delta.  Every stencil
point of every grid time then lies on one lattice b + p*delta/m, and with
F[p] = N(b + p*delta/m) the order-l value at a grid time is the l-fold
lag-m difference (Delta_m^l F)[p0], where (Delta_m F)[p] = F[p+m] - F[p]
and p0 indexes the stencil's first point.  So each order comes from the
previous one by one more difference on its lattice: b = 0 for orders whose
grid starts at (l-1)*delta, and b = the window's lower end for the orders a
window clips.  On integer counts every difference is exact in float64 while
its values stay below 2**53, so every value is an exact integer.

A lattice plan, fixed by the orders, a grid of deltas that share m, T and
the window, lays the lattices of every delta end to end in one read vector,
and N is read once per plan: one ``count_at`` over that whole vector.
Each (order, delta) cell's grid is one segment of that order's lag
difference of the whole vector; a difference that straddles two lattices
lies between segments and no cell reads it.  Evaluating the plan takes each
order's difference once, over the whole vector.  One peak rule (``_peaks``)
then scores each cell on its own segment: ``np.argmax`` of the segment's
|value|, the earliest largest, with one |value| array per order.
``derivative_profiles`` and ``DerivativeProfile.argmax`` are its case of one
delta and one segment: N's own grid, with no window.  The heatmap harness
reads N once on the plan of its whole (k, delta) grid, under a scenario's
analysis window.

Rules.  ``derivative_profiles(N, orders, delta)`` is the one code path
that computes D_l N, and ``derivative_profile(N, order, delta)`` its
one-order view.  An order and a step are checked by the rules of
``ratejump.process``, whose ``MAX_ORDER`` (20) this module re-exports.  An
N without ``count_at`` or a horizon is a TypeError naming its type.  A
delta that is not a whole number of knot gaps is a ValueError naming delta
and the gap, raised before N is read; a grid time that N refuses, such as
one off unevenly drawn knots, is a ValueError naming it, delta and m.  A
window that holds no grid point has one ValueError, naming k, delta and
the window (``_empty_window``): ``derivative_profile`` raises it at once,
``argmax`` raises it on an empty profile of ``derivative_profiles``, and
the harness records it as the heatmap's failed cell, so every estimator
raises it.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .process import MAX_ORDER, SampledCounts, _check_delta, _check_integer, _check_interval

__all__ = [
    "MAX_ORDER",
    "DerivativeProfile",
    "derivative_profile",
    "derivative_profiles",
]

# The grid step of a profile of N with no evenly spaced knots (such as event
# times): delta / STEPS_PER_DELTA.
STEPS_PER_DELTA = 10


def _as_counting(N):
    """(N.count_at, its horizon T); a TypeError names N's type when it lacks
    either, and a ValueError names a T that is not finite and non-negative."""
    try:
        fn, T = N.count_at, float(N.horizon)
    except AttributeError:
        raise TypeError(
            f"N must expose count_at(t) and a horizon, got {type(N).__name__}"
        ) from None
    if not (math.isfinite(T) and T >= 0):
        raise ValueError(f"the horizon of N must be finite and non-negative, got {T}")
    return fn, T


def _steps_per_delta(N, delta: float) -> int:
    """The whole number m of grid steps per delta of N's profiles.

    N known only at evenly spaced knots, a ``SampledCounts`` whose knots are
    ``arange(n) * knots[1]`` (binned and daily data: ``from_binned``), is
    read at every knot: m is delta over the knot gap, and a delta that is
    not a whole number of gaps, up to 1e-12 * max(1, delta), is a ValueError
    naming delta and the gap.  Any other N takes ``STEPS_PER_DELTA``.
    """
    if not isinstance(N, SampledCounts) or N.times.size < 2:
        return STEPS_PER_DELTA
    gap = float(N.times[1])
    if not np.array_equal(N.times, np.arange(N.times.size) * gap):
        return STEPS_PER_DELTA
    m = round(delta / gap)
    if m < 1 or abs(m * gap - delta) > 1e-12 * max(1.0, delta):
        raise ValueError(f"delta = {delta!r} is not a whole number of knot gaps: "
                         f"N is known only at knots {gap!r} apart")
    return m


@dataclass(frozen=True)
class DerivativeProfile:
    """Discrete-derivative values on a time grid of step delta / steps_per_delta."""

    times: np.ndarray
    values: np.ndarray
    order: int
    delta: float
    steps_per_delta: int
    window: tuple

    def __len__(self) -> int:
        return int(self.times.size)

    def pairs(self):
        """Iterate (time, value) in time order."""
        return zip(self.times.tolist(), self.values.tolist())

    def argmax(self) -> int:
        """Index of the largest |value|, the earliest on ties (``_peaks`` of
        one segment); ValueError if empty."""
        return int(_peaks(_nonempty(self).values, [0], [len(self)])[0])


def _peaks(values, starts, ends) -> np.ndarray:
    """The one peak rule: for each segment values[starts[c]:ends[c]], each
    nonempty, the index in ``values`` of its largest |value|, the earliest on
    ties (a NaN counts as largest, as in ``np.argmax``).  No entry outside
    the segments takes part."""
    magnitude = np.abs(values)
    return np.fromiter((start + magnitude[start:end].argmax() for start, end in zip(starts, ends)),
                       dtype=np.intp, count=len(starts))


def _empty_window(order: int, delta: float, window: tuple) -> ValueError:
    """The one ValueError for a window that holds no grid point."""
    return ValueError(
        f"no valid grid points: window {window} is empty for k={order}, delta={delta}")


def _nonempty(profile: DerivativeProfile) -> DerivativeProfile:
    """``profile``, or ``_empty_window``'s error if it holds no grid point."""
    if len(profile) == 0:
        raise _empty_window(profile.order, profile.delta, profile.window)
    return profile


def derivative_profile(N, order: int, delta: float) -> DerivativeProfile:
    """The order-``order`` profile of ``derivative_profiles`` over all of
    [0, T]; a profile with no grid point is a ValueError naming its window,
    k and delta."""
    return _nonempty(derivative_profiles(N, [order], delta)[0])


def derivative_profiles(N, orders, delta: float) -> list:
    """Evaluate the discrete derivative of each order on the grid of step
    delta / m that N sets (``_steps_per_delta``).

    Returns one profile per entry of ``orders``, on every grid time of that
    order's valid range [(order-1)*delta, T - delta], T the horizon of N,
    all read from one sampling of N.  A range with no grid time yields an
    empty profile, so that it does not cost the other orders theirs; its
    ``argmax`` raises the ValueError that ``derivative_profile`` raises.
    """
    orders = [_check_integer(order, "order") for order in orders]
    delta = _check_delta(delta)
    fn, T = _as_counting(N)
    lag = _steps_per_delta(N, delta)
    step = delta / lag
    plan = _lattice_plan(orders, (delta,), lag, T, None)
    try:
        samples = plan.read(fn)
    except ValueError as exc:  # N known only at uneven knots, such as drawn times
        raise ValueError(f"{exc}, a time on the grid of step delta / {lag}, "
                         f"delta = {delta!r}") from exc
    return [DerivativeProfile(lo + np.arange(n) * step, values, order, delta, lag, (lo, hi))
            for (order, lo, hi, n, _), values in zip(plan.cells, plan.evaluate(samples))]


def _grid_size(lo: float, hi: float, step: float) -> int:
    """The number of i >= 0 with lo + i*step <= hi, in the float arithmetic
    that builds the grid times: no grid time lies past hi."""
    if not lo <= hi:
        return 0
    n = math.floor((hi - lo) / step) + 1  # a guess, off by rounding at most
    while lo + (n - 1) * step > hi:
        n -= 1
    while lo + n * step <= hi:
        n += 1
    return n


@dataclass(frozen=True)
class _LatticePlan:
    """Where the profiles of some orders at some deltas read N, and how the
    reads become values.

    ``times`` lays every lattice end to end, those of ``deltas[0]`` first,
    and N is read at all of them at once.  ``cells[i * len(deltas) + j]`` is
    the (order, lo, hi, n, start) of the i-th order at ``deltas[j]``: value q
    of its grid lo + q*deltas[j]/lag, q < n, is entry start + q of the
    order-fold lag difference of N at all of ``times``, which crosses from
    one lattice into the next only at entries that no cell reads.
    ``peak_times`` finds each cell's peak in its own [start, start + n) by
    ``_peaks``, so segments may overlap or repeat.  The plan stores nothing
    per time besides ``times``.
    """

    deltas: tuple
    lag: int
    times: np.ndarray
    cells: tuple

    def read(self, count_at) -> np.ndarray:
        """N at ``times`` as float64, read by one ``count_at`` call."""
        return np.asarray(count_at(self.times), dtype=np.float64)

    def _levels(self, samples):
        """The l-fold lag difference of ``samples``, N at ``times``, for each
        l from 1 to the highest order with a grid point."""
        diff = np.asarray(samples, dtype=np.float64)
        for _ in self._segments:
            diff = diff[self.lag:] - diff[:-self.lag]
            yield diff

    def evaluate(self, samples) -> list:
        """Each cell's values, in the order of ``cells``, from samples = N at
        ``times``; a cell with no grid point has none."""
        levels = list(self._levels(samples))
        return [levels[order - 1][start:start + n] if n else np.zeros(0)
                for order, _, _, n, start in self.cells]

    @functools.cached_property
    def _segments(self) -> list:
        """For each order l from 1 up to the highest with a grid point, the
        (cell, start, end, lo, step) of each of its cells with one: the cell's
        index in ``cells``, its [start, end) in the l-fold lag difference, and
        its grid's lo and step deltas[j] / lag."""
        top = max((order for order, _, _, n, _ in self.cells if n), default=0)
        segments = [[] for _ in range(top)]
        for c, (order, lo, _, n, start) in enumerate(self.cells):
            if n:
                segments[order - 1].append(
                    (c, start, start + n, lo, self.deltas[c % len(self.deltas)] / self.lag))
        return segments

    def peak_times(self, samples) -> np.ndarray:
        """(orders, deltas): the grid time of each cell's peak by ``_peaks``,
        from samples = N at ``times``; NaN for a cell with no grid point."""
        times = np.full(len(self.cells), np.nan)
        for level, segments in zip(self._levels(samples), self._segments):
            if segments:
                _, starts, ends, _, _ = zip(*segments)
                for (c, start, _, lo, step), peak in zip(
                        segments, _peaks(level, starts, ends).tolist()):
                    times[c] = lo + (peak - start) * step
        return times.reshape(-1, len(self.deltas))

    def empty_cells(self) -> list:
        """(i, j) and ``_empty_window``'s error for each cell with no grid point."""
        return [(divmod(c, len(self.deltas)),
                 _empty_window(order, self.deltas[c % len(self.deltas)], (lo, hi)))
                for c, (order, lo, hi, n, _) in enumerate(self.cells) if not n]


def _lattice_plan(orders, deltas, lag: int, T: float, window) -> _LatticePlan:
    """The plan of checked orders, deltas and lag: each grid is its order's
    valid range clipped to ``window`` (None: not clipped), so a lattice time
    leaves [0, T] only by the rounding of p*step, by ulps; it reads N there."""
    w_lo, w_hi = (-math.inf, math.inf) if window is None else _check_interval(window)
    by_delta, reads, size = [], [], 0
    for delta in deltas:
        step = delta / lag
        grids, lattices = [], {}
        for i, order in enumerate(orders):
            lo, hi = max((order - 1) * delta, w_lo), min(T - delta, w_hi)
            grids.append((order, lo, hi, _grid_size(lo, hi, step)))
            if grids[-1][3]:
                origin = lo if w_lo > (order - 1) * delta else 0.0
                lattices.setdefault(origin, {})[i] = grids[-1]
        starts = {}
        for origin, members in lattices.items():
            first = {i: round((lo - origin) / step) - (order - 1) * lag
                     for i, (order, lo, _, _) in members.items()}
            p_lo = min(first.values())
            p_hi = max(first[i] + n + order * lag for i, (order, _, _, n) in members.items())
            reads.append(origin + np.arange(p_lo, p_hi) * step)
            starts.update((i, size + p - p_lo) for i, p in first.items())
            size += p_hi - p_lo
        by_delta.append([grid + (starts.get(i, 0),) for i, grid in enumerate(grids)])
    times = np.concatenate([np.zeros(0)] + reads)
    np.clip(times, 0.0, T, out=times)
    times.setflags(write=False)
    return _LatticePlan(tuple(deltas), lag, times,
                        tuple(row[i] for i in range(len(orders)) for row in by_delta))
