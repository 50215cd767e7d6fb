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
(N drawn at chosen times or known at bin edges, and read there only, so a
binned N needs a grid step that is a whole number of bins).

A profile evaluates the stencil on a grid of step delta/m, for a whole
number m of steps per delta (default 10).  Every stencil point of every
grid time then lies on one lattice b + p*delta/m, and with
F[p] = N(b + p*delta/m) the order-l value at a grid time is the l-fold
lag-m difference (Delta_m^l F)[p0], where (Delta_m F)[p] = F[p+m] - F[p]
and p0 indexes the stencil's first point.  ``derivative_profiles``
therefore samples N once per lattice origin b and gets each order from
the previous one by one more difference: b = 0 for orders whose grid
starts at (l-1)*delta, and b = the window's lower end for the orders a
window clips.  It takes two steps, which the heatmap harness shares: a
lattice plan, fixed by the orders, delta, m, T and window, holds each
lattice's read times and where each order's grid lies on it; evaluating
the plan turns the samples F into every order's values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "MAX_ORDER",
    "DerivativeStencil",
    "DerivativeProfile",
    "discrete_derivative",
    "derivative_profile",
    "derivative_profiles",
    "annihilation_check",
]

# Binomial stencil weights grow like 2^order, so the statistical value of
# going higher vanishes long before numerics do; orders above this are
# almost certainly a units mistake and are rejected.
MAX_ORDER = 20

# The default grid: a profile's grid step is delta / STEPS_PER_DELTA.
STEPS_PER_DELTA = 10


def _check_order(order, name: str = "order", limit: float = MAX_ORDER) -> int:
    """``order`` as an int in [1, limit], bools rejected: the one check on an
    order k (and, with no limit, on a step in whole bins), naming ``name``."""
    if isinstance(order, bool) or not isinstance(order, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {order!r}")
    if order < 1:
        raise ValueError(f"{name} must be >= 1, got {order}")
    if order > limit:
        raise ValueError(f"{name} must be <= {limit}, got {order}")
    return int(order)


def _check_delta(delta, name: str = "delta") -> float:
    """``delta`` as a positive, finite float, bools rejected: the one check on a step."""
    value = math.nan if isinstance(delta, (bool, np.bool_)) else float(delta)
    if not (math.isfinite(value) and value > 0):
        raise ValueError(f"{name} must be positive and finite, got {delta!r}")
    return value


@dataclass(frozen=True)
class DerivativeStencil:
    """The coefficients and sample offsets of one discrete-derivative stencil."""

    order: int
    delta: float
    coefficients: tuple

    @classmethod
    def of_order(cls, order: int, delta: float) -> "DerivativeStencil":
        order = _check_order(order)
        delta = _check_delta(delta)
        coeffs = tuple((-1) ** (order - j) * math.comb(order, j) for j in range(order + 1))
        return cls(order=order, delta=delta, coefficients=coeffs)

    def offsets(self) -> np.ndarray:
        """Sample-point offsets relative to t: (j - order + 1) * delta."""
        return (np.arange(self.order + 1) - self.order + 1) * self.delta


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


def discrete_derivative(N, order: int, delta: float, t: float) -> float:
    """Evaluate the order-``order`` discrete derivative of N at time t.

    The stencil touches [t - (order-1)*delta, t + delta], which must lie
    inside [0, T], T the horizon of N.  Each bound is checked with a slack
    of 1e-12 relative to max(1, |bound|), since (order-1)*delta and
    t + delta are float results: a t that a grid reaches by rounding passes,
    and one beyond the slack raises.  The result is an exact integer
    whenever N is integer-valued (float64 is exact for counts below 2**53).
    """
    stencil = DerivativeStencil.of_order(order, delta)
    fn, T = _as_counting(N)
    t = float(t)
    lo = (order - 1) * delta
    if t < lo - 1e-12 * max(1.0, abs(lo)):
        raise ValueError(
            f"t = {t} violates t >= (order-1)*delta = {lo}: "
            f"stencil window would start before 0"
        )
    if t + delta > T + 1e-12 * max(1.0, abs(T)):
        raise ValueError(
            f"t = {t} violates t + delta <= horizon = {T}: "
            f"stencil window would end at {t + delta}"
        )
    pts = t + stencil.offsets()
    vals = np.asarray(fn(pts), dtype=np.float64)
    return float(np.dot(stencil.coefficients, vals))


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
        """Index of the largest |value|, the earliest on ties; ValueError if empty."""
        _nonempty(self)
        return int(np.argmax(np.abs(self.values)))


def _empty_window(order: int, delta: float, window: tuple) -> ValueError:
    """The one ValueError for a window that holds no grid point."""
    return ValueError(
        f"no valid grid points: window {window} is empty for k={order}, delta={delta}")


def _nonempty(profile: DerivativeProfile) -> DerivativeProfile:
    """``profile``, or ``_empty_window``'s error if it holds no grid point."""
    if len(profile) == 0:
        raise _empty_window(profile.order, profile.delta, profile.window)
    return profile


def derivative_profile(N, order: int, delta: float,
                       steps_per_delta: int = STEPS_PER_DELTA) -> DerivativeProfile:
    """The order-``order`` profile of ``derivative_profiles`` over all of
    [0, T]; a profile with no grid point is a ValueError naming its window,
    k and delta."""
    return _nonempty(derivative_profiles(N, [order], delta, steps_per_delta)[0])


def derivative_profiles(
    N,
    orders,
    delta: float,
    steps_per_delta: int = STEPS_PER_DELTA,
    window: "tuple | None" = None,
) -> list:
    """Evaluate the discrete derivative of each order on a grid of step
    delta / ``steps_per_delta``, a whole number (default 10).

    Returns one profile per entry of ``orders``.  Each grid starts at the
    requested ``window``'s lower end (default: everything) clipped to that
    order's valid range [(order-1)*delta, T - delta], T the horizon of N,
    and holds every grid time up to the clipped upper end, none past it.
    A window that clips to nothing yields an empty profile, so that one
    order's empty window does not cost the others theirs; its ``argmax``
    raises the ValueError that ``derivative_profile`` raises at once.
    """
    orders = [_check_order(order) for order in orders]
    delta = _check_delta(delta)
    lag = _check_order(steps_per_delta, "steps_per_delta", limit=math.inf)
    step = delta / lag
    fn, T = _as_counting(N)
    plan = _lattice_plan(orders, delta, lag, T, window)
    try:
        samples = [fn(times) for times, _ in plan.lattices]
    except ValueError as exc:  # N known only at its knots, such as bin edges
        raise ValueError(f"{exc}, a time on the grid of step delta / steps_per_delta = "
                         f"{delta!r} / {lag}") from exc
    return [DerivativeProfile(lo + np.arange(n) * step, values, order, delta, lag, (lo, hi))
            for (order, lo, hi, n, _), values in zip(plan.grids, plan.evaluate(samples))]


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
    """Where the profiles of one delta read N, and how the reads become values.

    ``lattices`` holds one (read times, indices of the orders read there) per
    lattice origin.  ``grids[i]`` is the i-th order's (order, lo, hi, n,
    offset): value q of its grid lo + q*delta/lag, q < n, is entry offset + q
    of the order-fold lag difference of its lattice's samples.
    """

    lag: int
    grids: tuple
    lattices: tuple

    def evaluate(self, samples) -> list:
        """Each order's values, from samples[b] = N at ``lattices[b]``'s times."""
        values = [np.zeros(0)] * len(self.grids)
        for (_, members), diff in zip(self.lattices, samples):
            diff, levels = np.asarray(diff, dtype=np.float64), {}
            for order in range(1, max(self.grids[i][0] for i in members) + 1):
                diff = levels[order] = diff[self.lag:] - diff[:-self.lag]
            for i in members:
                order, _, _, n, offset = self.grids[i]
                values[i] = levels[order][offset:offset + n]
        return values


def _lattice_plan(orders, delta: float, lag: int, T: float, window) -> _LatticePlan:
    """The plan of ``derivative_profiles`` for checked orders, delta and lag.
    Every grid lies in its order's valid range, so a lattice time leaves
    [0, T] only by the rounding of p*step, by ulps; it reads N at that end."""
    step = delta / lag
    w_lo, w_hi = (-math.inf, math.inf) if window is None else (float(window[0]), float(window[1]))
    if not w_lo <= w_hi:  # NaN fails too
        raise ValueError(f"window must satisfy lo <= hi, got {window}")
    grids, lattices = [], {}
    for order in orders:
        lo, hi = max((order - 1) * delta, w_lo), min(T - delta, w_hi)
        grids.append((order, lo, hi, _grid_size(lo, hi, step)))
        if grids[-1][3]:
            origin = lo if w_lo > (order - 1) * delta else 0.0
            lattices.setdefault(origin, {})[len(grids) - 1] = grids[-1]
    read, offsets = [], {}
    for origin, members in lattices.items():
        first = {i: round((lo - origin) / step) - (order - 1) * lag
                 for i, (order, lo, _, _) in members.items()}
        p_lo = min(first.values())
        p_hi = max(first[i] + n + order * lag for i, (order, _, _, n) in members.items())
        read.append((np.clip(origin + np.arange(p_lo, p_hi) * step, 0.0, T), tuple(members)))
        offsets.update((i, p - p_lo) for i, p in first.items())
    grids = tuple(grid + (offsets.get(i, 0),) for i, grid in enumerate(grids))
    return _LatticePlan(lag, grids, tuple(read))


def annihilation_check(order: int, delta: float, poly_coeffs, t: float) -> float:
    """Apply the order-(order+1) stencil to a degree-<=order polynomial.

    ``poly_coeffs`` are ascending-power coefficients.  The return value is
    exactly zero in exact arithmetic; callers compare against a float
    tolerance scaled by the largest stencil summand.
    """
    order = _check_order(order)  # of_order checks order + 1, which 0 would pass
    stencil = DerivativeStencil.of_order(order + 1, delta)
    pts = float(t) + stencil.offsets()
    vals = np.polynomial.polynomial.polyval(pts, np.asarray(poly_coeffs, dtype=np.float64))
    return float(np.dot(stencil.coefficients, vals))
