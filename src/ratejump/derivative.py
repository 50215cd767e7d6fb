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

Profiles share one sampling of N.  When delta = m * grid_step for an
integer m, every stencil point of every grid time lies on one lattice
b + p*grid_step, and with F[p] = N(b + p*grid_step) the order-l value at
a grid time is the l-fold lag-m difference (Delta_m^l F)[p0], where
(Delta_m F)[p] = F[p+m] - F[p] and p0 indexes the stencil's first point.
``derivative_profiles`` therefore samples N once per lattice origin b and
gets each order from the previous one by one more difference: b = 0 for
orders whose grid starts at (l-1)*delta, and b = the window's lower end
for the orders a window clips.  A non-integer delta/grid_step puts the
stencil points on no common lattice; that one fallback evaluates each
grid time from its own l+1 samples.
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
    """``delta`` as a positive, finite float: the one check on a step."""
    value = float(delta)
    if not (math.isfinite(value) and value > 0):
        raise ValueError(f"{name} must be positive and finite, got {delta!r}")
    return value


def _check_grid_step(grid_step, delta: float) -> float:
    """``grid_step`` as a float in (0, delta], with delta's last bit of slack."""
    value = float(grid_step)
    if not (0 < value <= delta * (1 + 1e-12)):
        raise ValueError(f"grid_step must be in (0, delta={delta}], got {grid_step!r}")
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


def _as_counting(N, horizon):
    """Normalize N to (vectorized callable, horizon).

    Accepts anything with a ``count_at`` method (EventTimes, BinnedCounting)
    or a plain callable.  An N with a ``horizon`` of its own is read up to
    it; ``horizon`` may only shorten that, since past it N is not data.  A
    plain callable has no horizon of its own, so ``horizon`` supplies it;
    without one the upper window bound is not enforced.
    """
    if hasattr(N, "count_at"):
        fn = N.count_at
        own = getattr(N, "horizon", None)
        if horizon is None:
            horizon = own
        elif own is not None and float(horizon) > own:
            raise ValueError(f"horizon = {horizon} lies beyond the horizon of N, {own}")
    elif callable(N):
        fn = N
    else:
        raise TypeError(
            f"N must expose count_at(t) or be callable, got {type(N).__name__}"
        )
    return fn, (math.inf if horizon is None else float(horizon))


def discrete_derivative(N, order: int, delta: float, t: float, horizon=None) -> float:
    """Evaluate the order-``order`` discrete derivative of N at time t.

    The stencil touches [t - (order-1)*delta, t + delta], which must lie
    inside [0, horizon].  The result is an exact integer whenever N is
    integer-valued (float64 is exact for counts below 2**53).
    """
    stencil = DerivativeStencil.of_order(order, delta)
    fn, T = _as_counting(N, horizon)
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
    """Discrete-derivative values on an evenly spaced time grid."""

    times: np.ndarray
    values: np.ndarray
    order: int
    delta: float
    grid_step: float
    window: tuple
    empty_window: bool = False

    def __len__(self) -> int:
        return int(self.times.size)

    def pairs(self):
        """Iterate (time, value) in time order."""
        return zip(self.times.tolist(), self.values.tolist())

    def argmax(self) -> int:
        """Index of the largest |value|, the earliest on ties; ValueError if empty."""
        if len(self) == 0:
            raise ValueError(
                f"no valid grid points: window {self.window} is empty for "
                f"k={self.order}, delta={self.delta}"
            )
        return int(np.argmax(np.abs(self.values)))


def derivative_profile(
    N,
    order: int,
    delta: float,
    grid_step: "float | None" = None,
    window: "tuple | None" = None,
    horizon=None,
) -> DerivativeProfile:
    """The order-``order`` profile of ``derivative_profiles``."""
    return derivative_profiles(N, [order], delta, grid_step, window, horizon)[0]


def derivative_profiles(
    N,
    orders,
    delta: float,
    grid_step: "float | None" = None,
    window: "tuple | None" = None,
    horizon=None,
) -> list:
    """Evaluate the discrete derivative of each order on an evenly spaced grid.

    Returns one profile per entry of ``orders``.  Each grid covers the
    requested ``window`` (default: everything) clipped to that order's
    valid range [(order-1)*delta, horizon - delta].  ``grid_step``
    defaults to delta/10 and must not exceed delta.  A window that clips
    to nothing yields an empty profile with ``empty_window=True`` rather
    than an error.  ``horizon`` is for a plain callable N, which has none
    of its own; beyond the horizon of an N that has one it is an error.
    """
    orders = [_check_order(order) for order in orders]
    delta = _check_delta(delta)
    grid_step = delta / 10.0 if grid_step is None else _check_grid_step(grid_step, delta)
    fn, T = _as_counting(N, horizon)
    if not math.isfinite(T):
        raise ValueError("horizon is required to build a profile (none known for this N)")
    w_lo, w_hi = (-math.inf, math.inf) if window is None else (float(window[0]), float(window[1]))
    if w_lo > w_hi:
        raise ValueError(f"window must satisfy lo <= hi, got {window}")

    ratio = delta / grid_step
    lag = round(ratio) if abs(ratio - round(ratio)) <= 1e-12 * ratio else None
    grids, lattices = [], {}
    for order in orders:
        lo, hi = max((order - 1) * delta, w_lo), min(T - delta, w_hi)
        n = int(math.floor((hi - lo) / grid_step + 1e-9)) + 1 if lo <= hi else 0
        grids.append((order, lo, hi, n))
        if n and lag:
            origin = lo if w_lo > (order - 1) * delta else 0.0
            lattices.setdefault(origin, {})[len(grids) - 1] = grids[-1]
    values = {}
    for origin, members in lattices.items():
        values.update(_lattice_values(fn, origin, grid_step, lag, members))
    profiles = []
    for i, (order, lo, hi, n) in enumerate(grids):
        times = lo + np.arange(n) * grid_step
        if i not in values:  # the fallback, or an empty grid: each time's own samples
            stencil = DerivativeStencil.of_order(order, delta)
            samples = np.asarray(fn(times[None, :] + stencil.offsets()[:, None]), dtype=np.float64)
            values[i] = np.asarray(stencil.coefficients, dtype=np.float64) @ samples
        profiles.append(DerivativeProfile(times, values[i], order, delta, grid_step, (lo, hi), n == 0))
    return profiles


def _lattice_values(fn, origin: float, step: float, lag: int, grids: dict) -> dict:
    """Values of every grid from one sampling of N at origin + p*step.

    Grid point i of an order-l grid starting at lo reads its stencil from
    the samples first + i + j*lag, j = 0..l, where first is lo's lattice
    index less (l-1)*lag; so its value is the l-fold lag difference there.
    """
    first = {i: round((lo - origin) / step) - (order - 1) * lag
             for i, (order, lo, _, _) in grids.items()}
    p_lo = min(first.values())
    p_hi = max(first[i] + n + order * lag for i, (order, _, _, n) in grids.items())
    diff = np.asarray(fn(origin + np.arange(p_lo, p_hi) * step), dtype=np.float64)
    levels = {}
    for order in range(1, max(grid[0] for grid in grids.values()) + 1):
        diff = levels[order] = diff[lag:] - diff[:-lag]
    return {i: levels[order][first[i] - p_lo:][:n] for i, (order, _, _, n) in grids.items()}


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
