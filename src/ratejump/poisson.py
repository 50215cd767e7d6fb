"""Inhomogeneous Poisson simulation: event times by thinning, or N at given
times by a Poisson split of its total.

A rate function is a sum of onset components

    Lambda(t) = sum_i A_i * x_i(t - t_i) * 1(t >= t_i),

where each shape x_i is one of: constant 1, offset sinusoid, exponential
decay, or polynomial.

Windows.  ``simulate`` cuts [0, horizon] at every integer and at every
onset, so on each window [a, b) every component is either on throughout or
off throughout, and Lambda is the sum of the on components' smooth shapes.
The cuts at integers keep each window short, because the non-negativity
certificate (below) lets Lambda dip to -_SLACK times the window's own
maximum: on one window of [0, 20) a quadratic rate near 1e6 at the ends
would let a dip of -1e-4 at 10.02 pass inside a tolerance of about 1e-3.
One pass, before the first draw, certifies each window (below) and splits
it: a window whose envelope M expects M*(b - a) thinning candidates is cut
into ceil(M*(b - a) / 2**15) equal pieces.  The split depends only on the
input: each piece draws about 2**15 candidates or fewer, so its arrays stay
small, and its own envelope follows Lambda more closely than the window's.
``simulate`` then only thins the pieces, in blocks (below).

Thinning (Lewis & Shedler, 1979).  On a piece [c, d) with envelope
M >= sup Lambda, draw Poisson(M*(d - c)) uniform candidates, accept the one
at t when a Uniform(0, M) draw is below Lambda(t), and sort only the
accepted ones.  The result is exact in law for any such M; a tighter M only
wastes fewer candidates.  The draw order is: every piece's candidate count
first, in one vectorised Poisson draw over the pieces' envelope masses
M*(d - c) (independent Poissons, as the law needs), then each piece's
candidate positions and acceptance uniforms, piece by piece in order.
Each candidate takes two doubles, its position and its acceptance uniform,
and each double one 64-bit output of the bit generator, so the counts fix
where in the stream each piece's draws begin.

Blocks.  The pieces are cut into W contiguous blocks with about equal
candidates each, and the blocks are thinned at once, on threads that are
started and joined inside the call.  W is the number of CPUs the process
may run on, at most the number of pieces and at most one block per
``_BLOCK_CANDIDATES`` (2**16) candidates, below which a thread costs more
than it saves.  The first block draws from the caller's generator; each
later block draws from a copy of its bit generator advanced past the
2 * (candidates before the block) outputs the blocks before it use, so
every block draws just what it would in order.  After the join the
caller's generator is moved to where the last block's draws end.  So the
event times are bit-identical for every W, and a Generator passed in ends
where one thread would leave it.  A bit generator that cannot skip outputs
one by one thins in one block: MT19937 and SFC64 cannot advance at all, and
Philox advances in steps of four outputs.  Every envelope and
non-negativity check runs on every candidate of every block; when a block
fails, the first failing block's error is raised, which is the error that
thinning in order raises.

Exact extrema.  Each shape reports its exact minimum and maximum on a
window in one call, ``bounds(u0, u1) -> (min, max)``: a sinusoid is
offset - 1 (offset + 1) when a trough (crest) lies in its phase interval and
otherwise its smaller (larger) endpoint value; a polynomial takes both
extremes over the endpoints and the roots of its derivative inside the
window, found once; exponential decay and the constant are monotone.  One
helper sums the components' minima and maxima; ``rate_upper_bound`` returns
the sum of the maxima, and the thinning envelope is that sum padded by the
relative margin ``_SLACK`` (1e-9), which covers last-bit differences between
the scalar bounds and numpy's vectorised values.  A candidate above the
envelope is an internal inconsistency and raises RuntimeError.

Rate values.  Thinning spends most of a piece on Lambda at its
candidates.  Each shape's ``value(u, out=None)`` writes x(u) into ``out``,
which may be u itself, or into a new array when ``out`` is None.  A
sinusoid takes sin(theta), theta = omega*u + phase, as 2t / (1 + t*t)
with t = tan(theta/2), halving being exact above the subnormals: with
numpy 2.4.6 on an AVX512 Xeon, float64 ``np.sin`` runs libm's scalar loop
at 9-28 ns a value, while ``np.tan`` is vectorised at 1.6-2.4 ns.  The
half-angle sine is within 2 ulp of ``np.sin`` (measured over 1e7 points
at |theta| up to 1e8), a gap ``_SLACK`` covers.  The closed-form integral
of a sinusoid takes its two sines from the same function, ``_sine``; the
bounds keep ``math.sin``.  Each block allocates its scratch once, three
rows of its largest piece's candidate count: the positions, the
acceptance uniforms and Lambda.  The first component's term is written
into the Lambda row; each later one, and any onset shift, into the
uniforms' row, which is free until the acceptance draw, and then added.
So no array is allocated per component per piece.

Non-negativity.  Before anything is drawn, every window is certified: the
sum of its components' minima must be >= -_SLACK times the sum of their
maxima.  A window that fails is bisected.  Lambda is sampled at the
midpoint of each uncertified window, and a negative sample raises a
ValueError naming Lambda(t); a window that is still uncertified after
``_CERTIFY_DEPTH`` halvings, or once ``_CERTIFY_WINDOWS`` sub-windows have
been examined, raises a ValueError naming that window.  Inside thinning a
candidate with Lambda(t) < -_SLACK * M raises RuntimeError; nothing is
clamped to zero.

Output.  The candidate counts sum to the most events the realization can
have, so one output array of that size is allocated before any candidate
is drawn.  Each block thins into it from the block's first candidate slot
on, each piece sorting its accepted times into the next free slice.  After
the join, each later block's events slide left to follow the block before
it, in moves of at most ``_PIECE_CANDIDATES`` elements, and the
realization is the filled front of the array.  So every event is written
once, and moved once after the first block: no per-piece list, no
concatenation and no temporary the size of the output.  The event times
are a view of the array, so its slots past the front, one per rejected
candidate, stay allocated as long as the events do.  The pieces are
disjoint and ascending, so the front is sorted and no dedupe pass is
needed.  Two event times coincide only through floating-point rounding of
continuous draws; such a tie is kept (``EventTimes`` allows ties), because
dropping it would lose an event.

Counts at given times.  A caller that reads N only at known times (the
heatmap harness: the lattice its profiles read) needs no event times.
``draw_counts`` certifies the windows as above, then takes the integral of
Lambda over [0, t] at each time from each shape's closed form
(``integral``), draws n = N(horizon) ~ Poisson of the whole integral, and
spreads the n events over the cells between consecutive times.  Given
N(horizon), a Poisson process's events are independent draws from the
density Lambda / integral, so the cell counts are Multinomial(n, p), with
p_i = m_i / sum(m) for the cells' integrals m_i.

The split.  ``_split`` draws that multinomial exactly, but not cell by
cell: it draws independent Poisson(c * m_i) counts, with
c = max(0, n - 2 sqrt(n)) / sum(m), draws them all again while their sum s
exceeds n, and adds the n - s missing events as categorical draws: sorted
uniforms scaled to sum(m), each placed in a cell by a binary search over
the cumulative masses, and counted per cell.  Given s, independent
Poissons are Multinomial(s, p), and an independent Multinomial(n - s, p)
added to them gives Multinomial(n, p) for every s <= n; so neither the
redraw rule nor c biases the result, and any c >= 0 would be exact.  The
2 sqrt(n) margin sets the cost: the Poissons' sum has mean n - 2 sqrt(n)
and sd about sqrt(n), so about 2% of splits draw again (2.3% at 2e5
events) and the top-up is about 2 sqrt(n) uniforms.  For n <= 4, c is 0
and every event comes from the top-up.  With numpy 2.4.6 on one CPU of an
AVX512 Xeon, the split of the fig2-scaled read grid (23,076 cells, about
9 events a cell) took 1.6 ms where one ``multinomial`` over the cells
took 2.4-2.5 ms, and 1.3 ms against 2.0-2.2 ms at fig2-full's 900 events
a cell (minimum over batches of 20).  A cell with zero mass gets a Poisson
mean of zero and no top-up uniform, since a uniform falls in cell i only
when it lies in [m_1 + ... + m_(i-1), m_1 + ... + m_i); one that rounds
up to sum(m) itself (possible only for a subnormal sum) goes to the last
cell with mass, not to a trailing cell with none.  How many Poisson
rounds and uniforms a split draws depends on the draws, so a Generator
passed in ends at a place that depends on the seed.

Two times a few ulps apart give a cell whose integral, a difference of two
nearly equal floats, can come out below zero by rounding (about one ulp of
the whole integral on the fig2 presets' lattices).  A cell below zero by at
most ``_ROUNDING`` (1e-12) times the whole integral gets zero mass, and so
no events; a larger negative is an internal inconsistency and raises a
RuntimeError naming the cell.
"""

from __future__ import annotations

import dataclasses
import io
import math
import os
from dataclasses import dataclass

import numpy as np

from .process import (EventTimes, SampledCounts, _check_delta, _check_finite, _check_interval,
                      _input_file, _parse_number, _text_lines, _write_lines)
from .seeding import generator

__all__ = [
    "Constant",
    "Sinusoid",
    "ExpDecay",
    "Polynomial",
    "JumpComponent",
    "RateSpec",
    "eval_rate",
    "rate_upper_bound",
    "simulate",
    "draw_counts",
    "load_rate_spec",
    "save_rate_spec",
    "parse_rate_spec",
    "format_rate_spec",
    "preset_rate_spec",
    "RATE_PRESETS",
]

# Relative margin of the thinning envelope over the summed exact maxima, and
# the tolerance below zero of the non-negativity checks, both as a fraction
# of the envelope.
_SLACK = 1e-9
# How far below zero, as a fraction of Lambda's integral over [0, horizon],
# ``draw_counts`` lets a cell's integral fall by rounding before it errs.
_ROUNDING = 1e-12
# Expected thinning candidates per piece of a window.
_PIECE_CANDIDATES = 2**15
# Fewest thinning candidates per block of pieces thinned on a thread of its
# own: with blocks of 2**15, two threads were slower than one.
_BLOCK_CANDIDATES = 2**16
# Values per step of ``Sinusoid.value``'s half-angle division: the whole
# value of 24,000 points took 122 us at 2**12, 127 us at 2**11 and 150 us
# at 2**13, on one CPU of an AVX512 Xeon.
_SINE_CHUNK = 2**12
# Bisection limits of the non-negativity certificate, per window.
_CERTIFY_DEPTH = 40
_CERTIFY_WINDOWS = 4096


def _product(u, factor, out=None) -> np.ndarray:
    """factor * u in ``out``, or in a new float64 array (0-d for a scalar u)
    when ``out`` is None, which a shape's ``value`` then finishes in place."""
    u = np.asarray(u, dtype=np.float64)
    return np.multiply(u, factor, out=np.empty_like(u) if out is None else out)


def _sine(theta: np.ndarray) -> np.ndarray:
    """sin(theta) in place, as 2t / (1 + t*t) with t = tan(theta/2): see
    "Rate values" in the module docstring."""
    theta *= 0.5  # theta/2, exact above the subnormals
    np.tan(theta, out=theta)
    # 2t / (1 + t*t) as 2 * (t / (1 + t*t)), the same bits; the square takes
    # a buffer of at most _SINE_CHUNK values, not one of theta's size
    with np.nditer(theta, ["external_loop", "buffered", "zerosize_ok"], [["readwrite"]],
                   buffersize=_SINE_CHUNK) as chunks:
        for t in chunks:
            t /= t * t + 1.0
    theta *= 2.0
    return theta


@dataclass(frozen=True)
class Constant:
    """x(u) = 1; the amplitude carries all the scale."""

    def value(self, u, out=None):
        out = np.empty_like(np.asarray(u, dtype=np.float64)) if out is None else out
        out.fill(1.0)
        return out

    def bounds(self, u0: float, u1: float) -> tuple:
        return 1.0, 1.0

    def integral(self, u):
        return np.asarray(u, dtype=np.float64)

    name = "constant"


@dataclass(frozen=True)
class Sinusoid:
    """x(u) = offset + sin(omega*u + phase).

    ``value`` and ``integral`` share one half-angle sine, ``_sine``: sin(theta)
    as 2t / (1 + t*t) with t = tan(theta/2), within 2 ulp of ``np.sin``,
    since numpy's ``tan`` is vectorised where its ``sin`` may not be (see
    "Rate values" in the module docstring).  ``bounds`` keeps ``math.sin``.
    """

    offset: float
    omega: float
    phase: float = 0.0

    def __post_init__(self) -> None:
        for field in ("offset", "omega", "phase"):
            value = _check_finite(getattr(self, field), f"sinusoid {field}")
            object.__setattr__(self, field, value)

    def value(self, u, out=None):
        out = _product(u, self.omega, out)
        out += self.phase
        _sine(out)
        out += self.offset
        return out if out.ndim else out[()]

    def bounds(self, u0: float, u1: float) -> tuple:
        """offset - 1 (offset + 1) if sin reaches -1 (+1) on the window, else
        the smaller (larger) endpoint value."""
        th0 = self.omega * u0 + self.phase
        th1 = self.omega * u1 + self.phase
        lo, hi = min(th0, th1), max(th0, th1)
        ends = (math.sin(th0), math.sin(th1))
        extremes = []
        for sign, end in ((-1.0, min(ends)), (1.0, max(ends))):
            peak = sign * math.pi / 2  # trough (-1) or crest (+1), modulo 2*pi
            k = math.ceil((lo - peak) / (2 * math.pi))
            extremes.append(self.offset + (sign if peak + 2 * math.pi * k <= hi else end))
        return tuple(extremes)

    def integral(self, u):
        """offset*u + (cos(phase) - cos(omega*u + phase))/omega, the cosine
        difference written as a product of sines so a small omega*u keeps
        its precision."""
        u = np.asarray(u, dtype=np.float64)
        half = _product(u, 0.5 * self.omega)
        out = _sine(np.add(half, self.phase, out=np.empty_like(half)))
        if self.omega:
            _sine(half)
            half *= 2.0 / self.omega
            out *= half
        else:
            out *= u
        out += self.offset * u
        return out

    name = "sinusoid"


@dataclass(frozen=True)
class ExpDecay:
    """x(u) = exp(-rate*u), decreasing: the maximum is the left value and the
    minimum the right value."""

    rate: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "rate", _check_delta(self.rate, "expdecay rate"))

    def value(self, u, out=None):
        out = _product(u, -self.rate, out)
        np.exp(out, out=out)
        return out if out.ndim else out[()]

    def bounds(self, u0: float, u1: float) -> tuple:
        return math.exp(-self.rate * u1), math.exp(-self.rate * u0)

    def integral(self, u):
        return -np.expm1(-self.rate * np.asarray(u, dtype=np.float64)) / self.rate

    name = "expdecay"


@dataclass(frozen=True)
class Polynomial:
    """x(u) = sum_i coeffs[i] * u**i (ascending powers)."""

    coeffs: tuple

    def __post_init__(self) -> None:
        object.__setattr__(self, "coeffs", tuple(
            _check_finite(c, f"polynomial coefficient {i}") for i, c in enumerate(self.coeffs)))
        if not self.coeffs:
            raise ValueError("polynomial needs at least one coefficient")

    def value(self, u, out=None):
        """Horner's rule in place, the steps and so the bits of
        ``np.polynomial.polynomial.polyval``; every step reads u, so an
        ``out`` that is u itself takes a copy of u first."""
        u = np.asarray(u, dtype=np.float64)
        if out is not None and np.may_share_memory(u, out):
            u = u.copy()
        out = _product(u, 0.0, out)
        out += self.coeffs[-1]
        for c in reversed(self.coeffs[:-1]):
            out *= u
            out += c
        return out if out.ndim else out[()]

    def bounds(self, u0: float, u1: float) -> tuple:
        """The extremes of x over the window's ends and the critical points
        inside it.

        The roots of x' are found for x(mid + half*v) on v in [-1, 1], with
        the trailing coefficients of its derivative that are below rounding
        on that interval dropped: a negligible leading coefficient otherwise
        swamps the companion matrix and loses the small roots.  The real part
        of every root is tried, since an extra point inside the window never
        moves an extreme past the truth, and this keeps real roots that
        rounding pushed off the real axis.
        """
        points = [u0, u1]
        if u1 > u0 and len(self.coeffs) > 2:
            mid, half = 0.5 * (u0 + u1), 0.5 * (u1 - u0)
            shifted = [self.coeffs[-1]]  # Horner in the polynomial (mid + half*v)
            for c in reversed(self.coeffs[:-1]):
                shifted = (
                    [c + mid * shifted[0]]
                    + [mid * shifted[i] + half * shifted[i - 1] for i in range(1, len(shifted))]
                    + [half * shifted[-1]]
                )
            slope = [i * c for i, c in enumerate(shifted)][1:]
            tol = 4 * np.finfo(np.float64).eps * sum(abs(c) for c in slope)
            while len(slope) > 1 and abs(slope[-1]) <= tol:
                slope.pop()
            for v in np.real(np.polynomial.polynomial.polyroots(slope)).tolist():
                if u0 < mid + half * v < u1:
                    points.append(mid + half * v)
        values = self.value(points)
        return float(values.min()), float(values.max())

    def integral(self, u):
        return np.polynomial.polynomial.polyval(
            np.asarray(u, dtype=np.float64),
            np.polynomial.polynomial.polyint(np.asarray(self.coeffs)),
        )

    name = "polynomial"


_SHAPE_NAMES = {
    "constant": Constant,
    "sinusoid": Sinusoid,
    "expdecay": ExpDecay,
    "polynomial": Polynomial,
}


@dataclass(frozen=True)
class JumpComponent:
    """One onset component A * x(t - t0) * 1(t >= t0)."""

    amplitude: float
    onset: float
    shape: object

    def __post_init__(self) -> None:
        object.__setattr__(self, "amplitude", _check_delta(self.amplitude, "amplitude"))
        object.__setattr__(self, "onset", _check_finite(self.onset, "jump component onset", 0.0))
        if self.onset > 0 and not float(self.shape.value(0.0)) > 0:
            raise ValueError(
                f"component with onset {self.onset} > 0 must jump: "
                f"shape value at the onset is {float(self.shape.value(0.0))} (needs > 0)"
            )


@dataclass(frozen=True)
class RateSpec:
    """A rate function Lambda(t) as a sum of onset components."""

    components: tuple

    def __post_init__(self) -> None:
        object.__setattr__(self, "components", tuple(self.components))


def eval_rate(spec: RateSpec, t):
    """Lambda(t), vectorized; right-continuous at onsets (t == onset is in).
    A time that is not finite is an error naming it: ``t``, or ``t[i]`` in
    an array, by flat index.  Unless t is a numeric array of finite times,
    each entry goes through the finite rule, as a scalar does, so a bool or
    a numeric string in a list is refused, not read as a number."""
    if not (isinstance(t, np.ndarray) and t.dtype.kind in "iuf" and np.isfinite(t).all()):
        given = np.asarray(t, dtype=object)
        t = np.reshape([_check_finite(value, f"t[{i}]" if given.ndim else "t")
                        for i, value in enumerate(given.flat)], given.shape)
    t = np.asarray(t, dtype=np.float64)
    out = np.zeros_like(t)
    for comp in spec.components:
        active = t >= comp.onset
        if np.any(active):
            u = t[active] - comp.onset
            out[active] += comp.amplitude * comp.shape.value(u)
    return out if out.ndim else float(out)


def _bounds(components, a: float, b: float) -> tuple:
    """The sums of the components' exact minima and maxima on [a, b), each
    taken from its onset on.  With no onset inside (a, b), as on the windows
    of ``simulate``, they are the lowest and highest Lambda can be there."""
    low = high = 0.0
    for comp in components:
        lo, hi = comp.shape.bounds(max(a, comp.onset) - comp.onset, b - comp.onset)
        low += comp.amplitude * lo
        high += comp.amplitude * hi
    return low, high


def rate_upper_bound(spec: RateSpec, window: tuple) -> float:
    """An upper bound for Lambda on [window[0], window[1]) (the point itself
    when the ends are equal).

    The sum of each component's exact maximum on the window, so it is the
    supremum itself for a single component; ``simulate`` pads it by the
    relative margin ``_SLACK`` to get its thinning envelope.
    """
    a, b = _check_interval(window)
    # the components on somewhere in [a, b), or at the point a == b
    return _bounds([c for c in spec.components if c.onset < b or c.onset == a == b], a, b)[1]


def _certified_windows(spec: RateSpec, horizon: float) -> list:
    """The windows (a, b, on, upper) of [0, horizon], in order, after every
    one is certified non-negative or a ValueError says where it is not;
    ``on`` are the components on throughout the window and ``upper`` bounds
    their sum there.  See the module docstring for the tolerance and the
    bisection limits."""
    onsets = [c.onset for c in spec.components if c.onset < horizon]
    edges = np.unique(np.concatenate([np.arange(0.0, horizon), onsets, [horizon]])).tolist()
    windows = []
    for a, b in zip(edges[:-1], edges[1:]):
        on = [c for c in spec.components if c.onset <= a]
        lower, upper = _bounds(on, a, b)
        stack, examined = [(a, b, 0, lower, upper)], 0
        while stack:
            lo, hi, depth, low, high = stack.pop()
            examined += 1
            if low >= -_SLACK * high:
                continue
            mid = 0.5 * (lo + hi)
            value = eval_rate(spec, mid)
            if value < -_SLACK * high:
                raise ValueError(
                    f"rate function is negative on [{a}, {b}): Lambda({mid}) = {value}")
            if depth >= _CERTIFY_DEPTH or examined >= _CERTIFY_WINDOWS or not lo < mid < hi:
                raise ValueError(
                    f"cannot certify that the rate function is non-negative on [{lo}, {hi}): "
                    f"its components' minima sum below zero there, but no sampled "
                    f"Lambda(t) was negative"
                )
            stack.append((mid, hi, depth + 1, *_bounds(on, mid, hi)))
            stack.append((lo, mid, depth + 1, *_bounds(on, lo, mid)))
        windows.append((a, b, on, upper))
    return windows


def _pieces(spec: RateSpec, horizon: float) -> list:
    """The thinning pieces (lo, hi, on, envelope) of [0, horizon], in order:
    each certified window cut as the module docstring says."""
    pieces = []
    for a, b, on, upper in _certified_windows(spec, horizon):
        expected = upper * (1 + _SLACK) * (b - a)
        if expected > 0:
            n = math.ceil(expected / _PIECE_CANDIDATES)
            # np.linspace(a, b, 2) is [a, b], which needs no call
            cuts = [a, b] if n == 1 else np.linspace(a, b, n + 1).tolist()
            for lo, hi in zip(cuts[:-1], cuts[1:]):
                envelope = _bounds(on, lo, hi)[1] * (1 + _SLACK)
                if envelope > 0:
                    pieces.append((lo, hi, on, envelope))
    return pieces


def _thinned_piece(on: list, lo: float, hi: float, envelope: float, rng,
                   scratch: np.ndarray, out: np.ndarray) -> int:
    """Thin ``scratch.shape[1]`` candidates on [lo, hi) and write the
    accepted event times, sorted, to the start of ``out``; return how many
    were accepted.  ``on`` are the components that are on throughout the
    piece and ``envelope`` bounds their sum.  ``scratch`` holds three rows
    of the candidates' size: the positions u, the acceptance uniforms v and
    Lambda(u).  The draws equal ``rng.uniform(lo, hi)`` and
    ``rng.uniform(0, envelope)`` bit for bit, since numpy computes those as
    lo + (hi - lo) * d."""
    u, v, lam = scratch
    rng.random(out=u)
    u *= hi - lo
    u += lo
    for i, comp in enumerate(on):
        # A * x(u - t0): the first in lam, each later one in v, which is
        # free until the acceptance draw, and added to lam
        x = np.subtract(u, comp.onset, out=v) if comp.onset else u
        x = comp.shape.value(x, out=v if i else lam)
        x *= comp.amplitude
        if i:
            lam += x
        else:
            lam = x  # lam itself, unless the shape returned an array of its own
    i = int(np.argmax(lam))
    if lam[i] > envelope:
        raise RuntimeError(
            f"internal consistency failure: envelope {envelope} below "
            f"Lambda({u[i]}) = {lam[i]} on window [{lo}, {hi})"
        )
    i = int(np.argmin(lam))
    if lam[i] < -_SLACK * envelope:
        raise RuntimeError(
            f"internal consistency failure: Lambda({u[i]}) = {lam[i]} is negative "
            f"on window [{lo}, {hi}), which was certified non-negative"
        )
    rng.random(out=v)
    v *= envelope
    accepted = u[v < lam]
    accepted.sort()
    out[:accepted.size] = accepted
    return accepted.size


def _thinned_block(pieces: list, counts: list, rng, out: np.ndarray) -> int:
    """Thin consecutive ``pieces``, each with its candidate count, from
    ``rng``; write the events to the start of ``out`` in order and return
    how many there are.  The scratch rows of ``_thinned_piece`` are
    allocated once, at the largest count."""
    scratch = np.empty((3, max(counts, default=0)))
    m = 0
    for (lo, hi, on, envelope), n in zip(pieces, counts):
        if n:
            m += _thinned_piece(on, lo, hi, envelope, rng, scratch[:, :n], out[m:])
    return m


def _cpu_count() -> int:
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _blocks(slots: np.ndarray, workers: int) -> list:
    """At most ``workers`` blocks (first, end) of consecutive pieces, in
    order, with about equal candidates each; ``slots`` holds each piece's
    first candidate slot and then the total."""
    if workers == 1:
        return [(0, slots.size - 1)]
    targets = slots[-1] * np.arange(workers) / workers
    starts = np.unique(np.append(np.searchsorted(slots[:-1], targets), slots.size - 1))
    return list(zip(starts[:-1].tolist(), starts[1:].tolist()))


def _slide(out: np.ndarray, dst: int, src: int, n: int) -> None:
    """Move ``out[src:src + n]`` left to ``out[dst:dst + n]`` in moves of at
    most ``_PIECE_CANDIDATES`` elements, so no temporary is larger."""
    for i in range(0, n, _PIECE_CANDIDATES):
        j = min(i + _PIECE_CANDIDATES, n)
        out[dst + i:dst + j] = out[src + i:src + j]


def _thinned(pieces: list, counts: list, slots: list, blocks: list, rng,
             out: np.ndarray) -> int:
    """Thin the ``blocks`` of pieces at once, each from its own position in
    ``rng``'s stream, then slide their events together at the front of
    ``out``; return how many there are.  The calling thread thins the first
    block from ``rng``, which then ends where the last block's draws end;
    each other block has a pool thread of its own."""
    if len(blocks) == 1:
        return _thinned_block(pieces, counts, rng, out)
    bits = rng.bit_generator
    streams = []
    for a, _ in blocks[1:]:  # each candidate takes two doubles of one output each
        skipped = type(bits)()
        skipped.state = bits.state
        skipped.advance(2 * slots[a])
        streams.append(np.random.Generator(skipped))
    kept = bits.state
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(len(blocks) - 1) as pool:
        futures = [pool.submit(_thinned_block, pieces[a:b], counts[a:b], stream, out[slots[a]:])
                   for (a, b), stream in zip(blocks[1:], streams)]
        a, b = blocks[0]
        filled = [_thinned_block(pieces[a:b], counts[a:b], rng, out)]
    filled += [future.result() for future in futures]
    # advancing drops the buffered half of a 32-bit draw, which doubles never
    # touch: the caller's generator keeps its own
    state = streams[-1].bit_generator.state
    state.update(has_uint32=kept["has_uint32"], uinteger=kept["uinteger"])
    bits.state = state
    m = filled[0]
    for (a, _), n in zip(blocks[1:], filled[1:]):
        _slide(out, m, slots[a], n)
        m += n
    return m


def simulate(spec: RateSpec, horizon: float, seed) -> EventTimes:
    """Draw one realization of the process on [0, horizon].

    ``seed`` may be an integer, a SimSeed, or a numpy Generator.  Equal
    (seed, stream) inputs give bit-identical output, and a Generator ends
    where the draws end, on any number of CPUs: the pieces are thinned in
    blocks on threads of their own, each block from its own position in
    the one random stream (see the module docstring).  Every piece's
    candidate count is drawn before any candidate, so a seed gives a
    different realization than it did in versions that drew each count
    just before its piece's candidates; the law is the same.
    """
    horizon = _check_delta(horizon, "horizon")
    pieces = _pieces(spec, horizon)
    rng = generator(seed)
    counts = rng.poisson([envelope * (hi - lo) for lo, hi, _, envelope in pieces])
    slots = np.concatenate(([0], np.cumsum(counts, dtype=np.int64)))
    out = np.empty(slots[-1])
    workers = 1
    # only the PCG64 family's advance(k) skips exactly k outputs, one per
    # double: MT19937 and SFC64 cannot advance, and Philox advances in
    # steps of four outputs
    if type(rng.bit_generator) in (np.random.PCG64, np.random.PCG64DXSM):
        workers = max(1, min(_cpu_count(), len(pieces), slots[-1] // _BLOCK_CANDIDATES))
    m = _thinned(pieces, counts.tolist(), slots.tolist(), _blocks(slots, workers), rng, out)
    return EventTimes(times=out[:m], horizon=horizon)


def _integrated(spec: RateSpec, t: np.ndarray) -> np.ndarray:
    """The integral of Lambda over [0, t] at each entry of ``t``, from each
    shape's closed form."""
    out = np.zeros_like(t)
    for comp in spec.components:
        out += comp.amplitude * comp.shape.integral(np.maximum(t - comp.onset, 0.0))
    return out


def _split(n: int, mass: np.ndarray, rng) -> np.ndarray:
    """Multinomial(n, mass / sum(mass)) counts over the cells, by the exact
    Poisson split of the module docstring; ``mass`` (>= 0, with a positive
    sum) is scaled in place to the cells' Poisson means."""
    edges = np.cumsum(mass)
    total = edges[-1]
    # p_i, then times the mean total: (n - 2 sqrt(n)) / total overflows for a subnormal total
    mass /= total
    mass *= max(0.0, n - 2.0 * math.sqrt(n))
    cells = rng.poisson(mass)
    s = int(cells.sum())
    while s > n:
        cells = rng.poisson(mass)
        s = int(cells.sum())
    if s < n:
        top_up = rng.random(n - s)
        top_up.sort()
        top_up *= total
        hit = np.searchsorted(edges, top_up, side="right")
        # a uniform that rounds up to the total falls past the last cell: it
        # goes to the last cell with mass, not to a trailing one with none
        np.minimum(hit, np.searchsorted(edges, total), out=hit)
        cells += np.bincount(hit, minlength=mass.size)
    return cells


def draw_counts(spec: RateSpec, times, horizon: float, seed) -> SampledCounts:
    """Draw N of one realization at ``times`` only (each clamped to
    [0, horizon]), plus 0 and the horizon, without drawing event times.

    Exact in law: N(horizon) ~ Poisson(Lambda's integral over [0, horizon])
    is the first draw, so it does not depend on ``times``; then those
    events are spread over the cells between consecutive distinct times as
    one multinomial, with each cell's share of that integral as its
    probability, drawn by the exact Poisson split of the module docstring
    (independent Poissons at a total about 2 sqrt(N) below N(horizon), all
    drawn again when they overshoot it, and the missing events placed by
    mass).  A cell with zero mass gets no event.  The rate is certified
    non-negative as in ``simulate``; see the module docstring for the
    rounding tolerance on the cells.  ``seed`` is taken as by ``simulate``;
    a Generator passed in ends at a place that depends on the seed.

    ``times`` that already rise strictly from +0.0 to the horizon, such as a
    heatmap's read grid, are that grid: a copy of them is taken, not sorted
    again.  Any other ``times`` are sorted and made distinct with 0 and the
    horizon added.  Both give the same grid and the same draw.
    """
    horizon = _check_delta(horizon, "horizon")
    times = np.asarray(times, dtype=np.float64).ravel()
    if not np.isfinite(times).all():
        raise ValueError(f"times must be finite, got {times[~np.isfinite(times)][0]}")
    _certified_windows(spec, horizon)
    if (times.size and times[0] == 0.0 and not np.signbit(times[0]) and times[-1] == horizon
            and (times[1:] > times[:-1]).all()):
        grid = times.copy()  # already the grid np.unique would make
    else:
        grid = np.unique(np.concatenate(([0.0, horizon], np.clip(times, 0.0, horizon))))
    integral = _integrated(spec, grid)
    total, mass = integral[-1], np.diff(integral)
    i = int(np.argmin(mass))  # the grid holds 0 and the horizon: one cell at least
    if mass[i] < 0:
        if mass[i] < -_ROUNDING * total:
            raise RuntimeError(
                f"internal consistency failure: the integral of Lambda over "
                f"[{grid[i]}, {grid[i + 1]}] is {mass[i]}, below zero by more than rounding")
        mass = np.maximum(mass, 0.0)
    rng = generator(seed)
    n = int(rng.poisson(total))
    cells = _split(n, mass, rng) if n else np.zeros(mass.size, dtype=np.int64)
    counts = np.zeros(grid.size, dtype=np.int64)
    np.cumsum(cells, out=counts[1:])
    return SampledCounts(grid, counts, horizon)


# ---------------------------------------------------------------------------
# text format: one component per line, e.g.
#   A=1e6 t0=0 shape=sinusoid params=1,1,0


def _format_component(comp: JumpComponent) -> str:
    shape = comp.shape  # a polynomial's one field holds every param
    values = shape.coeffs if isinstance(shape, Polynomial) else dataclasses.astuple(shape)
    params = ",".join(repr(p) for p in values)
    return f"A={comp.amplitude!r} t0={comp.onset!r} shape={shape.name} params={params}"


def format_rate_spec(spec: RateSpec) -> str:
    return "\n".join(_format_component(c) for c in spec.components) + "\n"


def _parse_component(line: str, where: str) -> JumpComponent:
    fields = {}
    for token in line.split():
        if "=" not in token:
            raise ValueError(f"{where}: expected key=value tokens, got {token!r}")
        key, _, value = token.partition("=")
        fields[key] = value
    missing = {"A", "t0", "shape"} - fields.keys()
    if missing:
        raise ValueError(f"{where}: missing fields {sorted(missing)}")
    shape_name = fields["shape"]
    if shape_name not in _SHAPE_NAMES:
        raise ValueError(
            f"{where}: unknown shape {shape_name!r}; "
            f"expected one of {sorted(_SHAPE_NAMES)}"
        )
    cls = _SHAPE_NAMES[shape_name]
    try:
        params = [_parse_number(p) for p in fields.get("params", "").split(",") if p.strip() != ""]
        if cls is Polynomial:  # its one field takes every param
            shape = Polynomial(tuple(params))
        else:
            names = [f.name for f in dataclasses.fields(cls)]
            needed = sum(f.default is dataclasses.MISSING for f in dataclasses.fields(cls))
            if not needed <= len(params) <= len(names):
                usage = ",".join(names[:needed]) + "".join(f"[,{n}]" for n in names[needed:])
                raise ValueError(
                    f"{cls.name} takes " + (f"params={usage}" if names else "no params"))
            shape = cls(*params)
        return JumpComponent(amplitude=_parse_number(fields["A"]),
                             onset=_parse_number(fields["t0"]), shape=shape)
    except ValueError as exc:
        raise ValueError(f"{where}: {exc}") from None


def parse_rate_spec(text: str, source: str = "<string>") -> RateSpec:
    components = [_parse_component(line, f"{source}: line {lineno}")  # split as file lines
                  for lineno, line in _text_lines(io.StringIO(text, newline=""))]
    if not components:
        raise ValueError(f"{source}: no components")
    return RateSpec(components=tuple(components))


def load_rate_spec(path) -> RateSpec:
    """``parse_rate_spec`` of the file's text; a leading byte-order mark is
    skipped, and a byte that is not UTF-8 is an error naming its line."""
    with _input_file(path, "line") as fh:
        return parse_rate_spec(fh.read(), source=str(path))


def save_rate_spec(spec: RateSpec, path) -> None:
    _write_lines(path, format_rate_spec(spec).splitlines())


# ---------------------------------------------------------------------------
# presets


# Each rate preset is base * shape(t) + jump * exp(-(t - onset)) for t >= onset:
# its base shape, and the defaults of base, jump and onset
RATE_PRESETS = {
    "sin-plus-exp": (Sinusoid(offset=1.0, omega=1.0), {"base": 1e6, "jump": 4e4, "onset": 9.0}),
    "const-plus-exp": (Constant(), {"base": 1e4, "jump": 8e3, "onset": 1.0}),
}


def preset_rate_spec(name: str, **overrides) -> RateSpec:
    """Build a named rate preset; keyword overrides adjust its parameters.
    An unknown name, or a parameter the preset does not take, is a
    ValueError naming what it has."""
    if name not in RATE_PRESETS:
        raise ValueError(f"unknown rate preset {name!r}; have {sorted(RATE_PRESETS)}")
    shape, defaults = RATE_PRESETS[name]
    unknown = sorted(set(overrides) - set(defaults))
    if unknown:
        raise ValueError(f"rate preset {name!r} takes {', '.join(defaults)}, "
                         f"not {', '.join(unknown)}")
    params = {**defaults, **overrides}
    return RateSpec(components=(JumpComponent(params["base"], 0.0, shape),
                                JumpComponent(params["jump"], params["onset"], ExpDecay(rate=1.0))))
