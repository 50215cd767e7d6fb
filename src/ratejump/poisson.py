"""Inhomogeneous Poisson simulation by thinning.

A rate function is a sum of onset components

    Lambda(t) = sum_i A_i * x_i(t - t_i) * 1(t >= t_i),

where each shape x_i is one of: constant 1, offset sinusoid, exponential
decay, or polynomial.

Windows.  ``simulate`` cuts [0, horizon] at every integer and at every
onset, so on each window [a, b) every component is either on throughout or
off throughout, and Lambda is the sum of the on components' smooth shapes.
One pass, before the first draw, certifies each window (below) and splits
it: a window whose envelope M expects M*(b - a) thinning candidates is cut
into ceil(M*(b - a) / 2**15) equal pieces.  The split depends only on the
input: each piece draws about 2**15 candidates or fewer, so its arrays stay
small, and its own envelope follows Lambda more closely than the window's.
``simulate`` then only thins the pieces in order.

Thinning (Lewis & Shedler, 1979).  On a piece [c, d) with envelope
M >= sup Lambda, draw Poisson(M*(d - c)) uniform candidates, accept the one
at t when a Uniform(0, M) draw is below Lambda(t), and sort only the
accepted ones.  The result is exact in law for any such M; a tighter M only
wastes fewer candidates.

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

Non-negativity.  Before anything is drawn, every window is certified: the
sum of its components' minima must be >= -_SLACK times the sum of their
maxima.  A window that fails is bisected.  Lambda is sampled at the
midpoint of each uncertified window, and a negative sample raises a
ValueError naming Lambda(t); a window that is still uncertified after
``_CERTIFY_DEPTH`` halvings, or once ``_CERTIFY_WINDOWS`` sub-windows have
been examined, raises a ValueError naming that window.  Inside thinning a
candidate with Lambda(t) < -_SLACK * M raises RuntimeError; nothing is
clamped to zero.

Output.  The pieces are disjoint and ascending, so concatenating their
sorted accepted times gives the sorted realization and no dedupe pass is
needed.  Two event times coincide only through floating-point rounding of
continuous draws; such a tie is kept (``EventTimes`` allows ties), because
dropping it would lose an event.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from .process import EventTimes
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
# Expected thinning candidates per piece of a window.
_PIECE_CANDIDATES = 2**15
# Bisection limits of the non-negativity certificate, per window.
_CERTIFY_DEPTH = 40
_CERTIFY_WINDOWS = 4096


def _require_finite(shape: str, field: str, value: float) -> None:
    if not math.isfinite(value):
        raise ValueError(f"{shape} {field} must be finite, got {value}")


@dataclass(frozen=True)
class Constant:
    """x(u) = 1; the amplitude carries all the scale."""

    def value(self, u):
        return np.ones_like(np.asarray(u, dtype=np.float64))

    def bounds(self, u0: float, u1: float) -> tuple:
        return 1.0, 1.0

    name = "constant"


@dataclass(frozen=True)
class Sinusoid:
    """x(u) = offset + sin(omega*u + phase)."""

    offset: float
    omega: float
    phase: float = 0.0

    def __post_init__(self) -> None:
        for field in ("offset", "omega", "phase"):
            _require_finite("sinusoid", field, getattr(self, field))

    def value(self, u):
        u = np.asarray(u, dtype=np.float64)
        return self.offset + np.sin(self.omega * u + self.phase)

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

    name = "sinusoid"


@dataclass(frozen=True)
class ExpDecay:
    """x(u) = exp(-rate*u), decreasing: the maximum is the left value and the
    minimum the right value."""

    rate: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.rate) and self.rate > 0):
            raise ValueError(f"expdecay rate must be positive and finite, got {self.rate}")

    def value(self, u):
        return np.exp(-self.rate * np.asarray(u, dtype=np.float64))

    def bounds(self, u0: float, u1: float) -> tuple:
        return math.exp(-self.rate * u1), math.exp(-self.rate * u0)

    name = "expdecay"


@dataclass(frozen=True)
class Polynomial:
    """x(u) = sum_i coeffs[i] * u**i (ascending powers)."""

    coeffs: tuple

    def __post_init__(self) -> None:
        object.__setattr__(self, "coeffs", tuple(float(c) for c in self.coeffs))
        if not self.coeffs:
            raise ValueError("polynomial needs at least one coefficient")
        for i, c in enumerate(self.coeffs):
            _require_finite("polynomial", f"coefficient {i}", c)

    def value(self, u):
        return np.polynomial.polynomial.polyval(
            np.asarray(u, dtype=np.float64), np.asarray(self.coeffs)
        )

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

    name = "polynomial"


_SHAPE_NAMES = {
    "constant": Constant,
    "sinusoid": Sinusoid,
    "expdecay": ExpDecay,
    "exponential-decay": ExpDecay,
    "polynomial": Polynomial,
}


@dataclass(frozen=True)
class JumpComponent:
    """One onset component A * x(t - t0) * 1(t >= t0)."""

    amplitude: float
    onset: float
    shape: object

    def __post_init__(self) -> None:
        if not (math.isfinite(self.amplitude) and self.amplitude > 0):
            raise ValueError(f"amplitude must be positive, got {self.amplitude}")
        if not (math.isfinite(self.onset) and self.onset >= 0):
            raise ValueError(f"onset must be >= 0, got {self.onset}")
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
    """Lambda(t), vectorized; right-continuous at onsets (t == onset is in)."""
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
    a, b = float(window[0]), float(window[1])
    if b < a:
        raise ValueError(f"window must satisfy a <= b, got {window}")
    # the components on somewhere in [a, b), or at the point a == b
    return _bounds([c for c in spec.components if c.onset < b or c.onset == a == b], a, b)[1]


def _pieces(spec: RateSpec, horizon: float) -> list:
    """The thinning pieces (lo, hi, on, envelope) of [0, horizon], in order,
    after every window is certified non-negative or a ValueError says where
    it is not; ``on`` are the components that are on throughout the piece.
    See the module docstring for the tolerance and the bisection limits."""
    onsets = [c.onset for c in spec.components if c.onset < horizon]
    edges = np.unique(np.concatenate([np.arange(0.0, horizon), onsets, [horizon]])).tolist()
    pieces = []
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
        expected = upper * (1 + _SLACK) * (b - a)
        if expected > 0:
            cuts = np.linspace(a, b, math.ceil(expected / _PIECE_CANDIDATES) + 1).tolist()
            for lo, hi in zip(cuts[:-1], cuts[1:]):
                envelope = _bounds(on, lo, hi)[1] * (1 + _SLACK)
                if envelope > 0:
                    pieces.append((lo, hi, on, envelope))
    return pieces


def _thinned_piece(on: list, lo: float, hi: float, envelope: float, rng) -> np.ndarray:
    """Accepted event times in [lo, hi), sorted; ``on`` are the components
    that are on throughout the piece and ``envelope`` bounds their sum."""
    n = rng.poisson(envelope * (hi - lo))
    if n == 0:
        return np.empty(0)
    u = rng.uniform(lo, hi, size=n)
    lam = np.zeros(n)
    for comp in on:
        lam += comp.amplitude * comp.shape.value(u - comp.onset)
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
    accept = rng.uniform(0.0, envelope, size=n) < lam
    return np.sort(u[accept])


def simulate(spec: RateSpec, horizon: float, seed) -> EventTimes:
    """Draw one realization of the process on [0, horizon].

    ``seed`` may be an integer, a SimSeed, or a numpy Generator.  Equal
    (seed, stream) inputs give bit-identical output.
    """
    if not (math.isfinite(horizon) and horizon > 0):
        raise ValueError(f"horizon must be positive and finite, got {horizon}")
    pieces = _pieces(spec, horizon)
    rng = seed if isinstance(seed, np.random.Generator) else generator(seed)
    chunks = [np.empty(0)] + [_thinned_piece(on, lo, hi, envelope, rng)
                              for lo, hi, on, envelope in pieces]
    return EventTimes(times=np.concatenate(chunks), horizon=float(horizon))


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
            f"expected one of {sorted(set(_SHAPE_NAMES))}"
        )
    cls = _SHAPE_NAMES[shape_name]
    try:
        params = [float(p) for p in fields.get("params", "").split(",") if p.strip() != ""]
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
        return JumpComponent(amplitude=float(fields["A"]), onset=float(fields["t0"]), shape=shape)
    except ValueError as exc:
        raise ValueError(f"{where}: {exc}") from None


def parse_rate_spec(text: str, source: str = "<string>") -> RateSpec:
    components = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        components.append(_parse_component(line, f"{source}: line {lineno}"))
    if not components:
        raise ValueError(f"{source}: no components")
    return RateSpec(components=tuple(components))


def load_rate_spec(path) -> RateSpec:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_rate_spec(fh.read(), source=str(path))


def save_rate_spec(spec: RateSpec, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_rate_spec(spec))


# ---------------------------------------------------------------------------
# presets


def _sin_plus_exp(base: float = 1e6, jump: float = 4e4, onset: float = 9.0) -> RateSpec:
    """Lambda(t) = base*(1 + sin t) + jump * exp(-(t - onset)) * 1(t >= onset)."""
    return RateSpec(
        components=(
            JumpComponent(amplitude=base, onset=0.0, shape=Sinusoid(offset=1.0, omega=1.0)),
            JumpComponent(amplitude=jump, onset=onset, shape=ExpDecay(rate=1.0)),
        )
    )


def _const_plus_exp(base: float = 1e4, jump: float = 8e3, onset: float = 1.0) -> RateSpec:
    """Lambda(t) = base + jump * exp(-(t - onset)) * 1(t >= onset)."""
    return RateSpec(
        components=(
            JumpComponent(amplitude=base, onset=0.0, shape=Constant()),
            JumpComponent(amplitude=jump, onset=onset, shape=ExpDecay(rate=1.0)),
        )
    )


RATE_PRESETS = {
    "sin-plus-exp": _sin_plus_exp,
    "const-plus-exp": _const_plus_exp,
}


def preset_rate_spec(name: str, **overrides) -> RateSpec:
    """Build a named rate preset; keyword overrides adjust its parameters."""
    if name not in RATE_PRESETS:
        raise ValueError(f"unknown rate preset {name!r}; have {sorted(RATE_PRESETS)}")
    return RATE_PRESETS[name](**overrides)
