import hashlib
import math
import re
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats

from ratejump import poisson
from ratejump.poisson import (
    Constant,
    ExpDecay,
    JumpComponent,
    Polynomial,
    RateSpec,
    Sinusoid,
    eval_rate,
    format_rate_spec,
    load_rate_spec,
    parse_rate_spec,
    preset_rate_spec,
    rate_upper_bound,
    save_rate_spec,
    simulate,
)
from ratejump.seeding import SimSeed


def sin_exp_spec(base=1e6, jump=4e4, onset=9.0):
    return RateSpec(
        components=(
            JumpComponent(base, 0.0, Sinusoid(offset=1.0, omega=1.0)),
            JumpComponent(jump, onset, ExpDecay(rate=1.0)),
        )
    )


def const_spec(rate):
    return RateSpec(components=(JumpComponent(rate, 0.0, Constant()),))


def test_eval_rate_benchmark_values():
    spec = sin_exp_spec()
    assert eval_rate(spec, 0.0) == pytest.approx(1e6)
    assert eval_rate(spec, 9.0) == pytest.approx(1e6 * (1 + math.sin(9)) + 4e4)
    assert eval_rate(spec, 8.999999) == pytest.approx(1e6 * (1 + math.sin(8.999999)), rel=1e-6)
    # before every onset the rate is zero
    late = RateSpec(components=(JumpComponent(5.0, 3.0, Constant()),))
    assert eval_rate(late, 2.9) == 0.0
    assert eval_rate(late, 3.0) == 5.0  # right-continuous at the onset


def test_eval_rate_vectorized():
    spec = const_spec(7.0)
    out = eval_rate(spec, np.array([0.0, 1.0, 2.0]))
    assert out.tolist() == [7.0, 7.0, 7.0]


def test_rate_upper_bound_dominates():
    spec = sin_exp_spec(base=100.0, jump=40.0)
    rng = np.random.default_rng(0)
    for a in rng.uniform(0, 19, size=25):
        b = a + 1.0
        bound = rate_upper_bound(spec, (a, b))
        ts = np.linspace(a, b, 101)
        assert bound >= eval_rate(spec, ts).max() - 1e-9


def test_rate_upper_bound_shapes():
    assert rate_upper_bound(const_spec(50.0), (3.0, 4.0)) == 50.0
    sin = RateSpec(components=(JumpComponent(10.0, 0.0, Sinusoid(offset=2.0, omega=1.0)),))
    assert rate_upper_bound(sin, (0.0, 1.0)) == 10.0 * (2.0 + math.sin(1.0))  # no crest inside
    dec = RateSpec(components=(JumpComponent(10.0, 5.0, ExpDecay(rate=1.0)),))
    assert rate_upper_bound(dec, (5.0, 6.0)) == 10.0  # value at the onset
    assert rate_upper_bound(dec, (4.0, 4.5)) == 0.0  # not yet active
    poly = RateSpec(components=(JumpComponent(1.0, 0.0, Polynomial(coeffs=(1.0, -2.0, 3.0))),))
    assert rate_upper_bound(poly, (0.0, 2.0)) == 9.0  # x(2); the critical point 1/3 is a minimum


def _second_derivative_bound(shape, u):
    """max |x''| over the sample points u."""
    if isinstance(shape, Sinusoid):
        return shape.omega**2
    if isinstance(shape, ExpDecay):
        return shape.rate**2 * math.exp(-shape.rate * u[0])
    if isinstance(shape, Polynomial):
        P = np.polynomial.polynomial
        return float(np.abs(P.polyval(u, P.polyder(shape.coeffs, 2))).max())
    return 0.0


_SHAPES = st.one_of(
    st.just(Constant()),
    st.builds(Sinusoid, offset=st.floats(-2, 2), omega=st.floats(-20, 20),
              phase=st.floats(-10, 10)),
    st.builds(ExpDecay, rate=st.floats(0.01, 10)),
    st.builds(Polynomial, coeffs=st.lists(st.floats(-10, 10), min_size=1, max_size=5).map(tuple)),
)


@given(shape=_SHAPES, u0=st.floats(0, 10), width=st.floats(0, 3))
@settings(max_examples=300, deadline=None)
def test_shape_bounds_are_exact_extrema(shape, u0, width):
    u1 = u0 + width
    n = 20_000
    u = np.linspace(u0, u1, n + 1)
    vals = shape.value(u)
    lower, upper = shape.bounds(u0, u1)
    rounding = 1e-12 * (1.0 + np.abs(vals).max())
    # between grid points an interior extremum exceeds the grid by at most
    # h**2/8 * max|x''|; a looser bound than that fails
    miss = 2 * (width / n) ** 2 / 8 * _second_derivative_bound(shape, u) + rounding
    assert vals.max() - rounding <= upper <= vals.max() + miss
    assert vals.min() - miss <= lower <= vals.min() + rounding


def test_component_validation():
    with pytest.raises(ValueError, match="amplitude"):
        JumpComponent(-1.0, 0.0, Constant())
    with pytest.raises(ValueError, match="onset"):
        JumpComponent(1.0, -0.5, Constant())
    # a delayed component must actually jump at its onset
    with pytest.raises(ValueError, match="must jump"):
        JumpComponent(1.0, 2.0, Sinusoid(offset=0.0, omega=1.0, phase=0.0))
    # same shape is fine when it starts at zero
    JumpComponent(1.0, 0.0, Sinusoid(offset=0.0, omega=1.0, phase=0.5))


def test_simulate_rejects_negative_rate():
    # offset-0 sinusoid from t=0 goes negative after pi
    spec = RateSpec(
        components=(JumpComponent(5.0, 0.0, Sinusoid(offset=0.0, omega=1.0, phase=0.5)),)
    )
    with pytest.raises(ValueError, match="negative"):
        simulate(spec, 10.0, 0)


def test_simulate_certifies_before_any_draw():
    # the rate turns negative only after t = pi - 0.5, about 2.6: every
    # window is certified before the generator is touched
    spec = RateSpec(
        components=(JumpComponent(5.0, 0.0, Sinusoid(offset=0.0, omega=1.0, phase=0.5)),)
    )
    rng = np.random.default_rng(3)
    state = rng.bit_generator.state
    with pytest.raises(ValueError, match="negative"):
        simulate(spec, 10.0, rng)
    assert rng.bit_generator.state == state


def test_simulate_envelope_consistency_guard():
    class LyingShape:
        name = "constant"

        def value(self, u, out=None):
            return np.ones_like(np.asarray(u, dtype=float)) * 5.0

        def bounds(self, u0, u1):
            return 5.0, 1.0  # wrong on purpose: the maximum is below the true value

    spec = RateSpec(components=(JumpComponent(100.0, 0.0, LyingShape()),))
    with pytest.raises(RuntimeError, match="envelope"):
        simulate(spec, 2.0, 0)


def test_simulate_negative_rate_guard_never_clamps():
    class LyingShape:
        name = "constant"

        def value(self, u, out=None):
            return -np.ones_like(np.asarray(u, dtype=float))

        def bounds(self, u0, u1):
            return 1.0, 1.0  # wrong on purpose: the minimum certifies a negative shape

    spec = RateSpec(components=(JumpComponent(100.0, 0.0, LyingShape()),))
    with pytest.raises(RuntimeError, match="negative"):
        simulate(spec, 2.0, 0)


def test_simulate_rejects_narrow_negative_dip():
    # 1e4*((u - 10.02)**2 - 1e-8) dips to -1e-4 on |u - 10.02| < 1e-4, far
    # narrower than any fixed sampling grid
    c = 10.02
    spec = RateSpec(components=(JumpComponent(1e4, 0.0, Polynomial((c * c - 1e-8, -2 * c, 1.0))),))
    with pytest.raises(ValueError, match=r"negative on \[10.0, 11.0\): Lambda\(10.02"):
        simulate(spec, 20.0, 0)


def test_simulate_uncertifiable_window_named():
    # u**2 + (1 - 2u) = (u - 1)**2 touches zero at 1 through cancellation
    # between two components, so windows near 1 cannot be certified
    spec = RateSpec(
        components=(
            JumpComponent(1.0, 0.0, Polynomial((0.0, 0.0, 1.0))),
            JumpComponent(1.0, 0.0, Polynomial((1.0, -2.0))),
        )
    )
    with pytest.raises(ValueError, match=r"cannot certify .* on \[0\.99"):
        simulate(spec, 2.0, 0)


@pytest.mark.parametrize(
    "make, field",
    [
        (lambda: Sinusoid(offset=math.nan, omega=1.0), "offset"),
        (lambda: Sinusoid(offset=1.0, omega=math.inf), "omega"),
        (lambda: Sinusoid(offset=1.0, omega=1.0, phase=-math.inf), "phase"),
        (lambda: ExpDecay(rate=math.inf), "rate"),
        (lambda: Polynomial((1.0, math.nan)), "coefficient 1"),
    ],
)
def test_shape_rejects_non_finite_parameters(make, field):
    with pytest.raises(ValueError, match=f"{field} must be .*finite"):
        make()


def test_fixed_seed_count_band():
    events = simulate(const_spec(1000.0), 10.0, 12345)
    assert 9500 <= len(events) <= 10500
    assert events.horizon == 10.0
    assert np.all(np.diff(events.times) > 0)  # sorted, duplicate-free


def _compensator(spec, t):
    """int_0^t Lambda, in closed form per shape."""
    t = np.asarray(t, dtype=np.float64)
    total = np.zeros_like(t)
    for comp in spec.components:
        u = np.maximum(t - comp.onset, 0.0)
        shape = comp.shape
        if isinstance(shape, Sinusoid):
            part = shape.offset * u + (
                math.cos(shape.phase) - np.cos(shape.omega * u + shape.phase)
            ) / shape.omega
        elif isinstance(shape, ExpDecay):
            part = (1.0 - np.exp(-shape.rate * u)) / shape.rate
        elif isinstance(shape, Polynomial):
            P = np.polynomial.polynomial
            part = P.polyval(u, P.polyint(shape.coeffs))
        else:
            part = u
        total += comp.amplitude * part
    return total


def test_thinning_law_with_onsets_and_split_windows():
    # a sinusoid with crests inside unit windows, a polynomial whose onset
    # cuts [2, 3) in two and an exponential decay starting at 4.25; the peak
    # rate is about 9.6e4, so windows are split into several pieces
    spec = RateSpec(
        components=(
            JumpComponent(3e4, 0.0, Sinusoid(offset=1.2, omega=2.0, phase=0.3)),
            JumpComponent(2e4, 2.5, Polynomial((1.0, -0.5, 0.1))),
            JumpComponent(1e4, 4.25, ExpDecay(rate=2.0)),
        )
    )
    horizon, runs = 6.0, 8
    assert rate_upper_bound(spec, (4.25, 5.0)) * 0.75 > 2**15
    mean = float(_compensator(spec, horizon))
    rescaled, total = [], 0
    for s in range(runs):
        times = simulate(spec, horizon, SimSeed(11, s)).times
        total += times.size
        rescaled.append(_compensator(spec, times) / mean)
    z = (total - runs * mean) / math.sqrt(runs * mean)
    assert abs(z) <= 4.0
    # given the count, the rescaled times are iid uniform on [0, 1]
    assert stats.kstest(np.concatenate(rescaled), "uniform").pvalue > 1e-3


def test_determinism_and_streams():
    spec = sin_exp_spec(base=200.0, jump=50.0)
    a = simulate(spec, 20.0, SimSeed(7, 3))
    b = simulate(spec, 20.0, SimSeed(7, 3))
    c = simulate(spec, 20.0, SimSeed(7, 4))
    assert np.array_equal(a.times, b.times)
    assert not np.array_equal(a.times, c.times)


def test_expected_count_closed_form():
    # E N(20) = B*(21 - cos 20) + A*(1 - exp(-11)) for the sin+exp family
    base, jump = 1000.0, 40.0
    spec = sin_exp_spec(base=base, jump=jump)
    expected = base * (21 - math.cos(20)) + jump * (1 - math.exp(-11))
    counts = [len(simulate(spec, 20.0, SimSeed(99, s))) for s in range(30)]
    se = math.sqrt(expected / 30)
    assert np.mean(counts) == pytest.approx(expected, abs=4 * se)


def test_superposition():
    # sum of two constant processes matches one process at the summed rate
    n_runs = 200
    merged = [
        len(simulate(const_spec(30.0), 5.0, SimSeed(1, s)))
        + len(simulate(const_spec(20.0), 5.0, SimSeed(2, s)))
        for s in range(n_runs)
    ]
    combined = [len(simulate(const_spec(50.0), 5.0, SimSeed(3, s))) for s in range(n_runs)]
    # same mean (250) and Poisson dispersion; allow 4 sigma on the mean gap
    se = math.sqrt(2 * 250.0 / n_runs)
    assert abs(np.mean(merged) - np.mean(combined)) <= 4 * se


def test_interarrival_distribution():
    events = simulate(const_spec(500.0), 20.0, 2024)
    gaps = np.diff(events.times)
    assert stats.kstest(gaps, "expon", args=(0, 1 / 500.0)).pvalue > 0.01


def test_simulate_peak_memory_is_one_output_array():
    # each accepted event is written once, into the one array the events
    # are returned in: no per-piece list and no concatenated second copy
    spec = sin_exp_spec(base=5e4, jump=4e4)  # about 1e6 events on [0, 20]
    tracemalloc.start()
    try:
        events = simulate(spec, 20.0, 7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(events) > 900_000
    assert peak < 1.5 * events.times.nbytes


def test_eval_rate_peaks_below_three_and_a_half_arrays_of_its_times():
    # each component's value overwrites its own copy of its times, and its
    # amplitude scales that copy in place: the output, the copy, a mask of
    # the times it is on and one more array (the sine's 1 + t*t, or numpy's
    # copy of out[active] while the term is added) peak at 3.125 arrays
    spec = preset_rate_spec("sin-plus-exp", base=1e4, jump=8e3, onset=9.0)  # fig2-scaled's
    t = np.linspace(0.0, 20.0, 10**6)
    eval_rate(spec, t)  # numpy's lazy imports
    tracemalloc.start()
    try:
        eval_rate(spec, t)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3.5 * t.nbytes


SPECS = {
    # the benchmark's stream-jumps rate, about 5.6e6 events on [0, 20]
    "stream-jumps": (RateSpec(
        (JumpComponent(2.5e5, 0.0, Sinusoid(offset=1.0, omega=1.0)),)
        + tuple(JumpComponent(1.5e5, t, ExpDecay(rate=1.0)) for t in (4.0, 9.0, 14.0))), 20.0),
    # onsets inside unit windows, so some windows and pieces are short
    "mid-window-onsets": (RateSpec((
        JumpComponent(3e4, 0.0, Sinusoid(offset=1.2, omega=2.0, phase=0.3)),
        JumpComponent(2e4, 2.5, Polynomial((1.0, -0.5, 0.1))),
        JumpComponent(1e4, 4.25, ExpDecay(rate=1.0)))), 6.0),
}


def seed_of(kind):
    """A SimSeed, or a new Generator on the named bit generator; "buffered"
    is a PCG64 holding the unused half of an output after a 32-bit draw."""
    if kind == "SimSeed":
        return SimSeed(25, 1)
    if kind == "buffered":
        rng = np.random.default_rng(31)
        rng.integers(2**32, dtype=np.uint32)
        return rng
    return np.random.Generator(getattr(np.random, kind)(2025 if kind == "PCG64" else 7))


def next_draws(seed):
    """What a Generator draws next: the buffered half first, if any."""
    if not isinstance(seed, np.random.Generator):
        return None
    if seed.bit_generator.state.get("has_uint32"):
        return int(seed.integers(2**32, dtype=np.uint32)), seed.random()
    return seed.random()


# (spec, seed kind) -> (events, sha256 of the times, next_draws), from
# thinning every piece in order on one thread
PINNED = {
    ("stream-jumps", "SimSeed"): (
        5601292, "284598214e81e0647dae8424b266518bd207f3bf950d35a65f35046c017f665d", None),
    ("stream-jumps", "PCG64"): (
        5597183, "f33b2b86d882a322b71d5803f1b19c25173789a5b3e271c87f499b88952ced9a",
        0.7464083716838877),
    ("mid-window-onsets", "SimSeed"): (
        261443, "69101c7d562b4c3b2baca6bfbd7a468e9f8b4e3dcf387e227640977fb9b9f7c6", None),
    ("mid-window-onsets", "PCG64"): (
        260863, "c8d1d8597167026d255180f0daca82bb2133f14663e60d2c2d46294e1a3d7431",
        0.6498495848475517),
    ("mid-window-onsets", "buffered"): (
        260506, "0e8b28cbfef60b1f967dd1f9a1d417c021c5de9d1c54706dbe10d7f1a4b8ea30",
        (3879093390, 0.27214045718060476)),
    ("mid-window-onsets", "PCG64DXSM"): (
        261251, "8dac1a92971cd8698327f08a8cc1f1668536edd58681355282f8c70642f9dcab",
        0.902663208001979),
    # bit generators that cannot skip outputs one by one thin on one thread
    ("mid-window-onsets", "MT19937"): (
        261106, "9eec8ec0ebeef7a5c789a82e4fa5d3ceaf29dae8a043dbf411f6b5368ff514d7",
        0.6753420265705774),
    ("mid-window-onsets", "Philox"): (
        261511, "f8a663200ffe357282c773c1b005a2024fdf30c59e5bb37bc65b2ed0f2ee83ab",
        0.38551274982156725),
    ("mid-window-onsets", "SFC64"): (
        261417, "7616ee604b7172107f583b983c3cd15e9ac8585b017da1701e5a473cc5d35adb",
        0.7979869908463857),
}


def digest(events):
    return hashlib.sha256(memoryview(events.times)).hexdigest()


@pytest.mark.parametrize("spec_name, kind, cpus", [
    (spec_name, kind, cpus) for spec_name, kind in PINNED
    # one CPU count shows that the other bit generators keep to one block
    for cpus in ((1, 2, 3, 8) if kind in ("SimSeed", "PCG64", "buffered", "PCG64DXSM") else (8,))
])
def test_cpu_count_changes_no_bit_of_the_events_or_the_stream(monkeypatch, spec_name, kind,
                                                              cpus):
    monkeypatch.setattr(poisson, "_cpu_count", lambda: cpus)
    spec, horizon = SPECS[spec_name]
    seed = seed_of(kind)
    events = simulate(spec, horizon, seed)
    assert (len(events), digest(events), next_draws(seed)) == PINNED[spec_name, kind]


def test_threads_switching_every_microsecond_change_no_bit(monkeypatch):
    monkeypatch.setattr(poisson, "_cpu_count", lambda: 8)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        events = simulate(*SPECS["mid-window-onsets"], SimSeed(25, 1))
    finally:
        sys.setswitchinterval(interval)
    assert (len(events), digest(events), None) == PINNED["mid-window-onsets", "SimSeed"]


def test_only_large_realizations_thin_on_threads(monkeypatch):
    monkeypatch.setattr(poisson, "_cpu_count", lambda: 4)
    threads = []
    block = poisson._thinned_block
    monkeypatch.setattr(poisson, "_thinned_block",
                        lambda *args: threads.append(threading.current_thread()) or block(*args))
    simulate(const_spec(2e3), 20.0, 0)  # 4e4 candidates: one block
    assert threads == [threading.main_thread()]
    threads.clear()
    simulate(*SPECS["mid-window-onsets"], 0)  # about 2.9e5 candidates: four blocks
    assert len(threads) == 4 and threads.count(threading.main_thread()) == 1


class WrongPastFifteen:
    """Lambda = 5 everywhere, but the bounds claim at most 1 past t = 15."""

    name = "constant"

    def value(self, u, out=None):
        return np.full(np.shape(u), 5.0)

    def bounds(self, u0, u1):
        return (5.0, 5.0) if u1 <= 15.0 else (1.0, 1.0)


def test_failing_block_raises_and_leaves_no_thread(monkeypatch):
    monkeypatch.setattr(poisson, "_cpu_count", lambda: 2)
    threads = threading.active_count()
    spec = RateSpec(components=(JumpComponent(2e3, 0.0, WrongPastFifteen()),))
    with pytest.raises(RuntimeError, match="envelope"):
        simulate(spec, 20.0, 0)
    assert threading.active_count() == threads
    assert len(simulate(spec, 15.0, 0)) > 1e5
    assert threading.active_count() == threads


def assert_bit_identical(got, want):
    assert type(got) is type(want)
    assert np.array_equal(got, want)


def test_in_place_shape_values_equal_their_formulas_bit_for_bit():
    spec = sin_exp_spec(base=3e4, jump=2e4, onset=9.0)
    (base, sin), (jump, exp) = ((c.amplitude, c.shape) for c in spec.components)
    points = np.random.default_rng(5).uniform(0.0, 20.0, size=100_000)
    for t in (points, 12.25):
        u = np.asarray(t, dtype=np.float64)
        half_tan = np.tan(0.5 * (sin.omega * u + sin.phase))
        sin_want = sin.offset + 2.0 * half_tan / (1.0 + half_tan * half_tan)
        exp_want = np.exp(-exp.rate * (u - 9.0))
        assert_bit_identical(sin.value(t), sin_want)
        assert_bit_identical(exp.value(u - 9.0), exp_want)
        rate_want = base * sin_want + np.where(u >= 9.0, jump * exp_want, 0.0)
        assert_bit_identical(eval_rate(spec, t), rate_want if rate_want.ndim else float(rate_want))


@pytest.mark.parametrize("scale", [1.0, 20.0, 1e3, 1e5])
def test_half_angle_sine_is_within_four_ulp_of_numpy_sine(scale):
    theta = np.random.default_rng(8).uniform(-scale, scale, size=100_000)
    theta = np.concatenate((theta, np.pi * np.arange(-1000.0, 1001.0)))  # near sin's zeros
    got = Sinusoid(offset=0.0, omega=1.0).value(theta)
    want = np.sin(theta)
    assert (np.abs(got - want) <= 4 * np.spacing(np.abs(want))).all()
    for point in (0.5, 3.0, -1e5 + 0.25):  # a Python float
        got, want = Sinusoid(offset=0.0, omega=1.0).value(point), np.sin(point)
        assert abs(got - want) <= 4 * np.spacing(abs(want))


def half_angle_sine(theta):
    """The half-angle sine in whole-array steps, with no buffer."""
    t = np.tan(0.5 * theta)
    return 2.0 * (t / (t * t + 1.0))


@pytest.mark.parametrize("buffer", [None, "like-theta"])
def test_the_sine_takes_the_same_bits_in_steps_of_any_buffer(buffer):
    # None: a new array takes 1 + t*t; else one of theta's shape does, as a
    # thinning piece passes its output slots
    def sine(theta):
        assert poisson._sine(theta, None if buffer is None else np.empty(theta.shape)) is theta
        return theta

    theta = np.random.default_rng(52).uniform(-1.0, 1.0, size=50_000)
    theta *= 10.0 ** np.random.default_rng(53).uniform(0.0, 8.0, size=theta.size)
    theta[:5] = 0.0, np.pi, -np.pi, 1e8, -1e8
    assert_bit_identical(sine(theta.copy()), half_angle_sine(theta))
    # a 0-d theta, as JumpComponent's value(0.0) gives it, a strided 2-d
    # one and a Fortran-ordered one, each written in place
    assert sine(np.array(theta[3])) == half_angle_sine(theta[3])
    want = half_angle_sine(theta[:25_000]).reshape(50, 500)
    grid = np.zeros((100, 1000))
    grid[::2, ::2] = theta[:25_000].reshape(50, 500)
    sine(grid[::2, ::2])
    assert np.array_equal(grid[::2, ::2], want)
    assert not grid[1::2].any() and not grid[:, 1::2].any()
    fortran = np.asfortranarray(theta[:25_000].reshape(50, 500))
    assert np.array_equal(sine(fortran), want) and fortran.flags.f_contiguous


# a decay from 0, then a sinusoid from 3.5: the sinusoid's term is not the
# first, and its input is the onset-shifted row
LATE_SINUSOID = RateSpec((JumpComponent(1e4, 0.0, ExpDecay(rate=0.1)),
                          JumpComponent(3e4, 3.5, Sinusoid(offset=1.2, omega=2.0, phase=0.3))))


def test_a_late_sinusoid_thins_to_the_same_bits_on_any_number_of_cpus(monkeypatch):
    realizations = []
    for cpus in (1, 2, 8):
        monkeypatch.setattr(poisson, "_cpu_count", lambda: cpus)
        realizations.append(simulate(LATE_SINUSOID, 8.0, SimSeed(52, 0)))
    assert len(realizations[0]) > 2e5
    assert all(digest(r) == digest(realizations[0]) for r in realizations[1:])
    # the events follow Lambda: a chi-square over unit bins against its integrals
    counts = np.histogram(realizations[0].times, bins=np.arange(9.0))[0]
    means = np.diff(poisson._integrated(LATE_SINUSOID, np.arange(9.0)))
    assert stats.chisquare(counts, means * counts.sum() / means.sum()).pvalue > 1e-3


def thinning_peak(spec, n):
    """tracemalloc's peak while thinning one piece [15, 16) of ``spec`` with n
    candidates, under an envelope 64 times Lambda's bound there."""
    envelope = 64 * rate_upper_bound(spec, (15.0, 16.0))
    pieces = [(15.0, 16.0, list(spec.components), envelope)]
    out = np.empty(n)
    poisson._thinned_block(pieces, [n], np.random.default_rng(1), out)  # numpy's lazy imports
    tracemalloc.start()
    try:
        poisson._thinned_block(pieces, [n], np.random.default_rng(1), out)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_a_late_sinusoid_allocates_no_array_in_a_piece():
    # its 1 + t*t goes to the piece's output slots, as a first one's does: the
    # piece peaks within 8 KB of a one-component piece, where a sine with a
    # new array for it would add one of n values
    n = 2**15
    assert thinning_peak(LATE_SINUSOID, n) - thinning_peak(const_spec(1.0), n) < 8192


def test_thinning_a_piece_allocates_no_array_per_component():
    # Lambda's terms are built in the block's scratch rows, so a piece with
    # four components on peaks no higher than a piece with one, of as many
    # candidates; a new array for any term would add a candidate-sized one.
    # An envelope far above Lambda keeps the accepted times, and so the
    # arrays of the acceptance step, small next to one of Lambda's rows.
    n = 2**15

    def peak(spec):
        envelope = 64 * rate_upper_bound(spec, (15.0, 16.0))
        pieces = [(15.0, 16.0, list(spec.components), envelope)]
        out = np.empty(n)
        poisson._thinned_block(pieces, [n], np.random.default_rng(1), out)  # numpy's lazy imports
        tracemalloc.start()
        try:
            poisson._thinned_block(pieces, [n], np.random.default_rng(1), out)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    four = SPECS["stream-jumps"][0]  # a sinusoid from 0 and decays from 4, 9 and 14
    one = const_spec(1.0)
    assert len(four.components) == 4
    assert peak(four) - peak(one) < n * 8 / 2


def test_rate_spec_file_round_trip(tmp_path):
    spec = sin_exp_spec()
    path = tmp_path / "rate.spec"
    save_rate_spec(spec, path)
    back = load_rate_spec(path)
    assert back == spec
    # format is the documented key=value line format
    text = format_rate_spec(spec)
    assert "shape=sinusoid" in text and "shape=expdecay" in text
    # every shape writes its params in the order it reads them
    every = RateSpec(components=(
        JumpComponent(2.0, 0.0, Constant()),
        JumpComponent(3.0, 0.0, Sinusoid(offset=1.5, omega=2.0, phase=0.25)),
        JumpComponent(4.0, 1.0, Polynomial((1.0, -0.5, 0.125))),
    ))
    assert format_rate_spec(every) == (
        "A=2.0 t0=0.0 shape=constant params=\n"
        "A=3.0 t0=0.0 shape=sinusoid params=1.5,2.0,0.25\n"
        "A=4.0 t0=1.0 shape=polynomial params=1.0,-0.5,0.125\n"
    )
    assert parse_rate_spec(format_rate_spec(every)) == every


def test_every_shape_reads_back_under_the_name_it_writes():
    # one name per shape: the spec format's key for each shape is the name
    # ``format_rate_spec`` writes for it, and the error lists each once
    assert {name: cls.name for name, cls in poisson._SHAPE_NAMES.items()} == {
        name: name for name in poisson._SHAPE_NAMES}
    with pytest.raises(ValueError, match=re.escape(
            "expected one of ['constant', 'expdecay', 'polynomial', 'sinusoid']")):
        parse_rate_spec("A=1 t0=0 shape=exponential-decay params=1")


def test_rate_spec_parse_errors():
    with pytest.raises(ValueError, match="line 1.*shape"):
        parse_rate_spec("A=1 t0=0 shape=mystery params=1")
    with pytest.raises(ValueError, match="missing fields"):
        parse_rate_spec("A=1 params=1")
    with pytest.raises(ValueError, match="no components"):
        parse_rate_spec("# only a comment\n")
    with pytest.raises(ValueError, match="line 1: sinusoid offset must be finite"):
        parse_rate_spec("A=1 t0=0 shape=sinusoid params=nan,1")
    with pytest.raises(ValueError, match="line 2: polynomial coefficient 1 must be finite"):
        parse_rate_spec("# c\nA=1 t0=0 shape=polynomial params=1,inf")
    with pytest.raises(ValueError, match="line 1: polynomial coefficient 1 must be finite, "
                                         "got 'x'$"):
        parse_rate_spec("A=1 t0=0 shape=polynomial params=1,x")
    with pytest.raises(ValueError, match="line 1: jump component onset must be finite and "
                                         ">= 0, got 'x'$"):
        parse_rate_spec("A=1 t0=x shape=constant")
    # a wrong number of params names the line, the shape and its parameters
    with pytest.raises(ValueError, match=r"line 1: constant .*takes no params"):
        parse_rate_spec("A=1 t0=0 shape=constant params=1")
    sinusoid = r"line 1: sinusoid takes params=offset,omega\[,phase\]"
    for params in ("1", "1,2,3,4"):
        with pytest.raises(ValueError, match=sinusoid):
            parse_rate_spec(f"A=1 t0=0 shape=sinusoid params={params}")
    for params in ("", "1,2"):
        with pytest.raises(ValueError, match="line 2: expdecay takes params=rate"):
            parse_rate_spec(f"# c\nA=1 t0=0 shape=expdecay params={params}")
    # comments and blank lines are fine
    spec = parse_rate_spec("# c\n\nA=2 t0=0 shape=constant params=\n")
    assert eval_rate(spec, 1.0) == 2.0
    # lines are numbered as a file splits them: a form feed or a Unicode line
    # separator is blank space inside a line, not a line end
    for space in ("\x0c", "\x85", "\u2028"):
        with pytest.raises(ValueError, match="line 3: amplitude must be positive and finite, "
                                             "got 'x'$"):
            parse_rate_spec(f"A=1 t0=0{space} shape=constant\r\n\rA=x t0=0 shape=constant")


def test_presets():
    spec = preset_rate_spec("sin-plus-exp")
    assert eval_rate(spec, 0.0) == pytest.approx(1e6)
    spec = preset_rate_spec("const-plus-exp", base=100.0, jump=10.0)
    assert eval_rate(spec, 0.5) == pytest.approx(100.0)
    assert eval_rate(spec, 1.0) == pytest.approx(110.0)
    with pytest.raises(ValueError, match="unknown rate preset"):
        preset_rate_spec("nope")
    with pytest.raises(ValueError, match=r"^rate preset 'sin-plus-exp' takes base, jump, onset, "
                                         r"not horizon$"):
        preset_rate_spec("sin-plus-exp", horizon=3)
