import math
import re
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from ratejump.derivative import (
    MAX_ORDER,
    STEPS_PER_DELTA,
    _lattice_plan,
    _peaks,
    derivative_profile,
    derivative_profiles,
)
from ratejump.process import BinnedSeries, EventTimes, SampledCounts, from_binned
from windowed_profiles import brute_force, windowed_profiles


def polynomial(coeffs, horizon):
    """An N that is the polynomial of ascending ``coeffs`` on [0, horizon]."""
    return SimpleNamespace(count_at=lambda t: np.polynomial.polynomial.polyval(t, coeffs),
                           horizon=horizon)


def value_at(profile, t):
    """The profile's value at its grid time t (rounded to the nearest step)."""
    i = round((t - profile.window[0]) * profile.steps_per_delta / profile.delta)
    assert profile.times[i] == pytest.approx(t)
    return profile.values[i]


def test_order_limits():
    e = EventTimes(times=np.array([1.0]), horizon=50.0)
    with pytest.raises(ValueError, match=r"^order must"):
        derivative_profile(e, 0, 1.0)
    with pytest.raises(ValueError, match=r"^order must"):
        derivative_profile(e, MAX_ORDER + 1, 1.0)
    with pytest.raises(ValueError, match=r"^delta must"):
        derivative_profile(e, 3, -1.0)
    assert len(derivative_profile(e, MAX_ORDER, 1.0)) > 0


def test_first_order_is_forward_increment():
    e = EventTimes(times=np.array([1.0, 2.0, 3.0]), horizon=4.0)
    profile = derivative_profile(e, 1, 1.0)
    for t in (0.5, 1.5, 2.5):
        assert value_at(profile, t) == 1.0


def test_second_order_single_event():
    e = EventTimes(times=np.array([5.0]), horizon=7.0)
    # N(6) - 2 N(5) + N(4) = 1 - 2 + 0
    assert value_at(derivative_profile(e, 2, 1.0), 5.0) == -1.0


def test_constant_counting_gives_zero():
    e = EventTimes(times=np.array([]), horizon=10.0)
    for order in (1, 2, 3, 5):
        assert not derivative_profile(e, order, 0.5).values.any()


def test_window_bounds_errors():
    # each order's grid is all of [(order-1)*delta, T - delta], on event times
    # and on bins of the grid step, 0.5 / 10, with the events of e at 1.0 and 2.0
    e = EventTimes(times=np.array([1.0, 2.0]), horizon=3.0)
    binned = from_binned(BinnedSeries(bin_width=0.05, counts=np.bincount([19, 39], minlength=60)))
    for N in (e, binned):
        for order in (1, 2, 3):
            profile = derivative_profile(N, order, 0.5)
            assert profile.window == ((order - 1) * 0.5, 2.5)
            assert profile.times[0] == profile.window[0] and profile.times[-1] == 2.5
    # a range with no grid time is an error naming it
    with pytest.raises(ValueError, match=r"^no valid grid points: window \(4\.0, 2\.0\) is empty"
                                         r" for k=3, delta=2\.0$"):
        derivative_profile(EventTimes(times=np.array([1.0]), horizon=4.0), 3, 2.0)


def test_horizon_beyond_the_horizon_of_N_is_an_error():
    # N is read up to its own horizon and no further: there is no override
    e = EventTimes(times=np.array([1.0, 2.0]), horizon=3.0)
    # bins of the grid step, 0.5 / 10, with the events of e at 1.0 and 2.0
    binned = from_binned(BinnedSeries(bin_width=0.05, counts=np.bincount([19, 39], minlength=60)))
    for N in (e, binned):
        assert derivative_profile(N, 2, 0.5).window == (0.5, 2.5)
        # a delta whose stencil reaches past T = 3.0 from every grid time
        with pytest.raises(ValueError, match=r"^no valid grid points: window \(2\.0, 1\.0\) is empty"
                                             r" for k=2, delta=2\.0$"):
            derivative_profile(N, 2, 2.0)
        # a window asked for beyond the horizon is cut at T - delta
        prof, = windowed_profiles(N, [2], 0.5, 10, (0.0, 10.0))
        assert prof.window == (0.5, 2.5) and prof.times[-1] == 2.5


@given(
    st.lists(st.floats(min_value=0, max_value=50, allow_nan=False), max_size=40),
    st.integers(min_value=1, max_value=6),
    st.floats(min_value=0.1, max_value=2.0, allow_nan=False),
)
@settings(max_examples=60, deadline=None)
def test_matches_brute_force_and_recursion(times, order, delta):
    e = EventTimes(times=np.sort(np.asarray(times)), horizon=60.0)
    profile = derivative_profile(e, order, delta)
    # one-step recursion: the next order at t is this order at t less this
    # order at t - delta, m grid steps earlier, bit for bit: both read N on
    # the same lattice (the last grid time of either may round past T - delta)
    m = profile.steps_per_delta
    if order < 6:
        higher = derivative_profile(e, order + 1, delta)
        n = min(len(higher), len(profile) - m)
        assert n >= len(higher) - 1
        assert np.array_equal(higher.values[:n], profile.values[m:m + n] - profile.values[:n])
    # the lattice point p * delta/m and the stencil point t + j*delta are
    # different float expressions; an event lying exactly on one of them can
    # round to opposite sides of it, so skip such inputs
    t = float(profile.times[m])
    pts = t + np.arange(-(order - 1), 2) * delta
    if e.times.size:
        assume(float(np.min(np.abs(e.times[:, None] - pts[None, :]))) > 1e-9)
    assert profile.values[m] == brute_force(e, order, delta, t)


def test_integer_valued_output():
    rng = np.random.default_rng(3)
    e = EventTimes(times=np.sort(rng.uniform(0, 20, 500)), horizon=20.0)
    values = derivative_profile(e, 4, 0.7).values
    assert np.array_equal(values, np.round(values)) and np.abs(values).max() > 0


@given(
    st.integers(min_value=1, max_value=8),
    st.floats(min_value=0.05, max_value=2.0),
)
@settings(max_examples=50, deadline=None)
def test_polynomial_annihilation(order, delta):
    # the order-(order+1) profile of a polynomial of degree <= order is zero
    # up to the rounding of order+1 differences of its values
    rng = np.random.default_rng(abs(hash((order, round(delta, 6)))) % 2**32)
    coeffs = rng.uniform(-100, 100, size=order + 1)
    N = polynomial(coeffs, (order + 1) * delta + 10.0)
    profile = derivative_profile(N, order + 1, delta)
    scale = 2 ** (order + 1) * np.abs(N.count_at(np.linspace(0.0, N.horizon, 1001))).max()
    assert np.abs(profile.values).max() <= 1e-6 * scale


def test_monomial_one_degree_higher():
    # x^(l+1) under the order-(l+1) stencil gives exactly (l+1)! * delta^(l+1)
    for order in (1, 2, 3, 4):
        delta = 0.3
        profile = derivative_profile(polynomial([0.0] * (order + 1) + [1.0], 5.0), order + 1, delta)
        expected = math.factorial(order + 1) * delta ** (order + 1)
        assert profile.values == pytest.approx(np.full(len(profile), expected), rel=1e-9)


def test_profile_matches_pointwise():
    rng = np.random.default_rng(11)
    e = EventTimes(times=np.sort(rng.uniform(0, 10, 300)), horizon=10.0)
    prof = derivative_profile(e, 3, 0.5)
    assert prof.steps_per_delta == 10  # event times: the default grid
    assert prof.times[0] == pytest.approx(1.0)  # (order-1)*delta
    assert prof.times[-1] <= 9.5 + 1e-12
    for t, v in list(prof.pairs())[::7]:
        assert v == brute_force(e, 3, 0.5, t)


def test_profile_window_clipping_and_empty():
    e = EventTimes(times=np.array([1.0, 2.0]), horizon=3.0)
    prof, = windowed_profiles(e, [2], 1.0, 2, (0.0, 10.0))
    assert prof.window == (1.0, 2.0)
    assert len(prof) == 3

    short = EventTimes(times=np.array([1.0]), horizon=2.0)
    with pytest.raises(ValueError, match=(
            r"^no valid grid points: window \(1\.25, 0\.75\) is empty for k=2, delta=1\.25$")):
        derivative_profile(short, 2, 1.25)
    # among several orders an empty one is kept, and its argmax raises the
    # error derivative_profile raises at once
    message = r"^no valid grid points: window \(1\.4, 0\.5\) is empty for k=2, delta=1\.4$"
    first, empty = windowed_profiles(e, [1, 2], 1.4, 3, (0.0, 0.5))
    assert len(first) == 2 and len(empty) == 0
    with pytest.raises(ValueError, match=message):
        empty.argmax()


class RecordedCounts(SampledCounts):
    """A SampledCounts that keeps every array of times it is read at."""

    reads = []

    def count_at(self, t):
        self.reads.append(t)
        return super().count_at(t)


def test_profile_grid_step_validation():
    # N known at knots 0.25 apart is read at every knot: delta must be a whole
    # number of knot gaps, up to rounding, and nothing is read otherwise
    N = RecordedCounts(np.arange(41) * 0.25, np.arange(41), horizon=10.0)
    assert derivative_profile(N, 2, 0.75).steps_per_delta == 3
    assert derivative_profile(N, 2, 0.1 + 0.2 + 0.45).steps_per_delta == 3  # 0.75 by rounding
    N.reads.clear()
    for delta in (0.1, 0.3, 0.8, 1.1):
        with pytest.raises(ValueError, match=(
                rf"^delta = {delta!r} is not a whole number of knot gaps: "
                r"N is known only at knots 0\.25 apart$")):
            derivative_profile(N, 2, delta)
    assert N.reads == []
    # knots that are not evenly spaced from 0 set no grid: the default one,
    # and a grid time off the knots is named with delta and the step
    uneven = SampledCounts(np.array([0.0, 0.25, 0.75, 1.0]), [0, 1, 2, 3], horizon=1.0)
    with pytest.raises(ValueError, match=(
            r"^N is known only at its knots, not at t = 0\.05, a time on the grid of step "
            r"delta / 10, delta = 0\.5$")):
        derivative_profile(uneven, 1, 0.5)


def profile_alone(N, order, delta, steps_per_delta, window):
    """One order's profile on its own: ``derivative_profile`` on N's own grid
    with no window, else the one profile of the lattice plan, whose argmax
    raises for an empty window as ``derivative_profile`` does."""
    if steps_per_delta is None and window is None:
        return derivative_profile(N, order, delta)
    profile, = windowed_profiles(N, [order], delta, steps_per_delta, window)
    profile.argmax()
    return profile


def assert_profiles_match_pointwise(N, orders, delta, steps_per_delta, window):
    profiles = windowed_profiles(N, orders, delta, steps_per_delta, window)
    assert [p.order for p in profiles] == orders
    for p in profiles:
        if len(p) == 0:
            message = f"no valid grid points: window {p.window} is empty for k={p.order}, delta={p.delta}"
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                profile_alone(N, p.order, delta, steps_per_delta, window)
            continue
        single = profile_alone(N, p.order, delta, steps_per_delta, window)
        assert np.array_equal(p.times, single.times)
        assert p.window == single.window
        reference = [brute_force(N, p.order, delta, t) for t in p.times.tolist()]
        assert p.values.tolist() == reference


@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    orders=st.lists(st.integers(min_value=1, max_value=6), min_size=1, max_size=4),
    delta=st.floats(min_value=0.1, max_value=2.0),
    m=st.integers(min_value=1, max_value=12),
    window=st.tuples(st.floats(min_value=0, max_value=10), st.floats(min_value=0, max_value=10)),
)
@settings(max_examples=80, deadline=None)
def test_profiles_match_pointwise_on_event_times(seed, orders, delta, m, window):
    # event times from a seeded generator: no event sits on a sample point, so
    # the float rounding of lattice and stencil points cannot split a count
    rng = np.random.default_rng(seed)
    e = EventTimes(times=np.sort(rng.uniform(0, 10, 150)), horizon=10.0)
    for m_, w in ((None, None), (m, None), (m, tuple(sorted(window)))):
        assert_profiles_match_pointwise(e, orders, delta, m_, w)


@given(
    counts=st.lists(st.integers(min_value=0, max_value=1000), min_size=30, max_size=80),
    orders=st.lists(st.integers(min_value=1, max_value=5), min_size=1, max_size=4),
    step=st.integers(min_value=1, max_value=3),
    m=st.integers(min_value=1, max_value=12),
    window=st.tuples(st.integers(min_value=0, max_value=60), st.integers(min_value=0, max_value=60)),
)
@settings(max_examples=80, deadline=None)
def test_profiles_match_pointwise_on_daily_bins(counts, orders, step, m, window):
    # whole-day samples of a binned series (N's own grid of one day, and a
    # plan's of whole days, m per delta): every value is an exact integer
    N = from_binned(BinnedSeries(bin_width=1.0, counts=np.asarray(counts)))
    for m_, w in ((None, None), (m, None), (m, tuple(float(x) for x in sorted(window)))):
        assert_profiles_match_pointwise(N, orders, float(step * m), m_, w)


def test_binned_grid_of_whole_bins_reads_every_knot():
    # lattice times p * 0.3 equal the edges 3p * 0.1 only up to rounding
    counts = np.random.default_rng(3).integers(0, 50, 90)
    N = from_binned(BinnedSeries(bin_width=0.1, counts=counts, start_time=2.0))
    p = np.arange(31)
    assert np.array_equal(N.count_at(p * 0.3), N.counts[3 * p])
    assert np.sum(p * 0.3 != N.times[3 * p]) > 10
    # N's own grid reads every edge, three per delta; a plan of one step per
    # delta reads every third edge
    for m, lag, F in ((None, 3, N.counts), (1, 1, N.counts[::3])):
        for k, profile in enumerate(windowed_profiles(N, [1, 2, 3], 0.3, m), start=1):
            D = F.astype(float)
            for _ in range(k):
                D = D[lag:] - D[:-lag]
            assert profile.steps_per_delta == lag
            # the last grid time may fall past T - delta by rounding and be left out
            assert len(D) - 1 <= len(profile) <= len(D)
            assert np.array_equal(profile.values, D[:len(profile)])


def test_profiles_read_N_once_per_plan():
    # with no window, derivative_profiles' own plan; (5, 15) clips every order;
    # (0.5, 15) clips orders 1-2 only, so their lattice starts at 0.5 and the
    # others' at 0: two lattices end to end, the second starting below where
    # the first ended, and still one read, at exactly the plan's times
    rng = np.random.default_rng(2)
    e = EventTimes(times=np.sort(rng.uniform(0, 20, 400)), horizon=20.0)
    reads = []

    def count_at(t):
        reads.append(np.array(t))
        return e.count_at(t)

    N = SimpleNamespace(count_at=count_at, horizon=e.horizon)
    orders = [1, 2, 3, 4, 5, 6]
    for window, lattices in ((None, 1), ((5.0, 15.0), 1), ((0.5, 15.0), 2)):
        plan = _lattice_plan(orders, (0.3,), STEPS_PER_DELTA, e.horizon, window)
        assert np.count_nonzero(np.diff(plan.times) < 0) + 1 == lattices
        reads.clear()
        profiles = (derivative_profiles(N, orders, 0.3) if window is None
                    else windowed_profiles(N, orders, 0.3, window=window))
        assert len(reads) == 1 and np.array_equal(reads[0], plan.times)
        assert all(len(profile) for profile in profiles)


def recording(reads, horizon):
    """N = 0 on [0, horizon], keeping every time it is read at."""
    def count_at(t):
        reads.append(np.ravel(t))
        return np.zeros(np.shape(t))
    return SimpleNamespace(count_at=count_at, horizon=horizon)


@given(
    orders=st.lists(st.integers(min_value=1, max_value=6), min_size=1, max_size=4),
    delta=st.floats(min_value=0.01, max_value=3.0),
    m=st.integers(min_value=1, max_value=12),
    horizon=st.floats(min_value=0.5, max_value=30.0),
    window=st.tuples(st.floats(min_value=0, max_value=30), st.floats(min_value=0, max_value=30)),
)
# a window that ends 2.5e-11 short of the grid time 2.25 (the grid had 2.25)
@example(orders=[1, 2, 3], delta=0.5, m=10, horizon=10.0, window=(2.0, 2.0 + 0.25 * (1 - 1e-10)))
# horizon - delta ends 2.5e-11 short of the grid time 1.25 (N was read at 1.75)
@example(orders=[1, 2, 3], delta=0.5, m=10, horizon=1.749999999975, window=(0.0, 0.0))
@settings(max_examples=100, deadline=None)
def test_every_grid_is_all_of_its_window_and_reads_only_the_horizon(
        orders, delta, m, horizon, window):
    for m_, w in ((None, None), (m, None), (m, tuple(sorted(window)))):
        reads = [np.zeros(0)]
        profiles = windowed_profiles(recording(reads, horizon), orders, delta, m_, w)
        for p in profiles:
            lo, hi = p.window
            step = delta / p.steps_per_delta
            assert np.array_equal(p.times, lo + np.arange(len(p)) * step)
            assert (lo > hi) if len(p) == 0 else (lo <= p.times[0] and p.times[-1] <= hi)
            assert lo + len(p) * step > hi  # the next grid time is past the window
        reads = np.concatenate(reads)
        assert np.all((0.0 <= reads) & (reads <= horizon))


@pytest.mark.parametrize("window", [(3.0, 2.0), (math.nan, 5.0), (2.0, math.nan)])
def test_a_window_must_be_ordered(window):
    e = EventTimes(times=np.array([1.0, 2.0]), horizon=10.0)
    with pytest.raises(ValueError, match=r"^window must satisfy lo <= hi with both finite, got \("):
        windowed_profiles(e, [1], 0.5, 10, window)


def test_callable_counting_function():
    # smooth quadratic "counting" function: order 3 annihilates it
    f = SimpleNamespace(count_at=lambda t: np.asarray(t) ** 2, horizon=100.0)
    assert np.abs(derivative_profile(f, 3, 0.5).values).max() == pytest.approx(0.0, abs=1e-9)


@pytest.mark.parametrize("N, name", [
    (lambda t: np.asarray(t) ** 2, "function"),
    (SimpleNamespace(count_at=lambda t: np.zeros(np.shape(t))), "SimpleNamespace"),
    (np.arange(10.0), "ndarray"),
])
def test_n_without_count_at_and_a_horizon_is_a_type_error(N, name):
    # N carries its own horizon: a plain callable has none, so it is refused
    message = rf"^N must expose count_at\(t\) and a horizon, got {name}$"
    for read in (lambda: derivative_profile(N, 2, 0.5),
                 lambda: windowed_profiles(N, [1, 2], 0.5, 10, (1.0, 2.0))):
        with pytest.raises(TypeError, match=message):
            read()


@pytest.mark.parametrize("horizon", [math.inf, math.nan, -1.0])
def test_n_whose_horizon_is_not_finite_and_non_negative_is_a_value_error(horizon):
    N = SimpleNamespace(count_at=lambda t: np.zeros(np.shape(t)), horizon=horizon)
    message = "^" + re.escape(
        f"the horizon of N must be finite and non-negative, got {horizon}") + "$"
    for read in (lambda: derivative_profile(N, 2, 0.5),
                 lambda: derivative_profiles(N, [1, 2], 0.5)):
        with pytest.raises(ValueError, match=message):
            read()


def reference_peaks(values, starts, ends):
    """The peak rule by a plain scan of each segment: its first NaN, else the
    first of its largest |value|."""
    peaks = []
    for start, end in zip(starts, ends):
        peak = start
        for i in range(start, end):
            if math.isnan(values[i]):
                peak = i
                break
            if abs(values[i]) > abs(values[peak]):
                peak = i
        peaks.append(int(peak))
    return peaks


@pytest.mark.parametrize("values, starts, ends, expected", [
    ([1.0, -3.0, 3.0, 0.0], [0], [4], [1]),  # a tie: the earlier index
    # the gap [3, 5) holds the largest |value| and the tail another; neither leaks
    ([1.0, 2.0, -2.0, 99.0, -100.0, 5.0, -5.0, 3.0, 50.0], [0, 5], [3, 8], [1, 5]),
    ([7.0, -1.0, 1.0, -8.0, 8.0], [1, 3], [3, 5], [1, 3]),  # adjacent, the last at the end
    ([9.0, 0.0, 0.0, 9.0, 0.0], [1, 4], [3, 5], [1, 4]),  # all-zero segments
    ([1.0, np.nan, 2.0, np.nan, 5.0, np.nan], [0, 4], [3, 6], [1, 5]),  # a NaN counts as largest
    ([np.nan, 4.0, -4.0, np.nan], [1], [3], [1]),  # and one between segments takes no part
])
def test_peak_rule_is_the_earliest_largest_abs_value_of_each_segment(values, starts, ends,
                                                                     expected):
    values = np.array(values)
    assert _peaks(values, starts, ends).tolist() == expected
    assert reference_peaks(values, starts, ends) == expected


@given(
    layout=st.lists(st.tuples(st.integers(min_value=0, max_value=4),
                              st.integers(min_value=1, max_value=8)), min_size=1, max_size=6),
    tail=st.integers(min_value=0, max_value=3),
    data=st.data(),
)
@settings(max_examples=200, deadline=None)
def test_peak_rule_matches_np_argmax_segment_by_segment(layout, tail, data):
    # (gap, length) pairs lay the segments out; small integers make ties common
    ends = np.cumsum([gap + length for gap, length in layout])
    starts = ends - [length for _, length in layout]
    size = int(ends[-1]) + tail
    values = np.array(data.draw(st.lists(st.integers(min_value=-4, max_value=4),
                                         min_size=size, max_size=size)), dtype=np.float64)
    values[data.draw(st.lists(st.integers(min_value=0, max_value=size - 1), max_size=3))] = np.nan
    assert _peaks(values, starts, ends).tolist() == reference_peaks(values, starts, ends)


def test_peak_rule_traces_no_more_than_one_abs_array():
    # one |values| array, 8 bytes an entry, and 64 KiB for everything else
    values = np.random.default_rng(2).standard_normal(100_000)
    bound = 8 * values.size + 64 * 1024
    _peaks(values, [0], [values.size])  # numpy's first-call set-up is not the rule's
    tracemalloc.start()
    try:
        peaks = _peaks(values, [0], [values.size])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peaks.tolist() == reference_peaks(values, [0], [values.size])
    assert peak <= bound


@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    orders=st.lists(st.integers(min_value=1, max_value=6), min_size=1, max_size=4),
    deltas=st.lists(st.floats(min_value=0.05, max_value=3.0), min_size=1, max_size=5),
    window=st.one_of(st.none(), st.tuples(st.floats(min_value=0, max_value=10),
                                          st.floats(min_value=0, max_value=10))),
)
@settings(max_examples=80, deadline=None)
def test_a_plan_over_a_delta_grid_peaks_as_each_deltas_profiles_do(seed, orders, deltas, window):
    # every lattice end to end in one read vector, scored at once: each cell
    # peaks where the one-delta profile of its order peaks, and a cell with
    # no grid point is NaN
    window = None if window is None else tuple(sorted(window))
    rng = np.random.default_rng(seed)
    e = EventTimes(times=np.sort(rng.uniform(0, 10, 200)), horizon=10.0)
    plan = _lattice_plan(orders, deltas, STEPS_PER_DELTA, e.horizon, window)
    peak_times = plan.peak_times(plan.read(e.count_at))
    assert peak_times.shape == (len(orders), len(deltas))
    for j, delta in enumerate(deltas):
        for i, profile in enumerate(windowed_profiles(e, orders, delta, STEPS_PER_DELTA, window)):
            if len(profile) == 0:
                assert np.isnan(peak_times[i, j])
                continue
            peak = int(np.argmax(np.abs(profile.values)))
            assert profile.argmax() == peak
            assert peak_times[i, j] == profile.times[peak]


def test_values_between_a_plans_segments_outweigh_every_peak_and_take_no_part():
    # one order at two deltas: where the first lattice (N near its total)
    # meets the second (N near 0) the lag difference is about -N(T), far
    # beyond either cell's peak, which each cell still finds in its own segment
    rng = np.random.default_rng(6)
    e = EventTimes(times=np.sort(rng.uniform(0, 10, 500)), horizon=10.0)
    plan = _lattice_plan([1], [0.2, 0.5], STEPS_PER_DELTA, e.horizon, None)
    samples = plan.read(e.count_at)
    level = samples[STEPS_PER_DELTA:] - samples[:-STEPS_PER_DELTA]
    values = plan.evaluate(samples)
    assert np.abs(level).max() > max(np.abs(v).max() for v in values)
    for j, delta in enumerate([0.2, 0.5]):
        profile = derivative_profile(e, 1, delta)
        assert np.array_equal(values[j], profile.values)
        assert plan.peak_times(samples)[0, j] == profile.times[profile.argmax()]
