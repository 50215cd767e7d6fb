import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from ratejump.derivative import (
    MAX_ORDER,
    DerivativeStencil,
    annihilation_check,
    derivative_profile,
    derivative_profiles,
    discrete_derivative,
)
from ratejump.process import BinnedCounting, BinnedSeries, EventTimes


def brute_force(N, order, delta, t):
    """Independent reference implementation: literal alternating-binomial sum."""
    total = 0.0
    for j in range(order + 1):
        total += (-1) ** (order - j) * math.comb(order, j) * N(t + (j - order + 1) * delta)
    return total


def test_stencil_coefficients():
    assert DerivativeStencil.of_order(1, 1.0).coefficients == (-1, 1)
    assert DerivativeStencil.of_order(2, 1.0).coefficients == (1, -2, 1)
    assert DerivativeStencil.of_order(3, 1.0).coefficients == (-1, 3, -3, 1)
    for order in range(1, MAX_ORDER + 1):
        s = DerivativeStencil.of_order(order, 0.5)
        assert sum(s.coefficients) == 0
        assert s.offsets()[0] == pytest.approx(-(order - 1) * 0.5)
        assert s.offsets()[-1] == pytest.approx(0.5)


def test_order_limits():
    with pytest.raises(ValueError):
        DerivativeStencil.of_order(0, 1.0)
    with pytest.raises(ValueError):
        DerivativeStencil.of_order(MAX_ORDER + 1, 1.0)
    with pytest.raises(ValueError):
        DerivativeStencil.of_order(3, -1.0)


def test_first_order_is_forward_increment():
    e = EventTimes(times=np.array([1.0, 2.0, 3.0]), horizon=4.0)
    for t in (0.5, 1.5, 2.5):
        assert discrete_derivative(e, 1, 1.0, t) == 1.0


def test_second_order_single_event():
    e = EventTimes(times=np.array([5.0]), horizon=7.0)
    # N(6) - 2 N(5) + N(4) = 1 - 2 + 0
    assert discrete_derivative(e, 2, 1.0, 5.0) == -1.0


def test_constant_counting_gives_zero():
    e = EventTimes(times=np.array([]), horizon=10.0)
    for order in (1, 2, 3, 5):
        assert discrete_derivative(e, order, 0.5, 5.0) == 0.0


def test_window_bounds_errors():
    e = EventTimes(times=np.array([1.0]), horizon=4.0)
    with pytest.raises(ValueError, match="t \\+ delta <= horizon"):
        discrete_derivative(e, 1, 1.0, 3.5)
    with pytest.raises(ValueError, match=r"\(order-1\)\*delta"):
        discrete_derivative(e, 3, 1.0, 1.5)


@given(
    st.lists(st.floats(min_value=0, max_value=50, allow_nan=False), max_size=40),
    st.integers(min_value=1, max_value=6),
    st.floats(min_value=0.1, max_value=2.0, allow_nan=False),
)
@settings(max_examples=60)
def test_matches_brute_force_and_recursion(times, order, delta):
    e = EventTimes(times=np.sort(np.asarray(times)), horizon=60.0)
    t = (order - 1) * delta + 1.0
    direct = discrete_derivative(e, order, delta, t)
    assert direct == pytest.approx(brute_force(lambda s: float(e.count_at(s)), order, delta, t))
    # one-step recursion: next order = difference of this order at t and t - delta
    if order < 6:
        # the two sides reach the shared sample points t + k*delta through
        # different float expressions; an event lying exactly on one of those
        # points can round to opposite sides of the step, so skip such inputs
        pts = t + np.arange(-(order - 1), 3) * delta
        if e.times.size:
            assume(float(np.min(np.abs(e.times[:, None] - pts[None, :]))) > 1e-9)
        lhs = discrete_derivative(e, order + 1, delta, t + delta)
        rhs = discrete_derivative(e, order, delta, t + delta) - discrete_derivative(
            e, order, delta, t
        )
        assert lhs == pytest.approx(rhs)


def test_integer_valued_output():
    rng = np.random.default_rng(3)
    e = EventTimes(times=np.sort(rng.uniform(0, 20, 500)), horizon=20.0)
    v = discrete_derivative(e, 4, 0.7, 5.0)
    assert v == int(v)


@given(
    st.integers(min_value=1, max_value=8),
    st.floats(min_value=0.05, max_value=2.0),
    st.floats(min_value=0, max_value=10),
)
@settings(max_examples=50)
def test_polynomial_annihilation(order, delta, t):
    rng = np.random.default_rng(abs(hash((order, round(delta, 6), round(t, 6)))) % 2**32)
    coeffs = rng.uniform(-100, 100, size=order + 1)  # degree <= order
    stencil = DerivativeStencil.of_order(order + 1, delta)
    pts = t + stencil.offsets()
    vals = np.polynomial.polynomial.polyval(pts, coeffs)
    scale = np.max(np.abs(np.asarray(stencil.coefficients) * vals))
    assert abs(annihilation_check(order, delta, coeffs, t)) <= 1e-6 * max(scale, 1e-12)


def test_monomial_one_degree_higher():
    # x^(l+1) under the order-(l+1) stencil gives exactly (l+1)! * delta^(l+1)
    for order in (1, 2, 3, 4):
        delta = 0.3
        coeffs = [0.0] * (order + 1) + [1.0]
        got = annihilation_check(order, delta, coeffs, t=2.0)
        assert got == pytest.approx(math.factorial(order + 1) * delta ** (order + 1), rel=1e-9)


def test_profile_matches_pointwise():
    rng = np.random.default_rng(11)
    e = EventTimes(times=np.sort(rng.uniform(0, 10, 300)), horizon=10.0)
    prof = derivative_profile(e, 3, 0.5, grid_step=0.25)
    assert prof.times[0] == pytest.approx(1.0)  # (order-1)*delta
    assert prof.times[-1] <= 9.5 + 1e-12
    for t, v in list(prof.pairs())[::7]:
        assert v == pytest.approx(discrete_derivative(e, 3, 0.5, t))


def test_profile_window_clipping_and_empty():
    e = EventTimes(times=np.array([1.0, 2.0]), horizon=3.0)
    prof = derivative_profile(e, 2, 1.0, grid_step=0.5, window=(0.0, 10.0))
    assert prof.window == (1.0, 2.0)
    assert not prof.empty_window

    empty = derivative_profile(e, 2, 1.4, grid_step=0.5, window=(0.0, 0.5))
    assert empty.empty_window
    assert len(empty) == 0  # flagged, not an error


def test_profile_grid_step_validation():
    e = EventTimes(times=np.array([1.0]), horizon=3.0)
    with pytest.raises(ValueError, match="grid_step"):
        derivative_profile(e, 1, 0.5, grid_step=0.7)


def assert_profiles_match_pointwise(N, orders, delta, grid_step, window):
    profiles = derivative_profiles(N, orders, delta, grid_step=grid_step, window=window)
    assert [p.order for p in profiles] == orders
    for p in profiles:
        single = derivative_profile(N, p.order, delta, grid_step=grid_step, window=window)
        assert np.array_equal(p.times, single.times)
        assert p.window == single.window and p.empty_window == single.empty_window
        reference = [discrete_derivative(N, p.order, delta, t) for t in p.times.tolist()]
        assert p.values.tolist() == reference


PATHS = ["lattice", "fallback"]  # integer delta/grid_step, or the direct stencil


@pytest.mark.parametrize("path", PATHS)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    orders=st.lists(st.integers(min_value=1, max_value=6), min_size=1, max_size=4),
    delta=st.floats(min_value=0.1, max_value=2.0),
    m=st.integers(min_value=1, max_value=6),
    frac=st.floats(min_value=0.1, max_value=0.9),
    window=st.tuples(st.floats(min_value=0, max_value=10), st.floats(min_value=0, max_value=10)),
)
@settings(max_examples=40, deadline=None)
def test_profiles_match_pointwise_on_event_times(path, seed, orders, delta, m, frac, window):
    # event times from a seeded generator: no event sits on a sample point, so
    # the float rounding of lattice and stencil points cannot split a count
    rng = np.random.default_rng(seed)
    e = EventTimes(times=np.sort(rng.uniform(0, 10, 150)), horizon=10.0)
    grid_step = delta / m if path == "lattice" else delta / (m + frac)
    for w in (None, tuple(sorted(window))):
        assert_profiles_match_pointwise(e, orders, delta, grid_step, w)


@pytest.mark.parametrize("path", PATHS)
@given(
    counts=st.lists(st.integers(min_value=0, max_value=1000), min_size=30, max_size=80),
    orders=st.lists(st.integers(min_value=1, max_value=5), min_size=1, max_size=4),
    step=st.integers(min_value=2, max_value=3),
    m=st.integers(min_value=1, max_value=3),
    window=st.tuples(st.integers(min_value=0, max_value=60), st.integers(min_value=0, max_value=60)),
)
@settings(max_examples=40, deadline=None)
def test_profiles_match_pointwise_on_daily_bins(path, counts, orders, step, m, window):
    # whole-day samples of a binned series: every value is an exact integer
    N = BinnedCounting(BinnedSeries(bin_width=1.0, counts=np.asarray(counts)))
    delta = step * m if path == "lattice" else step * m + 1
    for w in (None, tuple(float(x) for x in sorted(window))):
        assert_profiles_match_pointwise(N, orders, float(delta), float(step), w)


def test_profiles_sample_once_per_lattice_origin():
    rng = np.random.default_rng(2)
    e = EventTimes(times=np.sort(rng.uniform(0, 20, 400)), horizon=20.0)
    calls = []

    def N(t):
        calls.append(np.shape(t))
        return e.count_at(t)

    orders = [1, 2, 3, 4, 5, 6]
    for window, samplings in ((None, 1), ((5.0, 15.0), 1), ((0.5, 15.0), 2)):
        calls.clear()
        derivative_profiles(N, orders, 0.3, grid_step=0.03, window=window, horizon=20.0)
        assert len(calls) == samplings  # (0.5, 15) clips orders 1-2 only
    calls.clear()
    derivative_profiles(N, orders, 0.3, grid_step=0.07, horizon=20.0)
    assert len(calls) == len(orders)  # non-integer delta/grid_step: the fallback


def test_horizon_beyond_the_horizon_of_N_is_an_error():
    e = EventTimes(times=np.array([1.0, 2.0]), horizon=3.0)
    binned = BinnedCounting(BinnedSeries(bin_width=1.0, counts=np.array([1, 1, 0])))
    for N in (e, binned):
        with pytest.raises(ValueError, match=r"horizon = 5.0 lies beyond the horizon of N, 3.0"):
            derivative_profile(N, 2, 0.5, horizon=5.0)
        with pytest.raises(ValueError, match="beyond the horizon of N"):
            discrete_derivative(N, 2, 0.5, 2.0, horizon=5.0)
        # a horizon within N's own only shortens the grid
        assert derivative_profile(N, 2, 0.5, horizon=2.0).window[1] == 1.5


def test_callable_counting_function():
    # smooth quadratic "counting" function: order 3 annihilates it
    f = lambda t: np.asarray(t) ** 2
    assert discrete_derivative(f, 3, 0.5, 4.0, horizon=100.0) == pytest.approx(0.0, abs=1e-9)
