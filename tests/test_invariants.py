"""Exact invariants of the order-l profile on integer counts on knots.

N is known at the knots p = 0..P, one unit apart (``from_binned``), and
delta is m knot gaps, so the profile reads N at every knot and its order-l
values are l lag-m differences of integers.  Every N here stays at or below
2**(50 - l), so each of the l levels is an integer below 2**52, exact in
float64, and each invariant holds bit for bit:

- superposition: adding a polynomial count sum c_i * C(p, i), i <= l - 1 and
  c_i >= 0 (a non-decreasing integer count), leaves every value unchanged;
- leading term: adding c * C(p, l) shifts every value by exactly c * m**l;
- scaling: 2**j * N scales every value by 2**j and keeps the argmax;
- translation: prepending s whole deltas of zero counts to an N that
  starts flat shifts every value, and the argmax of a nonzero peak, by
  s * m grid points;
- time scaling: a knot gap and a delta both scaled by 2**j keep every
  value and every grid index, since a power of two scales each time
  exactly and the profile reads N at the same knots.
"""

import math

import numpy as np
from hypothesis import given, settings, strategies as st

from ratejump.derivative import MAX_ORDER, derivative_profile
from ratejump.process import BinnedSeries, SampledCounts, from_binned


def headroom(order):
    """The bound on N, and on each count added to it, under which every level
    of ``order`` lag differences is exact."""
    return 2 ** (50 - order)


@st.composite
def counts_on_knots(draw):
    """(order l, steps m per delta, N): N from integer bin counts on P + 1
    knots, P = l*m + extra, small enough that C(P, l) <= ``headroom(l)``, so
    that a whole term c * C(p, l), c >= 1, fits."""
    order = draw(st.integers(min_value=1, max_value=MAX_ORDER))

    def fits(knots):
        return math.comb(knots, order) <= headroom(order)

    m = draw(st.sampled_from([m for m in (1, 2, 3) if fits(order * m)]))
    extra = draw(st.sampled_from([x for x in range(21) if fits(order * m + x)]))
    bins = draw(st.lists(st.integers(min_value=0, max_value=1000),
                         min_size=order * m + extra, max_size=order * m + extra))
    return order, m, from_binned(BinnedSeries(bin_width=1.0, counts=bins))


def plus(N, added):
    """N with the integer count ``added`` (one entry per knot) added to it."""
    return SampledCounts(N.times, N.counts + np.asarray(added, dtype=np.int64), N.horizon)


def binomials(N, i):
    """C(p, i) at every knot p of N."""
    return np.array([math.comb(p, i) for p in range(N.times.size)], dtype=np.int64)


@given(case=counts_on_knots(), data=st.data())
@settings(max_examples=150, deadline=None)
def test_a_polynomial_count_of_degree_below_the_order_leaves_every_value(case, data):
    order, m, N = case
    top = N.times.size - 1
    # each term's coefficient is capped so that the whole sum stays in headroom
    caps = [min(1000, headroom(order) // (order * math.comb(top, i))) for i in range(order)]
    coeffs = [data.draw(st.integers(min_value=0, max_value=cap)) for cap in caps]
    added = sum(c * binomials(N, i) for i, c in enumerate(coeffs))
    profile = derivative_profile(N, order, float(m))
    shifted = derivative_profile(plus(N, added), order, float(m))
    assert np.array_equal(shifted.times, profile.times)
    assert np.array_equal(shifted.values, profile.values)


@given(case=counts_on_knots(), data=st.data())
@settings(max_examples=150, deadline=None)
def test_the_leading_term_shifts_every_value_by_c_m_to_the_order(case, data):
    order, m, N = case
    top = N.times.size - 1
    c = data.draw(st.integers(min_value=1, max_value=min(1000, headroom(order)
                                                          // math.comb(top, order))))
    profile = derivative_profile(N, order, float(m))
    shifted = derivative_profile(plus(N, c * binomials(N, order)), order, float(m))
    assert np.array_equal(shifted.values, profile.values + c * m ** order)


@given(case=counts_on_knots(), j=st.integers(min_value=1, max_value=3))
@settings(max_examples=150, deadline=None)
def test_scaling_the_count_by_a_power_of_two_scales_every_value_and_keeps_the_argmax(case, j):
    order, m, N = case
    profile = derivative_profile(N, order, float(m))
    scaled = derivative_profile(SampledCounts(N.times, N.counts * 2 ** j, N.horizon),
                                order, float(m))
    assert np.array_equal(scaled.values, profile.values * 2 ** j)
    assert scaled.argmax() == profile.argmax()


@given(case=counts_on_knots(), shift=st.integers(min_value=1, max_value=3))
@settings(max_examples=150, deadline=None)
def test_prepending_whole_deltas_of_zero_counts_shifts_every_value_and_the_argmax(case, shift):
    order, m, N = case
    # N itself starts with order * m empty bins, so every value the new
    # knots add reads only zeros
    bins = np.diff(N.counts)
    flat = from_binned(BinnedSeries(bin_width=1.0, counts=np.concatenate(
        (np.zeros(order * m, dtype=np.int64), bins))))
    moved = from_binned(BinnedSeries(bin_width=1.0, counts=np.concatenate(
        (np.zeros((order + shift) * m, dtype=np.int64), bins))))
    profile = derivative_profile(flat, order, float(m))
    shifted = derivative_profile(moved, order, float(m))
    assert np.array_equal(shifted.values[shift * m:], profile.values)
    assert np.array_equal(shifted.times[shift * m:], profile.times + shift * m)
    assert not shifted.values[:shift * m].any()
    if profile.values.any():
        assert shifted.argmax() == profile.argmax() + shift * m
    else:
        assert shifted.argmax() == profile.argmax() == 0


@given(case=counts_on_knots(), j=st.integers(min_value=-3, max_value=3))
@settings(max_examples=150, deadline=None)
def test_scaling_the_knot_gap_and_delta_by_a_power_of_two_keeps_every_value(case, j):
    order, m, N = case
    scale = 2.0 ** j
    scaled = from_binned(BinnedSeries(bin_width=scale, counts=np.diff(N.counts)))
    profile = derivative_profile(N, order, float(m))
    stretched = derivative_profile(scaled, order, m * scale)
    assert np.array_equal(stretched.values, profile.values)
    assert np.array_equal(stretched.times, profile.times * scale)
    assert stretched.argmax() == profile.argmax()
