"""What the discrete derivative actually computes.

The order-k stencil combines k+1 counting-process values with alternating
binomial weights.  Its defining property: applied to any polynomial of
degree < k it returns exactly zero, so smooth trends cancel and only
abrupt changes survive.  This script prints the weights, then shows
through ``derivative_profile`` on integer counts known at unit-spaced knots
(daily totals, say) that a polynomial count of degree < k gives an
all-zero profile, that the count p^k gives exactly k! * m^k at a delta of
m knot gaps, and that a profile of event times is integer-valued.
"""

import math

import numpy as np

from ratejump import BinnedSeries, EventTimes, derivative_profile, from_binned


def counts_on_knots(N):
    """N at the knots p = 0..len(N)-1, one unit apart, as a binned series
    whose bin p holds N(p+1) - N(p) events."""
    return from_binned(BinnedSeries(bin_width=1.0, counts=np.diff(N)))


print("stencil weights (order k combines N at k+1 offsets):")
for k in range(1, 6):
    weights = [(-1) ** (k - j) * math.comb(k, j) for j in range(k + 1)]
    offsets = ", ".join(f"{j - k + 1:+d}" for j in range(k + 1))
    print(f"  k={k}:  weights {weights}  at t + [{offsets}] * delta")

p = np.arange(61)

print()
print("annihilation: a polynomial count of degree < k gives an all-zero profile")
for k in (2, 3, 5, 8):
    # N(p) = sum of c_i * C(p, i) for 1 <= i <= k - 1, each c_i >= 0: N never falls
    coeffs = np.random.default_rng(k).integers(0, 50, size=k - 1)
    N = sum(int(c) * np.array([math.comb(int(q), i) for q in p])
            for i, c in enumerate(coeffs.tolist(), start=1))
    for m in (1, 3):
        profile = derivative_profile(counts_on_knots(N), k, float(m))
        assert not profile.values.any()
    print(f"  degree {k - 1}, k={k}: every value is 0 at delta = 1 and 3 knot gaps "
          f"(N(60) = {N[-1]})")

print()
print("the first monomial that survives: the count p^k under the order-k stencil,")
print("delta = m knot gaps")
for k, m in ((2, 1), (3, 2), (4, 3)):
    profile = derivative_profile(counts_on_knots(p ** k), k, float(m))
    expected = math.factorial(k) * m ** k
    assert np.all(profile.values == expected)
    print(f"  k={k}, m={m}: every value is {profile.values[0]:.0f} = k! * m^k = {expected}")

print()
print("on event times the profile is integer-valued:")
events = EventTimes(times=np.array([1.0, 2.0, 2.0, 3.5, 3.6]), horizon=5.0)
profile = derivative_profile(events, 2, 0.5)
assert np.array_equal(profile.values, np.round(profile.values))
for t in (2.0, 3.0, 4.0):
    i = round((t - profile.window[0]) / (profile.delta / profile.steps_per_delta))
    print(f"  second derivative at t={profile.times[i]:.1f}: {profile.values[i]:+.0f}")
