"""What the discrete derivative actually computes.

The order-k stencil combines k+1 counting-process values with alternating
binomial weights.  Its defining property: applied to any polynomial of
degree < k it returns exactly zero, so smooth trends cancel and only
abrupt changes survive.  This script prints the stencils, checks the
annihilation property numerically, and shows the one monomial the stencil
does *not* kill.
"""

import math

import numpy as np

from ratejump import DerivativeStencil, EventTimes, annihilation_check, discrete_derivative

delta = 0.5

print("stencil coefficients (order k combines N at k+1 offsets):")
for order in range(1, 6):
    s = DerivativeStencil.of_order(order, delta)
    offs = ", ".join(f"{o:+.2f}" for o in s.offsets())
    print(f"  k={order}:  coeffs {[int(c) for c in s.coefficients]}  at t + [{offs}]")

print()
print("annihilation: order-(k+1) stencil on random degree-k polynomials")
rng = np.random.default_rng(0)
for order in (1, 2, 4, 8):
    coeffs = rng.uniform(-100, 100, size=order + 1)
    worst = 0.0
    for t in rng.uniform(0, 10, size=5):
        stencil = DerivativeStencil.of_order(order + 1, delta)
        summands = np.asarray(stencil.coefficients) * np.polynomial.polynomial.polyval(
            t + stencil.offsets(), coeffs)
        scale = float(np.abs(summands).max())
        worst = max(worst, abs(float(summands.sum())) / scale)
        assert abs(annihilation_check(order, delta, coeffs, t)) <= 1e-6 * scale
    print(f"  degree {order}: max |residual| / max |summand| = {worst:.3e}")

print()
print("the first monomial that survives: x^k under the order-k stencil")
for order in (2, 3, 4):
    stencil = DerivativeStencil.of_order(order, delta)
    value = float(np.dot(stencil.coefficients, (5.0 + stencil.offsets()) ** order))
    expected = math.factorial(order) * delta ** order
    print(f"  k={order}: stencil(x^{order}) = {value:.6f}, k! * delta^k = {expected:.6f}")

print()
print("on a counting process the stencil is integer-valued:")
events = EventTimes(times=np.array([1.0, 2.0, 2.0, 3.5, 3.6]), horizon=5.0)
for t in (2.0, 3.0, 4.0):
    d2 = discrete_derivative(events, 2, delta, t)
    print(f"  second derivative at t={t}: {d2:+.0f}")
