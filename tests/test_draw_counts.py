"""N drawn only at given times (``draw_counts``), checked against its law.

The oracles do not use the shapes' closed-form integrals that the draw
uses: Lambda(t) comes from scipy's quadrature of ``eval_rate``, and the
heatmap errors from the thinning path (``simulate`` and ``EventTimes``).
Seeds are fixed; a statistic more than 4 sd from its mean, or a p-value
below 1e-3, fails.
"""

from dataclasses import dataclass

import numpy as np
import pytest
from scipy import integrate, stats

from ratejump.derivative import derivative_profile
from ratejump.harness import (
    ExperimentSpec,
    SmoothJumpScenario,
    _sample_times,
    get_preset,
    heatmap_spec_from_preset,
    run_heatmap,
)
from ratejump.poisson import (
    Constant,
    ExpDecay,
    JumpComponent,
    Polynomial,
    RateSpec,
    Sinusoid,
    _integrated,
    draw_counts,
    eval_rate,
    preset_rate_spec,
)
from ratejump.process import SampledCounts
from ratejump.seeding import SimSeed

Z_BOUND = 4.0
P_FLOOR = 1e-3

# a smooth base and a decaying jump at 3.3 on [0, 10]
SPEC = RateSpec(components=(
    JumpComponent(150.0, 0.0, Sinusoid(offset=1.0, omega=1.0)),
    JumpComponent(120.0, 3.3, ExpDecay(rate=0.5)),
))
HORIZON = 10.0


def quad_integral(spec, t):
    """Lambda's integral over [0, t] by quadrature, split at the onsets."""
    cuts = sorted({0.0, t} | {c.onset for c in spec.components if c.onset < t})
    return sum(integrate.quad(lambda s: eval_rate(spec, s), a, b, epsabs=0, epsrel=1e-12)[0]
               for a, b in zip(cuts[:-1], cuts[1:]))


def draws(times, runs, base_seed):
    """N at ``times`` in each of ``runs`` draws: shape (runs, len(times))."""
    return np.stack([draw_counts(SPEC, times, HORIZON, SimSeed(base_seed, r)).count_at(times)
                     for r in range(runs)])


@pytest.mark.parametrize("shape", [
    Constant(),
    Sinusoid(offset=1.0, omega=1.0),
    Sinusoid(offset=2.0, omega=3.0, phase=1.0),
    Sinusoid(offset=1.5, omega=0.0, phase=0.4),
    Sinusoid(offset=1.5, omega=1e-9, phase=0.4),
    ExpDecay(rate=0.7),
    Polynomial(coeffs=(1.0, -2.0, 3.0)),
], ids=lambda shape: repr(shape))
def test_shape_integrals_match_quadrature(shape):
    u = np.array([0.0, 0.3, 5.0, 19.7])
    expected = [integrate.quad(lambda s: float(shape.value(s)), 0.0, x, epsabs=0,
                               epsrel=1e-12)[0] for x in u.tolist()]
    assert shape.integral(u) == pytest.approx(expected, rel=1e-10, abs=1e-12)


def test_marginal_counts_are_poisson():
    # N(t) ~ Poisson(Lambda(t)) at each t: its mean, and its Pearson statistic
    # sum (N - Lambda)^2 / Lambda, whose variance is runs * (2 + 1/Lambda)
    times = np.array([1.7, 3.3, 6.25, HORIZON])
    runs = 400
    counts = draws(times, runs, base_seed=21)
    for t, column in zip(times.tolist(), counts.T):
        lam = quad_integral(SPEC, t)
        z_mean = (column.mean() - lam) / np.sqrt(lam / runs)
        pearson = ((column - lam) ** 2 / lam).sum()
        z_pearson = (pearson - runs) / np.sqrt(runs * (2 + 1 / lam))
        assert abs(z_mean) < Z_BOUND, (t, lam, column.mean())
        assert abs(z_pearson) < Z_BOUND, (t, lam, column.var())


def test_lattice_increments_are_independent_poissons():
    # the increments over a lattice are independent Poisson(Lambda increment)
    # draws: their Pearson statistic has mean runs * cells, and the products
    # of neighbouring standardized increments have mean 0 and variance 1
    edges = np.linspace(0.0, HORIZON, 41)
    runs = 300
    increments = np.diff(draws(edges, runs, base_seed=22), axis=1)
    expected = np.diff([quad_integral(SPEC, t) for t in edges.tolist()])
    standard = (increments - expected) / np.sqrt(expected)
    cells = expected.size
    z_pearson = (((standard ** 2).sum() - runs * cells)
                 / np.sqrt(runs * (2 + 1 / expected).sum()))
    z_neighbours = (standard[:, :-1] * standard[:, 1:]).sum() / np.sqrt(runs * (cells - 1))
    assert abs(z_pearson) < Z_BOUND
    assert abs(z_neighbours) < Z_BOUND


def test_heatmap_errors_match_the_thinning_path():
    # per-trial errors of four cells, from counts drawn where the profiles read
    # and from thinned event streams (independent seeds): a Mann-Whitney test
    scenario = SmoothJumpScenario(base=2000.0, jump=1600.0)
    k_grid, delta_grid, trials = (2, 4), (0.1, 0.3), 150
    drawn = run_heatmap(ExperimentSpec(scenario, k_grid, delta_grid, trials, base_seed=5)).errors
    thinned = np.empty_like(drawn)
    for trial in range(trials):
        realization = scenario.realize(SimSeed(6, trial))
        for i, k in enumerate(k_grid):
            for j, delta in enumerate(delta_grid):
                profile = derivative_profile(realization.events, k, delta)
                thinned[trial, i, j] = abs(profile.times[profile.argmax()] - realization.truth)
    for i in range(len(k_grid)):
        for j in range(len(delta_grid)):
            p = stats.mannwhitneyu(drawn[:, i, j], thinned[:, i, j]).pvalue
            assert p > P_FLOOR, (k_grid[i], delta_grid[j], p)


def test_draw_is_seeded_and_its_total_ignores_the_times():
    a = draw_counts(SPEC, [1.0, 2.0], HORIZON, SimSeed(4))
    b = draw_counts(SPEC, [1.0, 2.0], HORIZON, SimSeed(4))
    c = draw_counts(SPEC, np.linspace(0.0, HORIZON, 101), HORIZON, SimSeed(4))
    assert np.array_equal(a.counts, b.counts)
    assert len(a) == len(c) == a.count_at(HORIZON)


def test_times_are_clamped_to_the_horizon_and_undrawn_times_are_named():
    counts = draw_counts(SPEC, [-1.0, 1.0, 2.5, 12.0], HORIZON, SimSeed(7))
    assert counts.times.tolist() == [0.0, 1.0, 2.5, HORIZON]
    assert counts.count_at([-1.0, 0.0]).tolist() == [0, 0]
    assert counts.count_at(12.0) == counts.count_at(HORIZON) == len(counts)
    assert counts.count_at(np.array([[1.0], [2.5]])).shape == (2, 1)
    with pytest.raises(ValueError, match=r"^N was not drawn at t = 2\.0$"):
        counts.count_at([1.0, 2.0])


def test_draw_certifies_the_rate_first():
    negative = RateSpec(components=(
        JumpComponent(5.0, 0.0, Sinusoid(offset=0.0, omega=1.0, phase=0.5)),))
    rng = np.random.default_rng(3)
    state = rng.bit_generator.state
    with pytest.raises(ValueError, match="negative"):
        draw_counts(negative, [1.0], 10.0, rng)
    assert rng.bit_generator.state == state


def test_ulp_close_times_of_the_paper_scale_lattice_get_no_mass():
    # the fig2-full lattice has pairs of times a few ulps apart; the integral
    # over such a cell can round below zero, and the cell then draws nothing
    spec = heatmap_spec_from_preset(get_preset("fig2-full"), trials=1)
    rate = preset_rate_spec("sin-plus-exp", base=1e6, jump=4e4, onset=9.3)
    counts = draw_counts(rate, _sample_times(spec), 20.0, SimSeed(3))
    mass = np.diff(_integrated(rate, counts.times))
    below = mass < 0
    assert below.any()  # the case occurs on this lattice
    assert (np.diff(counts.times)[below] < 1e-12).all()
    assert (np.diff(counts.counts)[below] == 0).all()


@dataclass(frozen=True)
class DippingConstant(Constant):
    """x(u) = 1, with an integral that drops by ``dip`` at u = 5: a stand-in
    for rounding (a dip of a few ulps) or for a broken closed form."""

    dip: float = 0.0

    def integral(self, u):
        u = np.asarray(u, dtype=np.float64)
        return u - np.where(u >= 5.0, self.dip, 0.0)


def test_a_cell_below_zero_by_rounding_draws_nothing():
    # 10 * (ulp(5) - 4e-15) < 0: a few ulps of the whole integral, 100
    spec = RateSpec(components=(JumpComponent(10.0, 0.0, DippingConstant(dip=4e-15)),))
    before = np.nextafter(5.0, 0.0)
    counts = draw_counts(spec, [before, 5.0], HORIZON, SimSeed(1))
    assert np.diff(_integrated(spec, counts.times))[1] < 0
    assert counts.count_at(before) == counts.count_at(5.0)
    assert len(counts) > 0


def test_a_cell_below_zero_beyond_rounding_is_an_error():
    spec = RateSpec(components=(JumpComponent(10.0, 0.0, DippingConstant(dip=1e-3)),))
    before = np.nextafter(5.0, 0.0)
    with pytest.raises(RuntimeError, match=r"over \[4\.999999999999999, 5\.0\] is -0\.0099"):
        draw_counts(spec, [before, 5.0], HORIZON, SimSeed(1))


@pytest.mark.parametrize("times,counts,message", [
    ([0.5, 1.0], [0, 1], "rise strictly from 0"),
    ([0.0, 0.5], [0, 1], "rise strictly from 0"),
    ([0.0, 0.5, 0.5, 1.0], [0, 1, 1, 2], "rise strictly from 0"),
    ([0.0, 0.5, 1.0], [0, 2, 1], "non-decreasing"),
    ([0.0, 1.0], [0, 1, 2], "one length"),
    ([0.0, 1.0], [0, -1], "negative"),
])
def test_sampled_counts_validation(times, counts, message):
    with pytest.raises(ValueError, match=message):
        SampledCounts(np.asarray(times, dtype=float), counts, horizon=1.0)
