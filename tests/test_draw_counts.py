"""N drawn only at given times (``draw_counts``), checked against its law.

The oracles do not use the shapes' closed-form integrals that the draw
uses: Lambda(t) comes from scipy's quadrature of ``eval_rate``, and the
heatmap errors from the thinning path (``simulate`` and ``EventTimes``).
Seeds are fixed; a statistic more than 4 sd from its mean, or a p-value
below 1e-3, fails.
"""

import itertools
from dataclasses import dataclass

import numpy as np
import pytest
from scipy import integrate, stats

from ratejump.derivative import derivative_profile
from ratejump.harness import (
    ExperimentSpec,
    SmoothJumpScenario,
    _read_grid,
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
    _split,
    draw_counts,
    eval_rate,
    preset_rate_spec,
)
from ratejump.process import SampledCounts
from ratejump.seeding import SimSeed, generator

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


def test_the_total_is_the_first_poisson_draw_of_the_seed():
    for r in range(20):
        counts = draw_counts(SPEC, [1.0, 2.0], HORIZON, SimSeed(9, r))
        total = _integrated(SPEC, counts.times)[-1]
        assert len(counts) == generator(SimSeed(9, r)).poisson(total)


def multinomial_pvalue(cells, totals, p):
    """p-value of a chi-square test that each row of ``cells`` (counts over
    the cells) is Multinomial(its entry of ``totals``, p), summed over the
    totals; within a total, the outcomes expected fewer than 5 times are
    pooled into one bin."""
    positive = np.flatnonzero(p)
    stat = dof = 0.0
    for n in np.unique(totals).tolist():
        rows = cells[totals == n][:, positive].tolist()
        # every outcome with this total, its expected and its observed count
        outcomes = np.array([(*x, n - sum(x)) for x in
                             itertools.product(range(n + 1), repeat=positive.size - 1)
                             if sum(x) <= n])
        expected = len(rows) * stats.multinomial.pmf(outcomes, n, p[positive] / p.sum())
        tally = dict.fromkeys(map(tuple, outcomes.tolist()), 0)
        for row in rows:
            tally[tuple(row)] += 1
        observed = np.array(list(tally.values()))
        rare = expected < 5
        observed = np.append(observed[~rare], observed[rare].sum())
        expected = np.append(expected[~rare], expected[rare].sum())
        if not rare.any():
            observed, expected = observed[:-1], expected[:-1]
        stat += ((observed - expected) ** 2 / expected).sum()
        dof += observed.size - 1
    return stats.chi2.sf(stat, dof)


# on [0, 1], a rate of 0 until 0.3 and then a constant: four cells at these
# times, the first with no mass
STEP_TIMES = [0.3, 0.45, 0.8]
STEP_MASS = np.array([0.0, 0.15, 0.35, 0.2])


@pytest.mark.parametrize("total", [2.0, 20.0])
def test_counts_given_their_total_are_multinomial(total):
    # N(1) is the seed's first Poisson draw, then its events are split over
    # the cells as Multinomial(N(1), mass / total): at a total of 2 most draws
    # have N(1) < 4, which the split leaves wholly to its top-up, and at 20
    # N(1) reaches past 30 and about 1 split in 200 draws its Poissons again
    spec = RateSpec(components=(JumpComponent(total / 0.7, 0.3, Constant()),))
    runs = 5000
    cells = np.empty((runs, STEP_MASS.size), dtype=np.int64)
    totals = np.empty(runs, dtype=np.int64)
    for r in range(runs):
        cells[r] = np.diff(draw_counts(spec, STEP_TIMES, 1.0, SimSeed(31, r)).counts)
        totals[r] = generator(SimSeed(31, r)).poisson(total)
    assert (cells.sum(axis=1) == totals).all()
    assert not cells[:, 0].any()
    assert totals.max() >= (7 if total == 2.0 else 30)
    p = multinomial_pvalue(cells, totals, STEP_MASS)
    assert p > P_FLOOR, p


class FirstPoissonTooMany:
    """A generator whose first Poisson draw puts n + 1 events in the last
    cell, a cell with no mass, so a split must draw its Poissons again."""

    def __init__(self, rng, n):
        self.rng, self.n, self.first = rng, n, True
        self.random = rng.random

    def poisson(self, lam):
        if not self.first:
            return self.rng.poisson(lam)
        self.first = False
        too_many = np.zeros(np.shape(lam), dtype=np.int64)
        too_many[-1] = self.n + 1
        return too_many


def test_a_split_that_draws_again_keeps_the_multinomial_law():
    mass = np.array([0.4, 1.3, 0.2, 0.6, 0.0])
    n, runs = 12, 20_000
    rng = np.random.default_rng(32)
    cells = np.stack([_split(n, mass.copy(), FirstPoissonTooMany(rng, n)) for _ in range(runs)])
    assert (cells.sum(axis=1) == n).all()
    assert not cells[:, -1].any()
    p = multinomial_pvalue(cells, np.full(runs, n), mass)
    assert p > P_FLOOR, p


class LargestUniform:
    """A generator whose Poisson draws are 0 and whose uniforms are the
    largest double below 1, so every event comes from the top-up."""

    def poisson(self, lam):
        return np.zeros(np.shape(lam), dtype=np.int64)

    def random(self, size):
        return np.full(size, 1.0 - 2.0 ** -53)


@pytest.mark.parametrize("mass", [
    [0.0, 1.0, 2.0, 0.0, 0.0],
    [0.0, 5e-324, 0.0, 0.0],  # a subnormal total: u * total rounds up to it
], ids=["normal", "subnormal"])
def test_the_top_up_never_reaches_a_trailing_cell_without_mass(mass):
    mass = np.array(mass)
    last = int(np.flatnonzero(mass)[-1])
    cells = _split(7, mass.copy(), LargestUniform())
    assert cells.tolist() == [7 if i == last else 0 for i in range(mass.size)]


def test_no_event_lands_in_a_cell_without_mass():
    mass = np.array([0.0, 0.3, 0.0, 0.7, 0.0, 0.0])
    rng = np.random.default_rng(33)
    cells = np.stack([_split(n, mass.copy(), rng) for n in range(40) for _ in range(50)])
    assert cells[:, mass > 0].sum() == 50 * sum(range(40))


def test_times_are_clamped_to_the_horizon_and_undrawn_times_are_named():
    counts = draw_counts(SPEC, [-1.0, 1.0, 2.5, 12.0], HORIZON, SimSeed(7))
    assert counts.times.tolist() == [0.0, 1.0, 2.5, HORIZON]
    assert counts.count_at([-1.0, 0.0]).tolist() == [0, 0]
    assert counts.count_at(12.0) == counts.count_at(HORIZON) == len(counts)
    assert counts.count_at(np.array([[1.0], [2.5]])).shape == (2, 1)
    with pytest.raises(ValueError, match=r"^N is known only at its knots, not at t = 2\.0$"):
        counts.count_at([1.0, 2.0])


def test_a_valid_read_grid_draws_as_its_shuffled_duplicated_copy_does():
    # times rising strictly from 0 to the horizon are the grid itself; any
    # other times become it through np.unique, and the draw is the same
    grid = np.concatenate(([0.0], np.sort(np.random.default_rng(4).uniform(0, HORIZON, 300)),
                           [HORIZON]))
    messy = np.random.default_rng(5).permutation(np.concatenate((grid[1:-1], grid[10:40])))
    given = grid.copy()
    drawn = draw_counts(SPEC, given, HORIZON, SimSeed(8))
    assert drawn == draw_counts(SPEC, messy, HORIZON, SimSeed(8))
    assert np.array_equal(drawn.times, grid)
    # the result holds a copy: the caller's array is theirs to change
    given[:] = 1.0
    assert np.array_equal(drawn.times, grid)


def test_a_leading_negative_zero_gives_the_grid_np_unique_gives():
    times = np.array([-0.0, 1.0, 2.5, HORIZON])
    drawn = draw_counts(SPEC, times, HORIZON, SimSeed(9))
    expected = np.unique(np.concatenate(([0.0, HORIZON], np.clip(times, 0.0, HORIZON))))
    assert drawn.times.tobytes() == expected.tobytes()  # the sign of the zero too
    assert drawn == draw_counts(SPEC, [0.0, 1.0, 2.5, HORIZON], HORIZON, SimSeed(9))


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
    grid = _read_grid(spec.k_grid, spec.delta_grid, 20.0, None)[0]
    counts = draw_counts(rate, grid, 20.0, SimSeed(3))
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


def test_sampled_counts_checks_each_pair():
    times = np.array([0.0, 0.25, np.nextafter(0.25, 1.0), 1.0])
    N = SampledCounts(times, [0, 3, 3, 7], horizon=1.0)  # ties in the counts are fine
    assert N.count_at(times).tolist() == [0, 3, 3, 7]
    with pytest.raises(ValueError, match="rise strictly"):
        SampledCounts(times[[0, 2, 1, 3]], [0, 3, 3, 7], horizon=1.0)
    with pytest.raises(ValueError, match="non-decreasing"):
        SampledCounts(times, [0, 3, 2, 7], horizon=1.0)
