"""The benchmark's checks fail on deliberately wrong inputs and pass on right ones.

    python3 -m pytest bench -q
"""

import sys
from pathlib import Path

import numpy as np
import pytest
from scipy import stats

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import oracles  # noqa: E402
import workloads  # noqa: E402
from ratejump import ingest, poisson  # noqa: E402
from ratejump.seeding import SimSeed  # noqa: E402


def tree_times(rate, seed):
    """Infection times on the benchmark tree with i.i.d. Exp(rate) edge gaps."""
    parent, _ = oracles.tree_parents(18, 8000)
    gaps = np.random.default_rng(seed).exponential(1.0 / rate, parent.size)
    times = np.zeros(parent.size)
    n_tree = 2 ** 19 - 1
    for d in range(1, 19):  # parents precede children level by level
        level = np.arange(2 ** d - 1, 2 ** (d + 1) - 1)
        times[level] = times[parent[level]] + gaps[level]
    times[n_tree:] = times[parent[n_tree:]] + gaps[n_tree:]
    return times, parent


@pytest.mark.parametrize("seed", [1, 2])
def test_tree_gaps_at_rate_one_pass(seed):
    assert oracles.check_tree_gaps(*tree_times(1.0, seed)) == []


@pytest.mark.parametrize("seed", [1, 2])
def test_tree_gaps_at_rate_1_01_fail(seed):
    assert oracles.check_tree_gaps(*tree_times(1.01, seed))


def test_ks_matches_scipy():
    gaps = np.random.default_rng(5).exponential(1.1, 5000)
    expected = stats.kstest(gaps, "expon").statistic * np.sqrt(gaps.size)
    assert oracles.ks_exp1(gaps.copy()) == pytest.approx(expected, rel=1e-12)


def stream_events(scale, seed=7):
    w = workloads.StreamJumps
    spec = poisson.RateSpec(
        (poisson.JumpComponent(scale * w.base, 0.0, poisson.Sinusoid(offset=1.0, omega=1.0)),)
        + tuple(poisson.JumpComponent(scale * w.jump, t, poisson.ExpDecay(rate=1.0))
                for t in w.onsets))
    return poisson.simulate(spec, w.horizon, SimSeed(seed))


def test_stream_events_at_the_planted_rate_pass():
    w = workloads.StreamJumps
    events = stream_events(1.0)
    assert oracles.check_stream(events.times, w.horizon, w.base, w.jump, w.onsets) == []


def test_stream_events_from_a_rate_1_percent_high_fail():
    w = workloads.StreamJumps
    events = stream_events(1.01)
    assert oracles.check_stream(events.times, w.horizon, w.base, w.jump, w.onsets)


def test_estimate_moved_by_three_deltas_fails():
    w = workloads.StreamJumps(0)
    _, report = w.call(None, 0)()
    found = report.times
    assert oracles.check_estimates(found, w.onsets, w.delta) == []
    for sign in (1, -1):
        moved = list(found)
        moved[1] += sign * 3 * w.delta
        assert oracles.check_estimates(moved, w.onsets, w.delta)
    assert oracles.check_estimates(found[:2], w.onsets, w.delta)


@pytest.fixture(scope="module")
def daily():
    out = BENCH / "out"
    out.mkdir(exist_ok=True)
    w = workloads.DailyRegions(3)
    w.prepare(out)
    yield w
    w.cleanup()


@pytest.mark.parametrize("f", [0, 1])
def test_daily_profile_shifted_by_one_day_fails(daily, f):
    planted = daily.planted[f][4]
    series = ingest.load_daily_csv(daily.paths[f], region=daily.region(4), mode=daily.modes[f])
    assert oracles.check_daily(series.counts, series.filled_days, series.clamped_days,
                               planted) == []
    for k in (1, 2, 3, 4):
        a = ingest.analyze_binned(series, k)
        assert oracles.check_daily_profile(k, a.profile.values, a.argmax_day, planted) == []
        shifted = np.roll(a.profile.values, 1)
        assert oracles.check_daily_profile(k, shifted, a.argmax_day + 1, planted)


def test_daily_audit_trail_must_match(daily):
    planted = daily.planted[1][0]
    assert planted.gaps and planted.corrections
    counts = planted.counts.copy()
    assert oracles.check_daily(counts, planted.gaps[1:], planted.corrections, planted)
    assert oracles.check_daily(counts, planted.gaps, (), planted)
    counts[planted.gaps[0]] = 1
    assert oracles.check_daily(counts, planted.gaps, planted.corrections, planted)


def test_heatmap_trial_check():
    ok = oracles.smooth_jump_integral(1e4, 8e3, 20.0, 10.0)
    errors = np.zeros((1, 6, 24))
    assert oracles.check_heatmap_trial(errors, round(ok), 1e4, 8e3, 20.0, (5.0, 15.0)) == []
    assert oracles.check_heatmap_trial(errors, round(ok * 1.05), 1e4, 8e3, 20.0, (5.0, 15.0))
    errors[0, 1, 2] = np.nan
    assert oracles.check_heatmap_trial(errors, round(ok), 1e4, 8e3, 20.0, (5.0, 15.0))


def test_bundle_output_must_be_the_recomputed_intersection():
    times = [np.array([0.0, 1.0, 2.0, 3.0]), np.array([0.0, 2.0, 1.0, 3.05])]
    detected = [(1.0, 3.0), (1.0, 3.0)]
    failures, found, small = oracles.check_bundle(times, detected, 0.1, {3}, hub=3)
    assert failures == [] and found and small
    assert oracles.check_bundle(times, detected, 0.1, {2, 3}, hub=3)[0]


def test_heatmap_argmin_check():
    k_grid, delta_grid = (1, 2, 3, 4, 5, 6), (0.05, 0.1)
    errors = np.ones((100, 6, 2))
    errors[:, 2, 1] = 0.01
    assert oracles.check_heatmap_argmin(errors, k_grid, delta_grid) == []
    errors[:, 0, 0] = 0.001  # best at k=1: more than one step from k in {3, 4}
    assert oracles.check_heatmap_argmin(errors, k_grid, delta_grid)
    errors[:, 0, 0] = 1.0
    errors[:, 2, 1] = 0.5  # best error above 0.3
    assert oracles.check_heatmap_argmin(errors, k_grid, delta_grid)


def test_cascade_run_check_fails_on_low_bundle_rates():
    w = workloads.CascadeTree(0)

    def notes(hub_hits, small_hits, bundles=3, error=0.1):
        out = []
        for b in range(bundles):
            out += [(error, None), (error, None), (error, (b < hub_hits, b < small_hits))]
        return out

    assert w.finish(notes(3, 3)) == []
    assert w.tally(notes(3, 2)) == {"bundles": 3, "hub_in_output": 3, "at_most_3": 2}
    assert len(w.finish(notes(0, 0))) == 2
    assert w.finish(notes(3, 3, error=0.6))
    # pooled over ten runs, a rate of 2/3 fails where 27/30 passes
    assert w.finish(notes(27, 28, bundles=30)) == []
    assert len(w.finish(notes(20, 20, bundles=30))) == 2
    assert oracles.check_bundle_rates(30, 20, 30)
