import concurrent.futures
import hashlib
import math
from dataclasses import dataclass

import numpy as np
import pytest

from ratejump.derivative import derivative_profiles
from ratejump.detector import DetectorConfig
from ratejump.harness import (
    PRESETS,
    ConstNullScenario,
    ExperimentSpec,
    Preset,
    Realization,
    SITreeScenario,
    SmoothJumpScenario,
    _sample_times,
    _trial_errors,
    false_alarm_study,
    get_preset,
    heatmap_spec_from_preset,
    run_heatmap,
    save_heatmap_csv,
    save_heatmap_long_csv,
)
from ratejump.poisson import Constant, JumpComponent, RateSpec
from ratejump.process import EventTimes, SampledCounts
from ratejump.seeding import SimSeed
from ratejump.si import build_tree_with_hub, simulate_si


@dataclass(frozen=True)
class RampScenario:
    """Deterministic scenario: no events, then perfectly regular events.

    The rate steps from 0 to ``rate_after`` at ``change_at``; every order
    k >= 1 should locate the change to within one grid step.
    """

    rate_after: float = 100.0
    change_at: float = 5.0
    horizon: float = 10.0

    analysis_window = None

    def realize(self, seed, times=None) -> Realization:  # seed and times unused: deterministic
        step = 1.0 / self.rate_after
        n = int(math.floor((self.horizon - self.change_at) / step))
        times = self.change_at + step * np.arange(1, n + 1)
        return Realization(EventTimes(times=times, horizon=self.horizon), self.change_at)


def small_spec(trials=4, base_seed=11):
    scenario = SmoothJumpScenario(base=300.0, jump=400.0)
    return ExperimentSpec(
        scenario=scenario,
        k_grid=(1, 2, 3),
        delta_grid=(0.1, 0.3),
        trials=trials,
        base_seed=base_seed,
    )


def test_ramp_trial_is_exact_to_grid():
    scenario = RampScenario(rate_after=200.0, change_at=5.0, horizon=10.0)
    spec = ExperimentSpec(scenario=scenario, k_grid=(2, 3, 4), delta_grid=(0.5,), trials=1)
    errors = run_heatmap(spec).errors[0, :, 0]
    for err in errors[:2]:  # k = 2, 3
        assert err <= 0.05 + 1e-9  # one grid step at delta/10
    # on a noiseless one-sided kink the order-4 extreme sits one delta past
    # the kink, so the error is delta itself, not a grid step
    assert errors[2] <= 0.5 + 1e-9


def test_heatmap_reproducible_and_worker_independent():
    spec = small_spec()
    a = run_heatmap(spec, workers=1)
    b = run_heatmap(spec, workers=1)
    c = run_heatmap(spec, workers=2)
    assert np.array_equal(a.errors, b.errors)
    assert np.array_equal(a.errors, c.errors)
    assert a.argmin == c.argmin
    assert a.checksums == c.checksums


def test_heatmap_common_random_numbers():
    # the same realization feeds every cell within a trial
    spec = small_spec(trials=3)
    result = run_heatmap(spec)
    assert len(result.checksums) == 3
    assert len(set(result.checksums)) == 3  # trials differ
    # same base seed, different grid: identical realizations
    spec2 = ExperimentSpec(
        scenario=spec.scenario,
        k_grid=(2,),
        delta_grid=(0.5,),
        trials=3,
        base_seed=spec.base_seed,
    )
    result2 = run_heatmap(spec2)
    # N(horizon) and the truth are drawn before the grid is read; the counts
    # are drawn only where each grid reads, so the count sums differ
    assert [c[0] for c in result.checksums] == [c[0] for c in result2.checksums]
    for trial in range(3):
        a, b = (s.scenario.realize(SimSeed(s.base_seed, trial), _sample_times(s))
                for s in (spec, spec2))
        assert a.truth == b.truth
        assert (a.checksum, b.checksum) == (result.checksums[trial], result2.checksums[trial])


def test_heatmap_counts_and_argmin():
    spec = small_spec(trials=5)
    result = run_heatmap(spec)
    assert result.counts.shape == (3, 2)
    assert np.all(result.counts == 5)
    k, d, err = result.argmin
    assert k in spec.k_grid and d in spec.delta_grid
    assert err == pytest.approx(np.nanmin(result.mean_errors))


def test_heatmap_cell_failure_recorded_not_fatal():
    # horizon too short for k=6 at delta=2: that cell fails, others survive
    scenario = SmoothJumpScenario(base=300.0, jump=400.0, horizon=8.0)
    spec = ExperimentSpec(
        scenario=scenario, k_grid=(2, 6), delta_grid=(0.2, 2.0), trials=2, base_seed=0
    )
    result = run_heatmap(spec)
    assert np.isnan(result.errors[:, 1, 1]).all()
    assert result.counts[1, 1] == 0
    assert result.counts[0, 0] == 2
    assert result.failed_cells == 2
    assert any("k=6" in d for d in result.diagnostics)


@dataclass(frozen=True)
class ClippedLowOrders(SmoothJumpScenario):
    """A window that clips orders 1-2 at delta 0.3 but not the higher ones,
    so their profiles sit on lattices with different origins."""

    analysis_window = (0.5, 15.0)


@pytest.mark.parametrize(
    "scenario",
    [
        SmoothJumpScenario(base=300.0, jump=400.0),
        ConstNullScenario(base=300.0),
        ClippedLowOrders(base=300.0, jump=400.0),
    ],
    ids=["smooth-jump", "const-null-window", "window-clips-some-orders"],
)
def test_trial_errors_match_per_cell_argmax(scenario):
    # one profile per delta for every order gives the cells one profile per cell gives
    spec = ExperimentSpec(
        scenario=scenario,
        k_grid=tuple(range(1, 7)),
        delta_grid=(0.05, 0.1, 0.3, 0.7, 1.3, 3.5),
        trials=1,
        base_seed=3,
    )
    errors, checksum, diagnostics = _trial_errors(spec, 0)
    realization = scenario.realize(SimSeed(3, 0), _sample_times(spec))
    assert checksum == realization.checksum
    expected_failures = []
    for i, k in enumerate(spec.k_grid):
        for j, delta in enumerate(spec.delta_grid):
            try:
                profile, = derivative_profiles(realization.events, [k], delta,
                                               window=scenario.analysis_window)
                t_hat = profile.times[profile.argmax()]
            except ValueError as exc:
                assert np.isnan(errors[i, j])
                expected_failures.append(f"trial 0 cell (k={k}, delta={delta}): {exc}")
                continue
            assert errors[i, j] == abs(t_hat - realization.truth)
    assert diagnostics == expected_failures
    assert expected_failures  # k=6 at delta=3.5 leaves no grid point on [0, 20]


# sha256 of errors.tobytes() + repr(checksums) for run_heatmap at base seed
# 11 (numpy 2.4.6), as computed when trials read the drawn counts through
# SampledCounts.count_at: reading them by index must not move a bit
PINNED_HEATMAPS = {
    ("fig2-scaled", 4): "4acd0320ca9f7316d048c088079b52f29438cf22032c3f24cdf38bb0a665afdb",
    ("fig2-full", 3): "619ace5cb2a09f25ebdac541409e54ea4e9be435268d56e473c760f7bf5dd113",
    ("fig5", 2): "e1ea5787894e037dea843c521adc103aabbed4e9a0d4cd220f1498de3e3e7a9b",
}


@pytest.mark.parametrize("preset, trials", list(PINNED_HEATMAPS))
def test_heatmap_errors_and_checksums_match_their_pinned_digest(preset, trials):
    result = run_heatmap(heatmap_spec_from_preset(get_preset(preset), trials=trials,
                                                  base_seed=11))
    digest = hashlib.sha256(result.errors.tobytes() + repr(result.checksums).encode())
    assert digest.hexdigest() == PINNED_HEATMAPS[preset, trials]


@pytest.mark.parametrize("knots", ["every other time", "one time moved"])
def test_trial_refuses_counts_drawn_off_its_read_grid(monkeypatch, knots):
    spec = small_spec(trials=1)
    grid = _sample_times(spec)
    if knots == "every other time":
        other = np.append(grid[:-1:2], grid[-1])
    else:
        other = grid.copy()
        other[5] += 1e-13  # off by less than count_at's tolerance, still not a drawn time

    def realize(self, seed, times=None):
        return Realization(SampledCounts(other, np.arange(other.size), self.horizon), 10.0)

    monkeypatch.setattr(SmoothJumpScenario, "realize", realize)
    message = (rf"drawn at {other.size} times that are not the {grid.size} times "
               r"of the trial's read grid")
    with pytest.raises(ValueError, match=message):
        _trial_errors(spec, 0)


def test_spec_rejects_an_order_above_the_limit_naming_it():
    with pytest.raises(ValueError, match=r"k_grid\[1\].* must be <= 20, got 21"):
        ExperimentSpec(scenario=SmoothJumpScenario(base=300.0, jump=400.0),
                       k_grid=(2, 21), delta_grid=(0.2, 0.4), trials=1)


def test_heatmap_programming_error_propagates():
    # only a ValueError (empty or invalid window) is a per-cell failure
    class NoCountAtScenario:
        analysis_window = None

        def realize(self, seed, times):
            return Realization(events=np.arange(5.0), truth=1.0)

    spec = ExperimentSpec(
        scenario=NoCountAtScenario(), k_grid=(1, 2), delta_grid=(0.5,), trials=2
    )
    with pytest.raises(TypeError, match="count_at"):
        run_heatmap(spec)


def test_const_null_mean_error_near_span_third():
    scenario = ConstNullScenario(base=200.0)  # truth uniform on [5, 15]
    spec = ExperimentSpec(
        scenario=scenario, k_grid=(2,), delta_grid=(0.3,), trials=40, base_seed=1
    )
    result = run_heatmap(spec)
    # blind guessing on a 10-unit interval: expected error 10/3
    assert 2.1 <= result.mean_errors[0, 0] <= 4.6


def test_baselines_ramp_all_orders_good():
    scenario = RampScenario(rate_after=200.0)
    spec = ExperimentSpec(scenario=scenario, k_grid=(1, 2, 3, 4), delta_grid=(0.3, 0.5),
                          trials=2, base_seed=0)
    best = run_heatmap(spec).best_per_order
    for k, (_, err) in best.items():
        if k in (2, 3):
            assert err <= 0.05 + 1e-9
        if k == 4:
            # extreme of the order-4 stencil sits one delta past the kink
            assert err <= 0.5 + 1e-9
    assert set(best) == {1, 2, 3, 4}


def test_best_per_order_is_each_rows_first_minimum():
    result = run_heatmap(small_spec())
    for i, k in enumerate(result.k_grid):
        row = result.mean_errors[i].tolist()
        j = row.index(min(row))
        assert result.best_per_order[k] == (result.delta_grid[j], row[j])


def test_best_per_order_names_an_order_whose_every_cell_failed():
    # on [0, 10] at delta 3, orders 4 and 5 fit no grid time
    result = run_heatmap(ExperimentSpec(RampScenario(), (1, 2, 3, 4, 5), (3.0,), trials=1))
    best = result.best_per_order
    assert best[4] is None and best[5] is None
    assert [k for k in best if best[k] is not None] == [1, 2, 3]
    assert best[1] == (3.0, float(result.mean_errors[0, 0]))


def test_false_alarm_study_counts():
    spec = RateSpec(components=(JumpComponent(500.0, 0.0, Constant()),))
    # score noise std is ~sqrt(6*B*delta)/delta = 100 here, and the detector
    # keeps scores above threshold/2, so threshold 1200 puts the cut at 6 sigma
    config = DetectorConfig(k=3, delta=0.3, threshold=1200.0)
    report = false_alarm_study(spec, 10.0, config, runs=20, base_seed=0)
    assert report.runs == 20
    assert len(report.alarm_counts) == 20
    assert report.runs_with_alarms <= 0.1 * report.runs  # at least 90% clean


def test_heatmap_csv_exports(tmp_path):
    result = run_heatmap(small_spec(trials=2))
    matrix = tmp_path / "heatmap.csv"
    save_heatmap_csv(result, matrix)
    lines = [l for l in matrix.read_text().splitlines() if not l.startswith("#")]
    header = lines[0].split(",")
    assert header[0] == "k\\delta"
    assert [float(x) for x in header[1:]] == [0.1, 0.3]
    assert len(lines) == 1 + 3  # one row per order

    long = tmp_path / "long.csv"
    save_heatmap_long_csv(result, long)
    rows = long.read_text().splitlines()
    assert rows[0] == "k,delta,trial,error"
    assert len(rows) == 1 + 3 * 2 * 2


def test_export_bytes_identical_across_worker_counts(tmp_path):
    spec = small_spec(trials=4)
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    save_heatmap_csv(run_heatmap(spec, workers=1), p1)
    save_heatmap_csv(run_heatmap(spec, workers=3), p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_spec_validation():
    scenario = RampScenario()
    with pytest.raises(ValueError, match="k_grid"):
        ExperimentSpec(scenario=scenario, k_grid=(), delta_grid=(0.1,), trials=1)
    with pytest.raises(ValueError, match="deltas"):
        ExperimentSpec(scenario=scenario, k_grid=(1,), delta_grid=(0.0,), trials=1)
    with pytest.raises(ValueError, match="trials"):
        ExperimentSpec(scenario=scenario, k_grid=(1,), delta_grid=(0.1,), trials=0)


def test_presets_registry():
    expected = {
        "fig1",
        "fig2-scaled",
        "fig2-full",
        "fig4",
        "fig5",
        "const-null",
        "multicascade-tree",
        "sd-covid-style",
    }
    assert expected <= set(PRESETS)
    for name in expected:
        assert isinstance(get_preset(name), Preset)
        assert get_preset(name).describe()
    with pytest.raises(ValueError, match="unknown preset"):
        get_preset("nope")


def test_heatmap_spec_from_preset():
    spec = heatmap_spec_from_preset(get_preset("fig2-scaled"), trials=3, base_seed=9)
    assert isinstance(spec.scenario, SmoothJumpScenario)
    assert spec.trials == 3
    assert spec.base_seed == 9
    assert spec.k_grid == tuple(range(1, 7))
    assert len(spec.delta_grid) == 24

    tree = heatmap_spec_from_preset(get_preset("fig5"), extra_leaves=50, trials=1)
    assert isinstance(tree.scenario, SITreeScenario)
    assert tree.scenario.extra_leaves == 50

    with pytest.raises(ValueError, match="not a heatmap"):
        heatmap_spec_from_preset(get_preset("fig1"))
    with pytest.raises(ValueError, match="overrides"):
        heatmap_spec_from_preset(get_preset("fig2-scaled"), bogus=1)
    with pytest.raises(ValueError, match=r"preset 'fig5': \['jump'\]"):
        heatmap_spec_from_preset(get_preset("fig5"), jump=5.0)
    with pytest.raises(ValueError, match=r"preset 'fig2-scaled': \['extra_leaves'\]"):
        heatmap_spec_from_preset(get_preset("fig2-scaled"), extra_leaves=5)


def test_si_tree_scenario_truth_is_hub_time():
    scenario = SITreeScenario(height=4, extra_leaves=30)
    r = scenario.realize(SimSeed(0, 0))
    g = scenario.graph
    assert r.truth > 0
    assert len(r.events) == g.n
    assert r.checksum[0] == g.n


def test_si_tree_scenario_builds_its_tree_once():
    scenario = SITreeScenario(height=5, extra_leaves=20)
    assert scenario.graph is scenario.graph
    assert scenario == SITreeScenario(height=5, extra_leaves=20)
    assert "graph" not in repr(scenario)
    tree = build_tree_with_hub(5, 20)
    for i in range(3):
        seed = SimSeed(8, i)
        trace = simulate_si(tree, 0, seed.split(0))
        r = scenario.realize(seed)
        assert r.truth == trace.times[tree.hub]
        assert np.array_equal(r.events.times, np.sort(trace.times))


@dataclass(frozen=True)
class CountedSITree(SITreeScenario):
    """An SI-tree scenario that counts each pickle of it made in this process."""

    pickles = []

    def __reduce_ex__(self, protocol):
        self.pickles.append(protocol)
        return super().__reduce_ex__(protocol)


def test_heatmap_workers_get_the_spec_once_each():
    # the spec travels with each worker process as it starts (not at all
    # under fork), never with a trial
    spec = ExperimentSpec(scenario=CountedSITree(height=6, extra_leaves=40),
                          k_grid=(1, 2), delta_grid=(0.2, 0.5), trials=8, base_seed=3)
    CountedSITree.pickles.clear()
    pooled = run_heatmap(spec, workers=2)
    assert len(CountedSITree.pickles) <= 2
    assert pooled.checksums == run_heatmap(spec, workers=1).checksums


def test_heatmap_pool_has_a_process_per_trial_at_most(monkeypatch):
    sizes = []

    class Recording(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, max_workers, **kwargs):
            sizes.append(max_workers)
            super().__init__(max_workers, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Recording)
    spec = small_spec(trials=2)
    assert run_heatmap(spec, workers=16).checksums == run_heatmap(spec).checksums
    assert sizes == [2]


def test_si_tree_heatmap_worker_independent():
    spec = ExperimentSpec(scenario=SITreeScenario(height=6, extra_leaves=40),
                          k_grid=(1, 2), delta_grid=(0.2, 0.5), trials=4, base_seed=3)
    a = run_heatmap(spec, workers=1)
    b = run_heatmap(spec, workers=2)
    assert np.array_equal(a.errors, b.errors, equal_nan=True)
    assert a.checksums == b.checksums
