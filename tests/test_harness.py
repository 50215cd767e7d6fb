from dataclasses import dataclass

import numpy as np
import pytest

from ratejump.detector import DetectorConfig, argmax_single
from ratejump.harness import (
    PRESETS,
    ConstNullScenario,
    ExperimentSpec,
    Preset,
    RampScenario,
    Realization,
    SITreeScenario,
    SmoothJumpScenario,
    _trial_errors,
    false_alarm_study,
    get_preset,
    heatmap_spec_from_preset,
    run_baselines,
    run_heatmap,
    save_heatmap_csv,
    save_heatmap_long_csv,
)
from ratejump.poisson import Constant, JumpComponent, RateSpec
from ratejump.seeding import SimSeed
from ratejump.si import build_tree_with_hub, simulate_si


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
    assert result.checksums == result2.checksums


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
    # one profile per delta for every order gives the cells argmax_single gives
    spec = ExperimentSpec(
        scenario=scenario,
        k_grid=tuple(range(1, 7)),
        delta_grid=(0.05, 0.1, 0.3, 0.7, 1.3, 3.5),
        trials=1,
        base_seed=3,
    )
    errors, checksum, diagnostics = _trial_errors(spec, 0)
    realization = scenario.realize(SimSeed(3, 0))
    assert checksum == realization.checksum
    expected_failures = []
    for i, k in enumerate(spec.k_grid):
        for j, delta in enumerate(spec.delta_grid):
            try:
                t_hat = argmax_single(
                    realization.events, k, delta, grid_step=delta * 0.1,
                    window=scenario.analysis_window,
                )
            except ValueError as exc:
                assert np.isnan(errors[i, j])
                expected_failures.append(f"trial 0 cell (k={k}, delta={delta}): {exc}")
                continue
            assert errors[i, j] == abs(t_hat - realization.truth)
    assert diagnostics == expected_failures
    assert expected_failures  # k=6 at delta=3.5 leaves no grid point on [0, 20]


def test_spec_rejects_an_order_above_the_limit_naming_it():
    with pytest.raises(ValueError, match=r"k_grid\[1\].* must be <= 20, got 21"):
        ExperimentSpec(scenario=SmoothJumpScenario(base=300.0, jump=400.0),
                       k_grid=(2, 21), delta_grid=(0.2, 0.4), trials=1)


def test_heatmap_programming_error_propagates():
    # only a ValueError (empty or invalid window) is a per-cell failure
    class NoCountAtScenario:
        analysis_window = None

        def realize(self, seed):
            return Realization(events=np.arange(5.0), truth=1.0, checksum=(5, 10.0))

    spec = ExperimentSpec(
        scenario=NoCountAtScenario(), k_grid=(1, 2), delta_grid=(0.5,), trials=2
    )
    with pytest.raises(TypeError, match="count_at"):
        run_heatmap(spec)


def test_const_null_mean_error_near_span_third():
    scenario = ConstNullScenario(base=200.0, onset_low=5.0, onset_high=15.0)
    spec = ExperimentSpec(
        scenario=scenario, k_grid=(2,), delta_grid=(0.3,), trials=40, base_seed=1
    )
    result = run_heatmap(spec)
    # blind guessing on a 10-unit interval: expected error 10/3
    assert 2.1 <= result.mean_errors[0, 0] <= 4.6


def test_baselines_ramp_all_orders_good():
    scenario = RampScenario(rate_after=200.0)
    report = run_baselines(
        scenario, delta_grid=(0.3, 0.5), trials=2, base_seed=0, high_orders=(3, 4)
    )
    for k, (_, err) in report.per_order_min.items():
        if k in (2, 3):
            assert err <= 0.05 + 1e-9
        if k == 4:
            # extreme of the order-4 stencil sits one delta past the kink
            assert err <= 0.5 + 1e-9
    assert set(report.per_order_min) == {1, 2, 3, 4}
    assert report.best_high[0] in (3, 4)


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
    scenario = SITreeScenario(height=5, extra_leaves=20, source=3)
    assert scenario.graph is scenario.graph
    assert scenario == SITreeScenario(height=5, extra_leaves=20, source=3)
    assert "graph" not in repr(scenario)
    tree = build_tree_with_hub(5, 20)
    for i in range(3):
        seed = SimSeed(8, i)
        trace = simulate_si(tree, 3, seed.split(0))
        r = scenario.realize(seed)
        assert r.truth == trace.times[tree.hub]
        assert np.array_equal(r.events.times, np.sort(trace.times))


def test_si_tree_heatmap_worker_independent():
    spec = ExperimentSpec(scenario=SITreeScenario(height=6, extra_leaves=40),
                          k_grid=(1, 2), delta_grid=(0.2, 0.5), trials=4, base_seed=3)
    a = run_heatmap(spec, workers=1)
    b = run_heatmap(spec, workers=2)
    assert np.array_equal(a.errors, b.errors, equal_nan=True)
    assert a.checksums == b.checksums
