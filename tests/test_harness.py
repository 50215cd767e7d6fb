import concurrent.futures
import hashlib
import math
from dataclasses import dataclass

import numpy as np
import pytest

from ratejump.derivative import STEPS_PER_DELTA, _lattice_plan, derivative_profiles
from ratejump.detector import DetectorConfig
from ratejump.harness import (
    PRESETS,
    ConstNullScenario,
    ExperimentSpec,
    Preset,
    Realization,
    SITreeScenario,
    SmoothJumpScenario,
    _read_grid,
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
from windowed_profiles import windowed_profiles


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


def test_heatmap_chunked_pool_map_keeps_trial_order():
    # 17 trials go to 2 workers in chunks of 2 and to 3 in chunks of 1:
    # every result is the serial one, trial by trial
    spec = small_spec(trials=17)
    serial = run_heatmap(spec, workers=1)
    for workers in (2, 3):
        pooled = run_heatmap(spec, workers=workers)
        assert np.array_equal(pooled.errors, serial.errors)
        assert pooled.checksums == serial.checksums


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
        a, b = (s.scenario.realize(SimSeed(s.base_seed, trial),
                                   _read_grid(s.k_grid, s.delta_grid, s.scenario.horizon, None)[0])
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


@dataclass(frozen=True)
class TwoEventTie:
    """N steps by one event at 3.0 and one at 7.0: the order-1 peaks tie, and
    the earlier one, before 3.0, is the estimate."""

    horizon: float = 10.0
    analysis_window = None

    def realize(self, seed, times=None) -> Realization:  # deterministic
        return Realization(EventTimes(np.array([3.0, 7.0]), self.horizon), 0.0)


def trial_spec(scenario, k_grid=tuple(range(1, 7)), delta_grid=(0.05, 0.1, 0.3, 0.7, 1.3, 3.5)):
    return ExperimentSpec(scenario=scenario, k_grid=k_grid, delta_grid=delta_grid, trials=1,
                          base_seed=3)


# (spec, whether some cell has no grid point): k=6 at delta=3.5 leaves none on [0, 20]
TRIAL_SPECS = {
    "smooth-jump": (trial_spec(SmoothJumpScenario(base=300.0, jump=400.0)), True),
    # the window (5, 15) clips every order at the small deltas and only some at
    # 1.3 and 3.5, whose plans read two lattices
    "const-null-window": (trial_spec(ConstNullScenario(base=300.0)), True),
    "window-clips-some-orders": (trial_spec(ClippedLowOrders(base=300.0, jump=400.0)), True),
    "fig2-scaled": (heatmap_spec_from_preset(get_preset("fig2-scaled"), trials=2, base_seed=5),
                    False),
    "fig5-style-tree": (heatmap_spec_from_preset(get_preset("fig5"), extra_leaves=300, trials=2,
                                                 base_seed=5), False),
    "tie": (ExperimentSpec(TwoEventTie(), (1, 2), (0.5, 1.0), trials=1), False),
    # a repeated order and a repeated delta: their cells read the same segments
    "repeated-cells": (trial_spec(SmoothJumpScenario(base=300.0, jump=400.0), (2, 4, 2),
                                  (0.3, 1.3, 0.3)), False),
    "repeated-cells-window": (trial_spec(ConstNullScenario(base=300.0), (2, 4, 2),
                                         (0.3, 1.3, 0.3)), False),
}


@pytest.mark.parametrize("name", list(TRIAL_SPECS))
def test_trial_errors_match_per_cell_argmax(name):
    # every cell of a trial, scored at once over one plan for the whole grid,
    # is the argmax of that delta's profiles, whose own argmax is np.argmax's
    spec, some_empty = TRIAL_SPECS[name]
    window = spec.scenario.analysis_window
    failures = 0
    for trial in range(spec.trials):
        errors, checksum, diagnostics = _trial_errors(spec, trial)
        horizon = getattr(spec.scenario, "horizon", None)
        times = (None if horizon is None
                 else _read_grid(spec.k_grid, spec.delta_grid, horizon, window)[0])
        realization = spec.scenario.realize(SimSeed(spec.base_seed, trial), times)
        assert checksum == realization.checksum
        expected = []
        for i, k in enumerate(spec.k_grid):
            for j, delta in enumerate(spec.delta_grid):
                if window is None:
                    profile = derivative_profiles(realization.events, spec.k_grid, delta)[i]
                else:
                    profile, = windowed_profiles(realization.events, [k], delta, 10, window)
                try:
                    peak = profile.argmax()
                except ValueError as exc:
                    assert np.isnan(errors[i, j])
                    expected.append(f"trial {trial} cell (k={k}, delta={delta}): {exc}")
                    continue
                assert peak == int(np.argmax(np.abs(profile.values)))
                assert errors[i, j] == abs(profile.times[peak] - realization.truth)
        assert diagnostics == expected
        failures += len(expected)
    assert (failures > 0) == some_empty
    if name == "const-null-window":
        # each lattice after the first starts below where the one before ended
        _, plan, _ = _read_grid(spec.k_grid, spec.delta_grid, spec.scenario.horizon, window)
        assert np.count_nonzero(np.diff(plan.times) < 0) + 1 == len(spec.delta_grid) + 2
    if name == "tie":  # both events give |D| = 1: the estimate is before the first
        assert (errors[0] < 3.0).all()
    if name.startswith("repeated-cells"):  # a repeated row or column repeats its errors
        assert np.array_equal(errors[0], errors[2]) and np.array_equal(errors[:, 0], errors[:, 2])


def digest(result) -> str:
    """sha256 of a heatmap's errors.tobytes() + repr(checksums)."""
    return hashlib.sha256(result.errors.tobytes() + repr(result.checksums).encode()).hexdigest()


def libm_probe() -> str:
    """The first 16 hex digits of the sha256 of the bits numpy's tan, exp
    and expm1 give on 4,097 fixed points.  numpy's AVX512 kernels of these
    round some last bits otherwise than its other kernels do, so a digest
    drawn through them depends on the CPU; np.sin gives the same bits on
    both paths."""
    x = np.linspace(-30.0, 30.0, 4097)
    bits = np.concatenate([np.tan(x), np.exp(x), np.expm1(x)]).tobytes()
    return hashlib.sha256(bits).hexdigest()[:16]


# digests of run_heatmap at base seed 11 (numpy 2.4.6), as computed when
# trials read the drawn counts through SampledCounts.count_at: reading them
# by index must not move a bit.  The two Poisson presets' digests are those
# of counts spread over the cells by the Poisson split of ``draw_counts``.
# Their rates take the sine by np.tan and the decay by np.exp and np.expm1,
# so each is pinned per ``libm_probe``: numpy's AVX512 path, and its path
# with NPY_DISABLE_CPU_FEATURES="X86_V4 AVX512_ICL AVX512_SPR" (an x86 CPU
# without AVX512 takes it too)
AVX512, NO_AVX512 = "1409042ea7d768d7", "9d256cf4080e40da"
PINNED_HEATMAPS = {
    ("fig2-scaled", 4): {
        AVX512: "bd633af4addb3c51cc9d21045e8081f5fb69c46dc0edc8441077f31eca96d16d",
        NO_AVX512: "056e2221137c4ba905cb0c2f328aa70204b8fca640179cbbdb60571d9f793a43",
    },
    ("fig2-full", 3): {
        AVX512: "4d23609cc96863d5430d68ba7b24d7a6565d0eecfe40af975f154cbdb4b27798",
        NO_AVX512: "9757a2059a2533932c49a0562d2f13b6c680daf4599ef81f4d7dec4ef8eb0b25",
    },
    ("fig5", 2): "e1ea5787894e037dea843c521adc103aabbed4e9a0d4cd220f1498de3e3e7a9b",
}


@pytest.mark.parametrize("preset, trials", list(PINNED_HEATMAPS))
def test_heatmap_errors_and_checksums_match_their_pinned_digest(preset, trials):
    pinned = PINNED_HEATMAPS[preset, trials]
    if isinstance(pinned, dict):  # one exact digest per path of numpy's tan, exp and expm1
        probe = libm_probe()
        assert probe in pinned, f"no digest is pinned for numpy's tan/exp/expm1 probe {probe}"
        pinned = pinned[probe]
    result = run_heatmap(heatmap_spec_from_preset(get_preset(preset), trials=trials,
                                                  base_seed=11))
    assert digest(result) == pinned


@dataclass(frozen=True)
class EventTimesConstNull(ConstNullScenario):
    """const-null realized as its whole event stream, which a trial reads
    through count_at, not as counts drawn on the read grid."""

    def realize(self, seed, times=None) -> Realization:
        return super().realize(seed)


# the two paths under an analysis window, drawn counts and event times: the
# digest, as above, and the failed cells, as computed when a trial read
# event times through derivative_profiles(..., window=...); the drawn
# counts' digest is that of the Poisson split, as above
PINNED_WINDOWED = {
    "drawn counts": (
        ExperimentSpec(ConstNullScenario(), tuple(range(1, 7)),
                       get_preset("fig2-scaled").params["delta_grid"], trials=3, base_seed=11),
        "7402ee280a566eb02755835508f12bd3471d899b8f9909109b351ee44c20a4e1", 0),
    "event times": (
        ExperimentSpec(EventTimesConstNull(base=2000.0), (1, 2, 3, 4), (0.05, 0.3, 1.1, 6.0),
                       trials=3, base_seed=11),
        "df25f910a3380cb1fa0d3503c6e4b4e2ce4ce1aa221f110638808269c7686924", 3),
}


@pytest.mark.parametrize("path", list(PINNED_WINDOWED))
def test_windowed_heatmap_matches_its_pinned_digest(path):
    spec, pinned, failed_cells = PINNED_WINDOWED[path]
    result = run_heatmap(spec)
    assert (digest(result), result.failed_cells) == (pinned, failed_cells)


def test_read_grid_cache_keeps_fixed_horizons_only():
    # each cascade sets its own horizon, which no later trial reads again;
    # a trial of a fixed horizon looks its read grid up once
    before = _read_grid.cache_info()
    run_heatmap(heatmap_spec_from_preset(get_preset("fig5"), extra_leaves=50, trials=3))
    assert _read_grid.cache_info() == before
    trials = 2
    run_heatmap(heatmap_spec_from_preset(get_preset("fig2-scaled"), trials=trials))
    after = _read_grid.cache_info()
    assert after.misses - before.misses <= 1
    assert after.hits - before.hits >= trials - 1


def test_a_cascade_trial_reads_N_once_at_its_plan_times(monkeypatch):
    spec = heatmap_spec_from_preset(get_preset("fig5"), extra_leaves=50, trials=1, base_seed=4)
    calls = []
    count_at = EventTimes.count_at

    def recording(self, t):
        calls.append(np.array(t))
        return count_at(self, t)

    monkeypatch.setattr(EventTimes, "count_at", recording)
    before = _read_grid.cache_info()
    _trial_errors(spec, 0)
    assert _read_grid.cache_info() == before
    trace = simulate_si(spec.scenario.graph, 0, SimSeed(spec.base_seed, 0).split(0))
    plan = _lattice_plan(spec.k_grid, spec.delta_grid, STEPS_PER_DELTA, trace.times.max(), None)
    assert len(calls) == 1
    assert np.array_equal(calls[0], plan.times)


@pytest.mark.parametrize("knots", ["every other time", "one time moved"])
def test_trial_refuses_counts_drawn_off_its_read_grid(monkeypatch, knots):
    spec = small_spec(trials=1)
    grid = _read_grid(spec.k_grid, spec.delta_grid, spec.scenario.horizon, None)[0]
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


@dataclass(frozen=True)
class HorizonlessDrawnCounts:
    """No horizon before it is realized, so no read grid to draw on, yet it
    returns drawn counts."""

    analysis_window = None

    def realize(self, seed, times=None) -> Realization:
        knots = np.linspace(0.0, 10.0, 11)
        return Realization(SampledCounts(knots, np.arange(knots.size), 10.0), 5.0)


def test_trial_refuses_counts_drawn_by_a_scenario_with_no_horizon():
    spec = ExperimentSpec(HorizonlessDrawnCounts(), (1, 2), (0.5, 1.0), trials=1)
    with pytest.raises(ValueError, match=r"drawn at 11 times that are not the 0 times "
                                         r"of the trial's read grid"):
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
    expected = {"fig1", "fig2-scaled", "fig2-full", "fig5", "multicascade-tree"}
    assert expected == set(PRESETS)
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
    # one trial runs here: a pool of one process would only add its start-up
    spec = small_spec(trials=1)
    assert run_heatmap(spec, workers=16).checksums == run_heatmap(spec).checksums
    assert sizes == [2]


def test_si_tree_heatmap_worker_independent():
    spec = ExperimentSpec(scenario=SITreeScenario(height=6, extra_leaves=40),
                          k_grid=(1, 2), delta_grid=(0.2, 0.5), trials=4, base_seed=3)
    a = run_heatmap(spec, workers=1)
    b = run_heatmap(spec, workers=2)
    assert np.array_equal(a.errors, b.errors, equal_nan=True)
    assert a.checksums == b.checksums
