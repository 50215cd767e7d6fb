import numpy as np
import pytest

from ratejump.detector import DetectorConfig
from ratejump.multicascade import (
    CascadeBundle,
    MulticascadeReport,
    candidate_vertices,
    estimate_high_degree,
    save_multicascade_report,
)
from ratejump.si import CascadeTrace


def make_trace(times):
    times = np.asarray(times, dtype=float)
    return CascadeTrace(times=times, source=int(np.argmin(times)))


def test_candidate_vertices_examples():
    trace = make_trace([0.0, 4.9, 5.6])
    assert candidate_vertices(trace, [], window=0.3) == set()
    assert candidate_vertices(trace, [5.0], window=0.3) == {1}
    assert candidate_vertices(trace, [5.0], window=np.inf) == {0, 1, 2}
    assert candidate_vertices(trace, [0.05, 5.5], window=0.2) == {0, 2}
    with pytest.raises(ValueError, match="window"):
        candidate_vertices(trace, [5.0], window=0.0)


def test_candidate_vertices_match_a_pure_python_scan():
    # 10k vertices, several change times, and vertices exactly one window
    # from a change time (every difference below is exact), which count
    rng = np.random.default_rng(19)
    times = rng.uniform(0.0, 20.0, 10_000)
    times[0] = 0.0
    window, change_times = 0.25, [2.5, 7.0, 7.125, 15.75]
    times[1:9] = [t + side * window for t in change_times for side in (-1, 1)]
    trace = make_trace(times)
    scan = {v for v, time in enumerate(trace.times.tolist())
            if any(abs(time - t) <= window for t in change_times)}
    assert set(range(1, 9)) <= scan
    assert candidate_vertices(trace, change_times, window) == scan
    assert candidate_vertices(trace, np.asarray(change_times), window) == scan


def synthetic_bundle(n_vertices=400, hub=7, hub_time=10.0, n_cascades=3, seed=0):
    """Fabricated traces whose infection rate kinks sharply at the hub time.

    Before the hub, vertices arrive slowly on an even grid; from the hub on
    they arrive 20x faster, so the second count derivative has its tent apex
    at the hub time in every cascade.  Which vertex lands in which slot is
    shuffled per cascade, so only the hub survives intersection.
    """
    rng = np.random.default_rng(seed)
    n_pre = 119   # slow phase, ~12 per unit time over [0, hub_time)
    n_post = n_vertices - n_pre - 2  # fast phase, 250 per unit time
    traces = []
    for c in range(n_cascades):
        h = hub_time + (c - 1) * 0.003
        slot_times = np.concatenate([
            (np.arange(1, n_pre + 1) / (n_pre + 1)) * h,
            h + 0.004 * np.arange(1, n_post + 1),
        ])
        others = np.array([v for v in range(1, n_vertices) if v != hub])
        times = np.empty(n_vertices)
        times[0] = 0.0
        times[hub] = h
        times[rng.permutation(others)] = slot_times
        traces.append(make_trace(times))
    return CascadeBundle(traces=tuple(traces)), hub


def test_bundle_validation():
    with pytest.raises(ValueError, match="at least one"):
        CascadeBundle(traces=())
    t1 = make_trace([0.0, 1.0])
    t2 = make_trace([0.0, 1.0, 2.0])
    with pytest.raises(ValueError, match="vertex count"):
        CascadeBundle(traces=(t1, t2))


def test_estimate_recovers_planted_vertex():
    bundle, hub = synthetic_bundle()
    config = DetectorConfig(k=2, delta=0.2)  # argmax-single per cascade
    report = estimate_high_degree(bundle, config, window=0.04)
    assert hub in report.vertices
    assert len(report.vertices) <= 3


def test_output_subset_of_every_candidate_set():
    bundle, _ = synthetic_bundle(seed=3)
    config = DetectorConfig(k=2, delta=0.2)
    report = estimate_high_degree(bundle, config, window=0.5)
    for trace, times_hat in zip(bundle.traces, report.change_times):
        cands = candidate_vertices(trace, times_hat, report.window)
        assert report.vertices <= cands


def test_monotone_in_cascade_count():
    bundle, _ = synthetic_bundle(n_cascades=4, seed=5)
    config = DetectorConfig(k=2, delta=0.2)
    sizes = []
    for k_casc in range(1, 5):
        sub = CascadeBundle(traces=bundle.traces[:k_casc])
        sizes.append(len(estimate_high_degree(sub, config, window=0.3).vertices))
    assert all(a >= b for a, b in zip(sizes, sizes[1:]))


def test_empty_detection_gives_empty_estimate():
    bundle, _ = synthetic_bundle(seed=8)
    # threshold mode with an absurd threshold: no candidates anywhere
    config = DetectorConfig(k=2, delta=0.2, threshold=1e9)
    report = estimate_high_degree(bundle, config, window=0.4)
    assert report.vertices == frozenset()
    assert all(len(ts) == 0 for ts in report.change_times)


@pytest.mark.parametrize("window", [True, "0.5", 0.0, -1.0, np.nan, None])
def test_a_window_that_is_not_a_positive_number_is_refused_by_name(window):
    bundle, _ = synthetic_bundle(seed=2)
    with pytest.raises(ValueError, match=r"^window must be positive, got "):
        estimate_high_degree(bundle, DetectorConfig(k=3, delta=0.2), window=window)
    with pytest.raises(ValueError, match=r"^window must be positive, got "):
        candidate_vertices(bundle.traces[0], [5.0], window=window)


def test_disjoint_candidates_intersect_empty():
    # two cascades whose surges happen at different vertices
    t1 = make_trace([0.0, 5.0, 5.01, 5.02, 5.03, 9.0, 12.0, 13.0])
    t2 = make_trace([0.0, 9.0, 12.0, 13.0, 5.0, 5.01, 5.02, 5.03])
    bundle = CascadeBundle(traces=(t1, t2))
    config = DetectorConfig(k=1, delta=0.5)
    report = estimate_high_degree(bundle, config, window=0.1)
    assert report.vertices == frozenset()


def test_report_save(tmp_path):
    bundle, hub = synthetic_bundle()
    config = DetectorConfig(k=2, delta=0.2)
    report = estimate_high_degree(bundle, config, window=0.04)
    path = tmp_path / "mc.txt"
    save_multicascade_report(report, path)
    text = path.read_text()
    listed = [int(l) for l in text.splitlines() if l and not l.startswith("#")]
    assert sorted(listed) == sorted(report.vertices)
    assert hub in listed
    assert "# window=" in text
    assert "# cascade 0:" in text
