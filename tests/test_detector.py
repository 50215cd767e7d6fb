import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from ratejump.detector import (
    ChangePointReport,
    DetectorConfig,
    argmax_single,
    d_max,
    detect,
    greedy_packing,
    min_order_for,
    suggest_delta,
    save_report_csv,
)
from ratejump.process import EventTimes


def brute_force_max_packing(times, min_sep):
    """Largest subset with pairwise gaps strictly greater than min_sep."""
    best = 0
    for r in range(len(times), 0, -1):
        for combo in itertools.combinations(sorted(times), r):
            if all(b - a > min_sep for a, b in zip(combo, combo[1:])):
                return r
        if best:
            break
    return 0


def test_detect_threshold_keeps_scores_at_half_the_threshold():
    # order 1 at delta 0.5 scores N(t+0.5) - N(t) over 0.5: the burst of 3
    # at 1.2 scores 6 from t = 0.7 on, the lone event at 3.0 scores 2
    e = EventTimes(times=np.array([1.2, 1.2, 1.2, 3.0]), horizon=4.0)
    report = detect(e, DetectorConfig(k=1, delta=0.5, threshold=10.0))
    assert report.candidate_count > 0
    assert [e.score for e in report.estimates] == [pytest.approx(6.0)]
    assert 0.7 - 1e-9 <= report.times[0] < 1.2


def test_detect_threshold_above_every_score_is_empty():
    e = EventTimes(times=np.array([1.2, 1.2, 1.2, 3.0]), horizon=4.0)
    report = detect(e, DetectorConfig(k=1, delta=0.5, threshold=100.0))
    assert report.candidate_count == 0
    assert report.estimates == ()


def test_greedy_packing_examples():
    # {1.0, 1.1, 5.0} with min_sep 0.5: only one of the close pair survives
    out = greedy_packing([(1.0, 3.0), (1.1, 5.0), (5.0, 1.0)], min_sep=0.5)
    assert len(out) == 2
    assert out[-1] == (5.0, 1.0)
    assert (1.1, 5.0) in out  # the stronger of the clustered pair

    # all candidates within min_sep of each other: single survivor, highest score
    out = greedy_packing([(1.0, 2.0), (1.2, 9.0), (1.3, 4.0)], min_sep=1.0)
    assert out == [(1.2, 9.0)]

    assert greedy_packing([], min_sep=1.0) == []


def test_greedy_packing_prefers_count_over_score():
    # the middle point has the best score but picking it blocks both ends
    out = greedy_packing([(0.0, 1.0), (0.6, 100.0), (1.2, 1.0)], min_sep=1.0)
    assert [t for t, _ in out] == [0.0, 1.2]


def test_greedy_packing_requires_sorted():
    with pytest.raises(ValueError, match="sorted"):
        greedy_packing([(2.0, 1.0), (1.0, 1.0)], min_sep=0.5)
    with pytest.raises(ValueError, match="min_sep"):
        greedy_packing([(1.0, 1.0)], min_sep=0.0)


@given(
    st.lists(st.floats(min_value=0, max_value=20, allow_nan=False), min_size=1, max_size=10),
    st.floats(min_value=0.1, max_value=5.0),
)
@example([1.0, 1.1], 0.1)  # 1.1 - 0.1 rounds to 1.0, yet 1.1 - 1.0 > 0.1
@settings(max_examples=80)
def test_greedy_packing_is_maximum(times, min_sep):
    times = sorted(times)
    rng = np.random.default_rng(abs(hash(tuple(times))) % 2**32)
    cands = [(t, float(s)) for t, s in zip(times, rng.uniform(0, 10, len(times)))]
    out = greedy_packing(cands, min_sep)
    picked = [t for t, _ in out]
    # a valid packing ...
    assert all(b - a > min_sep for a, b in zip(picked, picked[1:]))
    assert all(c in cands for c in out)
    # ... of maximum cardinality
    assert len(out) == brute_force_max_packing(times, min_sep)


def ramp_events(change_at=5.0, rate=100.0, horizon=10.0):
    step = 1.0 / rate
    n = int((horizon - change_at) / step)
    times = change_at + step * np.arange(1, n + 1)
    return EventTimes(times=times, horizon=horizon)


def test_detect_deterministic_ramp():
    e = ramp_events()
    cfg = DetectorConfig(k=2, delta=0.5, threshold=100.0)
    report = detect(e, cfg)
    assert len(report) == 1
    assert abs(report.estimates[0].time - 5.0) <= 0.5
    assert report.estimates[0].score >= 50.0


def test_detect_empty_on_flat():
    e = EventTimes(times=np.arange(1, 100) * 0.1, horizon=10.0)  # perfectly regular
    cfg = DetectorConfig(k=2, delta=0.5, threshold=100.0)
    assert len(detect(e, cfg)) == 0


def test_detect_argmax_mode():
    e = ramp_events()
    cfg = DetectorConfig(k=2, delta=0.5)  # no threshold: exploratory
    report = detect(e, cfg)
    assert len(report) == 1
    assert abs(report.estimates[0].time - 5.0) <= 0.5


def test_detect_empty_window_flagged():
    e = EventTimes(times=np.array([0.5]), horizon=1.0)
    cfg = DetectorConfig(k=4, delta=0.5, threshold=10.0)
    report = detect(e, cfg)
    assert report.empty_window
    assert len(report) == 0


def test_report_invariants_enforced():
    from ratejump.detector import Estimate

    with pytest.raises(ValueError, match="separation"):
        ChangePointReport(
            estimates=(Estimate(1.0, 9.0, 9.0), Estimate(1.5, 8.0, 8.0)),
            k=2,
            delta=0.5,
            grid_step=0.05,
            window=(0.5, 9.5),
            threshold=10.0,
            min_sep=2.0,
            n_grid=100,
            candidate_count=2,
        )
    with pytest.raises(ValueError, match="threshold"):
        ChangePointReport(
            estimates=(Estimate(1.0, 2.0, 2.0),),
            k=2,
            delta=0.5,
            grid_step=0.05,
            window=(0.5, 9.5),
            threshold=10.0,
            min_sep=2.0,
            n_grid=100,
            candidate_count=1,
        )


def test_argmax_single_earliest_tie():
    # perfectly regular events: first-order derivative is flat, argmax -> first point
    e = EventTimes(times=np.arange(1, 50) * 0.2, horizon=10.0)
    t = argmax_single(e, 1, 1.0, grid_step=0.5)
    assert t == 0.0


def test_argmax_single_empty_window_raises():
    e = EventTimes(times=np.array([0.5]), horizon=1.0)
    with pytest.raises(ValueError, match="no valid grid"):
        argmax_single(e, 4, 0.5)


@given(
    st.lists(st.floats(min_value=0.5, max_value=19.5, allow_nan=False), min_size=5, max_size=60),
    st.floats(min_value=0.5, max_value=4.0),
)
@settings(max_examples=40)
def test_argmax_shift_equivariant(times, shift):
    base = np.sort(np.asarray(times))
    e1 = EventTimes(times=base, horizon=20.0)
    e2 = EventTimes(times=base + shift, horizon=20.0 + shift)
    t1 = argmax_single(e1, 2, 0.5, grid_step=0.25)
    t2 = argmax_single(e2, 2, 0.5, grid_step=0.25, window=(t1 + shift - 0.01, t1 + shift + 0.01))
    assert t2 == pytest.approx(t1 + shift, abs=0.26)


def test_argmax_invariant_to_count_doubling():
    rng = np.random.default_rng(5)
    base = np.sort(rng.uniform(0, 10, 200))
    e1 = EventTimes(times=base, horizon=10.0)
    e2 = EventTimes(times=np.sort(np.concatenate([base, base])), horizon=10.0)
    assert argmax_single(e1, 2, 0.5) == argmax_single(e2, 2, 0.5)


def test_d_max():
    assert d_max([1.0, 3.0], [1.5, 2.5]) == 0.5
    assert d_max([], []) == 0.0
    assert d_max([3.0, 1.0], [1.0, 3.0]) == 0.0  # order-free
    with pytest.raises(ValueError, match="size mismatch"):
        d_max([1.0], [1.0, 2.0])


def test_suggest_delta():
    assert suggest_delta(1e6, 2) == pytest.approx(0.063095734, rel=1e-6)
    assert suggest_delta(1e6, 1) == pytest.approx(0.01, rel=1e-9)
    with pytest.raises(ValueError):
        suggest_delta(1.0, 2)


def test_min_order_for():
    assert min_order_for(0.75) == 1
    assert min_order_for(0.6) == 3
    assert min_order_for(0.51) == 25
    with pytest.raises(ValueError):
        min_order_for(0.5)
    with pytest.raises(ValueError):
        min_order_for(1.0)


def test_config_validation():
    with pytest.raises(ValueError, match="k must"):
        DetectorConfig(k=0, delta=0.5)
    with pytest.raises(ValueError, match="delta must"):
        DetectorConfig(k=2, delta=-1.0)
    with pytest.raises(ValueError, match="threshold"):
        DetectorConfig(k=2, delta=0.5, threshold=-3.0)
    with pytest.raises(ValueError, match="grid_step"):
        DetectorConfig(k=2, delta=0.5, grid_step=0.6)


def test_report_csv_and_sidecar(tmp_path):
    e = ramp_events()
    report = detect(e, DetectorConfig(k=2, delta=0.5, threshold=100.0))
    out = tmp_path / "report.csv"
    save_report_csv(report, out)
    lines = out.read_text().splitlines()
    assert lines[0] == "t_hat,score"
    assert len(lines) == 2
    meta = (tmp_path / "report.csv.meta").read_text()
    assert "k=2" in meta
    assert "grid_step=0.05" in meta
    assert "mode=threshold" in meta
