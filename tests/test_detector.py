import itertools
import re

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from ratejump.detector import (
    ChangePointReport,
    DetectorConfig,
    _packing_indices,
    argmax_single,
    d_max,
    detect,
    min_order_for,
    suggest_delta,
    save_report_csv,
)
from ratejump.process import EventTimes
from windowed_profiles import windowed_profiles


def brute_force_best_packing(times, scores, min_sep):
    """Size of the largest subset of the sorted ``times`` with consecutive
    gaps strictly greater than min_sep, and the best total score among the
    subsets of that size."""
    for r in range(len(times), 0, -1):
        totals = [sum(scores[i] for i in combo)
                  for combo in itertools.combinations(range(len(times)), r)
                  if all(times[b] - times[a] > min_sep for a, b in zip(combo, combo[1:]))]
        if totals:
            return r, max(totals)
    return 0, 0.0


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


def packing(times, scores, min_sep):
    """Indices that detect's packing keeps of time-sorted candidates."""
    return _packing_indices(np.asarray(times, dtype=np.float64),
                            np.asarray(scores, dtype=np.float64), min_sep)


def test_greedy_packing_examples():
    # {1.0, 1.1, 5.0} with min_sep 0.5: only one of the close pair survives,
    # the stronger one (score 5 at 1.1)
    assert packing([1.0, 1.1, 5.0], [3.0, 5.0, 1.0], 0.5) == [1, 2]

    # all candidates within min_sep of each other: single survivor, highest score
    assert packing([1.0, 1.2, 1.3], [2.0, 9.0, 4.0], 1.0) == [1]

    assert packing([], [], 1.0) == []


def test_greedy_packing_prefers_count_over_score():
    # the middle point has the best score but picking it blocks both ends
    assert packing([0.0, 0.6, 1.2], [1.0, 100.0, 1.0], 1.0) == [0, 2]


@given(
    st.lists(st.floats(min_value=0, max_value=20, allow_nan=False), min_size=1, max_size=10),
    st.floats(min_value=0.1, max_value=5.0),
)
@example([1.0, 1.1], 0.1)  # 1.1 - 0.1 rounds to 1.0, yet 1.1 - 1.0 > 0.1
@settings(max_examples=80)
def test_greedy_packing_is_maximum(times, min_sep):
    times = sorted(times)
    rng = np.random.default_rng(abs(hash(tuple(times))) % 2**32)
    scores = rng.uniform(0, 10, len(times)).tolist()
    out = packing(times, scores, min_sep)
    picked = [times[i] for i in out]
    # a valid packing ...
    assert out == sorted(set(out))
    assert all(b - a > min_sep for a, b in zip(picked, picked[1:]))
    # ... of maximum cardinality, with the best total score among those
    size, total = brute_force_best_packing(times, scores, min_sep)
    assert len(out) == size
    assert sum(scores[i] for i in out) == pytest.approx(total, rel=1e-12)


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


# a profile for reports built by hand: order 2 at delta 0.5 on [0, 10]
PROFILE = detect(EventTimes(times=np.arange(1, 40) * 0.25, horizon=10.0),
                 DetectorConfig(k=2, delta=0.5)).profile


def test_report_invariants_enforced():
    from ratejump.detector import Estimate

    with pytest.raises(ValueError, match="separation"):
        ChangePointReport(
            estimates=(Estimate(1.0, 9.0, 9.0), Estimate(1.5, 8.0, 8.0)),
            config=DetectorConfig(k=2, delta=0.5, threshold=10.0),
            profile=PROFILE,
        )
    with pytest.raises(ValueError, match="threshold"):
        ChangePointReport(
            estimates=(Estimate(1.0, 2.0, 2.0),),
            config=DetectorConfig(k=2, delta=0.5, threshold=10.0),
            profile=PROFILE,
        )


def test_report_reads_its_grid_off_its_profile():
    e = EventTimes(times=np.sort(np.random.default_rng(4).uniform(0, 10, 300)), horizon=10.0)
    for threshold in (None, 40.0):
        report = detect(e, DetectorConfig(k=2, delta=0.5, threshold=threshold))
        scores = np.abs(report.profile.values) / 0.5
        assert report.window == report.profile.window == (0.5, 9.5)
        assert report.n_grid == len(report.profile) == 181
        assert report.candidate_count == (1 if threshold is None else np.sum(scores >= 20.0))


def test_report_separation_is_exact():
    # detect packs estimates with gaps > min_sep exactly, and the report
    # checks the same comparison: no tolerance lets a gap of min_sep through
    from ratejump.detector import Estimate

    def report(gap):
        return ChangePointReport(
            estimates=(Estimate(1.0, 9.0, 9.0), Estimate(1.0 + gap, 8.0, 8.0)),
            config=DetectorConfig(k=2, delta=0.5, threshold=10.0), profile=PROFILE,
        )

    for gap in (2.0 * (1 - 1e-13), 2.0):
        with pytest.raises(ValueError, match=(
                rf"estimates at 1\.0 and {1.0 + gap!r} violate pairwise separation "
                r"> min_sep = 2\.0")):
            report(gap)
    assert len(report(np.nextafter(2.0, 3.0))) == 2


def test_report_score_floor_is_exact():
    # detect keeps scores >= threshold/2 exactly, and the report checks the
    # same comparison: no tolerance lets a score below the floor through
    from ratejump.detector import Estimate

    def report(score):
        return ChangePointReport(
            estimates=(Estimate(1.0, score, score),),
            config=DetectorConfig(k=2, delta=0.5, threshold=10.0), profile=PROFILE,
        )

    with pytest.raises(ValueError, match=r"^estimate score 4\.9999999999995 below threshold/2 = 5\.0$"):
        report(4.9999999999995)
    assert len(report(5.0)) == 1


def test_argmax_single_earliest_tie():
    # perfectly regular events: the largest first-order value, 5, recurs, argmax -> first point
    e = EventTimes(times=np.arange(1, 50) * 0.2, horizon=10.0)
    assert argmax_single(e, 1, 1.0) == 0.0


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
    # times and shift on multiples of 2**-20, so that base + shift and every
    # grid time below are exact: e2 is e1 moved by shift, also in floating
    # point (0.5000000000000001 + 1.0 rounds to 1.5, onto a grid time)
    base = np.sort(np.round(np.asarray(times) * 2**20)) / 2**20
    shift = round(shift * 2**20) / 2**20
    e1 = EventTimes(times=base, horizon=20.0)
    e2 = EventTimes(times=base + shift, horizon=20.0 + shift)
    p1, = windowed_profiles(e1, [2], 0.5, 2)
    t1 = p1.times[p1.argmax()]
    # four grid steps (0.25) each side of t1 + shift, within e1's valid range
    # [0.5, 19.5] moved by shift: the window's lattice holds t1 + shift
    window = (max(t1 - 1.0, 0.5) + shift, t1 + 1.0 + shift)
    p2, = windowed_profiles(e2, [2], 0.5, 2, window)
    assert len(p2) >= 5
    t2 = p2.times[p2.argmax()]
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
    # every entry is a finite real number, named by its position
    for estimates, truths, message in (
            ([1.0, np.nan], [1.0, 2.0], "estimates[1] must be finite, got nan"),
            (["1"], [1], "estimates[0] must be finite, got '1'"),
            ([True], [1.0], "estimates[0] must be finite, got True"),
            ([np.inf], [1.0], "estimates[0] must be finite, got inf"),
            ([1.0], [None], "truths[0] must be finite, got None")):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            d_max(estimates, truths)


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


def test_report_csv_and_config(tmp_path):
    # the report keeps the config it ran with; the CSV is the only file written
    e = ramp_events()
    config = DetectorConfig(k=2, delta=0.5, threshold=100.0)
    report = detect(e, config)
    assert report.config is config
    out = tmp_path / "report.csv"
    save_report_csv(report, out, 100.0)
    lines = out.read_text().splitlines()
    assert lines[0] == "t_hat,score"
    (e,) = report.estimates
    assert lines[1:] == [f"{e.time + 100.0!r},{e.score!r}"]  # on the input's clock
    assert [f.name for f in tmp_path.iterdir()] == ["report.csv"]
