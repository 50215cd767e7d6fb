import numpy as np
import pytest
from hypothesis import given, strategies as st

from ratejump.process import (
    BinnedSeries,
    EventTimes,
    bin_events,
    cumulative,
    from_binned,
    load_binned_csv,
    load_event_times,
    save_binned_csv,
    save_event_times,
)


def test_count_at_basics():
    e = EventTimes(times=np.array([0.5, 1.0, 1.0, 3.0]), horizon=4.0)
    assert e.count_at(0.0) == 0
    assert e.count_at(0.5) == 1  # right-continuous: the event at t counts
    assert e.count_at(1.0) == 3
    assert e.count_at(2.0) == 3
    assert e.count_at(4.0) == len(e) == 4


def test_count_at_vectorized():
    e = EventTimes(times=np.array([1.0, 2.0, 3.0]), horizon=3.0)
    out = e.count_at(np.array([0.5, 1.5, 2.5, 3.0]))
    assert out.tolist() == [0, 1, 2, 3]


def test_event_times_validation():
    with pytest.raises(ValueError, match="sorted"):
        EventTimes(times=np.array([2.0, 1.0]), horizon=3.0)
    with pytest.raises(ValueError, match="lie in"):
        EventTimes(times=np.array([1.0, 5.0]), horizon=3.0)
    with pytest.raises(ValueError):
        EventTimes(times=np.array([-1.0]), horizon=3.0)
    # duplicates are fine (simultaneous events)
    EventTimes(times=np.array([1.0, 1.0]), horizon=2.0)
    # empty is fine
    assert len(EventTimes(times=np.array([]), horizon=1.0)) == 0


@given(
    st.lists(st.floats(min_value=0, max_value=100, allow_nan=False), max_size=50),
    st.lists(st.floats(min_value=-1, max_value=101, allow_nan=False), min_size=1, max_size=20),
)
def test_count_at_monotone(times, queries):
    e = EventTimes(times=np.sort(np.asarray(times)), horizon=101.0)
    qs = np.sort(np.asarray(queries))
    counts = e.count_at(qs)
    assert np.all(np.diff(counts) >= 0)
    assert e.count_at(101.0) == len(e)


def test_cumulative_and_from_binned():
    s = BinnedSeries(bin_width=1.0, counts=np.array([2, 0, 3]), start_time=0.0)
    assert cumulative(s).tolist() == [2, 2, 5]
    N = from_binned(s)
    # between edges N is constant; at a right edge the bin is included
    assert N.count_at(0.0) == 0
    assert N.count_at(0.7) == 0
    assert N.count_at(1.0) == 2
    assert N.count_at(2.5) == 2
    assert N.count_at(3.0) == 5
    assert len(N) == 5


def test_cumulative_empty():
    s = BinnedSeries(bin_width=1.0, counts=np.array([], dtype=np.int64))
    assert cumulative(s).tolist() == []


@pytest.mark.parametrize("build", [cumulative, from_binned])
def test_count_total_beyond_int64_names_its_bin(build):
    # each count passes the count rule; the int64 running total would wrap at bin 1
    with pytest.raises(ValueError, match=r"total reaches 2\*\*63 at bin 1$"):
        build(BinnedSeries(bin_width=1.0, counts=[2**62] * 3))
    assert cumulative(BinnedSeries(bin_width=1.0, counts=[2**62, 2**62 - 1]))[-1] == 2**63 - 1


def test_binned_rejects_negative():
    with pytest.raises(ValueError, match=r"counts\[1\]"):
        BinnedSeries(bin_width=1.0, counts=np.array([3, -2, 1]))


def test_bin_events_agrees_with_count_at_on_edges():
    rng = np.random.default_rng(42)
    times = np.sort(rng.uniform(0.003, 9.99, size=200))  # keep away from edges
    e = EventTimes(times=times, horizon=10.0)
    s = bin_events(e, bin_width=0.5)
    N = from_binned(s)
    edges = s.right_edges()
    assert np.array_equal(N.count_at(edges), e.count_at(edges))
    assert int(s.counts.sum()) == len(e)


def test_event_file_round_trip(tmp_path):
    e = EventTimes(times=np.array([0.25, 1.5, 2.75]), horizon=5.0)
    path = tmp_path / "events.txt"
    save_event_times(e, path)
    back = load_event_times(path, horizon=5.0)
    assert np.array_equal(back.times, e.times)
    assert back.horizon == 5.0


def test_event_file_comments_and_errors(tmp_path):
    path = tmp_path / "events.txt"
    path.write_text("# header\n1.5\n\n2.5\n")
    e = load_event_times(path)
    assert e.times.tolist() == [1.5, 2.5]
    assert e.horizon == 2.5

    bad = tmp_path / "bad.txt"
    bad.write_text("1.0\nnot-a-number\n")
    with pytest.raises(ValueError, match="line 2"):
        load_event_times(bad)


def test_binned_csv_round_trip(tmp_path):
    s = BinnedSeries(bin_width=0.5, counts=np.array([1, 2, 0, 4]), start_time=2.0)
    path = tmp_path / "binned.csv"
    save_binned_csv(s, path)
    back = load_binned_csv(path)
    assert back.bin_width == s.bin_width
    assert back.start_time == s.start_time
    assert np.array_equal(back.counts, s.counts)


def test_binned_csv_errors(tmp_path):
    p = tmp_path / "x.csv"
    p.write_text("bin_start,count\n0.0,3\n1.0,-2\n")
    with pytest.raises(ValueError, match="row 3.*negative"):
        load_binned_csv(p)

    p.write_text("bin_start,count\n0.0,3\n1.0,12345678901234567890\n")
    with pytest.raises(ValueError, match="row 3.*64-bit integer range"):
        load_binned_csv(p)

    p.write_text("bin_start,count\n0.0,1\n1.0,1\n2.5,1\n")
    with pytest.raises(ValueError, match="contiguous"):
        load_binned_csv(p)

    p.write_text("wrong,header\n0.0,1\n")
    with pytest.raises(ValueError, match="header"):
        load_binned_csv(p)
