import math
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

from ratejump.ingest import RegionSeries
from ratejump.process import (
    BinnedSeries,
    EventTimes,
    SampledCounts,
    bin_events,
    cumulative,
    from_binned,
    load_binned_csv,
    load_event_times,
    save_binned_csv,
    save_event_times,
)
from ratejump.process import _CHECK_CHUNK as CHUNK
from ratejump.si import CascadeTrace


@pytest.mark.parametrize("make, changed_value, changed_array", [
    (lambda: EventTimes([0.5, 1.0], 2.0), EventTimes([0.5, 1.0], 3.0), EventTimes([0.5, 1.5], 2.0)),
    (lambda: SampledCounts([0.0, 1.0, 2.0], [0, 1, 3], 2.0),
     SampledCounts([0.0, 1.0, 3.0], [0, 1, 3], 3.0), SampledCounts([0.0, 1.0, 2.0], [0, 2, 3], 2.0)),
    (lambda: BinnedSeries(1.0, [1, 2]), BinnedSeries(2.0, [1, 2]), BinnedSeries(1.0, [1, 3])),
    (lambda: RegionSeries("x", [1, 2]), RegionSeries("y", [1, 2]), RegionSeries("x", [1, 3])),
    (lambda: CascadeTrace([0.0, 0.0, 2.0], 0), CascadeTrace([0.0, 0.0, 2.0], 1),
     CascadeTrace([0.0, 0.5, 2.0], 0)),
], ids=["EventTimes", "SampledCounts", "BinnedSeries", "RegionSeries", "CascadeTrace"])
def test_equal_values_compare_equal_with_distinct_arrays(make, changed_value, changed_array):
    one, other = make(), make()
    assert one == other and not one != other
    assert one != changed_value and one != changed_array
    assert one != "not a series"


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


def test_event_times_sortedness_checks_each_pair():
    times = np.linspace(0.0, 1.0, 1_000_001)
    times[500_000] = np.nextafter(times[499_999], 0.0)  # one descent by one ulp
    with pytest.raises(ValueError, match="sorted"):
        EventTimes(times=times, horizon=1.0)
    times[500_000] = times[499_999]  # a tie is a simultaneous event
    tracemalloc.start()
    try:
        EventTimes(times=times, horizon=1.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < times.nbytes / 2  # no float64 temporary the size of the times


def test_event_times_checks_need_no_temporary_the_size_of_the_times():
    times = np.sort(np.random.default_rng(4).random(1_000_000))
    tracemalloc.start()
    try:
        EventTimes(times, 1.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.1 * times.nbytes


@pytest.mark.parametrize("at", [CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK])
def test_event_times_checks_reach_across_chunk_boundaries(at):
    times = np.linspace(0.0, 1.0, 3 * CHUNK)
    descent = times.copy()
    descent[at] = np.nextafter(descent[at - 1], 0.0)
    with pytest.raises(ValueError, match="sorted"):
        EventTimes(descent, 1.0)
    times[at] = np.nan
    with pytest.raises(ValueError, match="finite"):
        EventTimes(times, 1.0)


@pytest.mark.parametrize("faults, message", [
    # a pair across the boundary descends; a NaN two chunks on is named first
    ({CHUNK: "descent", 2 * CHUNK + 5: np.nan}, "event times must all be finite"),
    ({CHUNK: "descent"}, "event times must be sorted in non-decreasing order"),
    ({CHUNK - 1: np.nan}, "event times must all be finite"),
    ({CHUNK: np.nan}, "event times must all be finite"),
    ({CHUNK: np.nan, CHUNK + 5: "descent"}, "event times must all be finite"),
    ({3 * CHUNK - 1: np.nan}, "event times must all be finite"),  # the last time
])
def test_event_times_one_pass_names_faults_across_chunk_boundaries(faults, message):
    times = np.linspace(0.0, 1.0, 3 * CHUNK)
    for at, fault in faults.items():
        times[at] = np.nextafter(times[at - 1], 0.0) if fault == "descent" else fault
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        EventTimes(times, 1.0)


def test_event_times_accept_equal_times_across_a_chunk_boundary():
    times = np.linspace(0.0, 1.0, 3 * CHUNK)
    times[CHUNK] = times[CHUNK - 1]
    assert len(EventTimes(times, 1.0)) == 3 * CHUNK


@pytest.mark.parametrize("times, message", [
    ([np.nan], "event times must all be finite"),
    ([1.0, np.nan], "event times must all be finite"),
    ([np.nan, 1.0], "event times must all be finite"),
    ([-np.inf, 1.0], "event times must all be finite"),
    ([1.0, np.inf], "event times must all be finite"),
    ([2.0, 1.0, np.nan], "event times must all be finite"),  # finite is checked first
    ([2.0, 1.0, 5.0], "event times must be sorted in non-decreasing order"),
    ([-0.5, 1.0], "event times must lie in [0, 3.0]; got range [-0.5, 1.0]"),
    ([1.0, 3.5], "event times must lie in [0, 3.0]; got range [1.0, 3.5]"),
])
def test_event_times_name_the_first_fault(times, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        EventTimes(np.array(times), 3.0)


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
    # N is known at the bin edges only; at a right edge the bin is included
    assert N.count_at(0.0) == 0
    with pytest.raises(ValueError, match=r"^N is known only at its knots, not at t = 0\.7$"):
        N.count_at(0.7)
    assert N.count_at(1.0) == 2
    with pytest.raises(ValueError, match=r"^N is known only at its knots, not at t = 2\.5$"):
        N.count_at(2.5)
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
    edges = np.arange(1, len(s) + 1) * s.bin_width
    assert np.array_equal(N.count_at(edges), e.count_at(edges))
    assert int(s.counts.sum()) == len(e)


def test_bin_events_keeps_an_event_on_the_horizon():
    # the last bin is closed at the horizon, also where its edge n * w rounds
    # below the horizon (3 * 0.3 is 0.8999999999999999)
    for times, horizon, width, counts in [([0.2, 0.5, 1.0], 1.0, 0.5, [1, 2]),
                                          ([0.1, 0.9], 0.9, 0.3, [1, 0, 1])]:
        e = EventTimes(times=np.array(times), horizon=horizon)
        s = bin_events(e, bin_width=width)
        assert s.counts.tolist() == counts
        assert from_binned(s).count_at(s.horizon) == e.count_at(horizon) == len(times)


def test_bin_events_refuses_a_width_that_does_not_tile_the_horizon():
    e = EventTimes(times=np.array([1.0, 2.0]), horizon=20.0)
    with pytest.raises(ValueError, match=r"^bin width 3\.0 leaves a part bin at its end on "
                                         r"horizon 20\.0$"):
        bin_events(e, bin_width=3.0)
    # 0.3 / 0.1 and 3 * 0.1 miss 3 and 0.3 by rounding alone
    tiled = bin_events(EventTimes(times=np.array([0.15]), horizon=0.3), bin_width=0.1)
    assert tiled.counts.tolist() == [0, 1, 0]


def test_a_binned_read_between_edges_names_t():
    N = from_binned(BinnedSeries(bin_width=0.1, counts=np.arange(30), start_time=7.0))
    assert N.count_at(0.30000000000000004) == N.count_at(0.3) == 3  # 3 * 0.1 and 0.3
    for side in (-1.0, 1.0):  # an ulp either side of each knot reads that knot
        assert np.array_equal(N.count_at(np.nextafter(N.times, side * np.inf)), N.counts)
    for t in (0.25, 0.3 + 1e-9, 2.95):
        with pytest.raises(ValueError, match=rf"^N is known only at its knots, not at t = {t!r}$"):
            N.count_at([0.1, t])


def test_a_binned_read_at_nan_names_t():
    # NaN compares false with every knot, so it once read the last one, N(horizon)
    N = from_binned(BinnedSeries(1.0, [1, 2, 3, 4]))
    for t in (math.nan, [1.0, math.nan]):
        with pytest.raises(ValueError, match=r"^N is known only at its knots, not at t = nan$"):
            N.count_at(t)


def test_an_event_read_at_nan_names_t():
    # searchsorted puts NaN past every time, so it once read N(horizon)
    e = EventTimes(np.array([1.0, 2.0, 3.0]), 4.0)
    for t in (math.nan, np.array([1.0, math.nan])):
        with pytest.raises(ValueError, match=r"^N is not defined at t = nan$"):
            e.count_at(t)


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


@pytest.mark.parametrize("text", ["nan", "-1.0", "inf"])
def test_event_file_names_the_line_of_a_non_finite_or_negative_timestamp(tmp_path, text):
    bad = tmp_path / "bad.txt"
    bad.write_text(f"# header\n1.0\n{text}\n2.0\n")
    with pytest.raises(ValueError, match=rf"/bad\.txt: line 3: timestamp must be finite and "
                                         rf">= 0, got {text}$"):
        load_event_times(bad)


def test_binned_csv_round_trip(tmp_path):
    # width, start, counts and the horizon come back exactly, also where
    # start + i * width rounds (0.1 from 3.3 saves 3.4000000000000004)
    path = tmp_path / "binned.csv"
    for width, start, counts in [(0.5, 2.0, [1, 2, 0, 4]), (50.0, 0.0, [7, 0]),
                                 (0.25, 3.5, [1, 2, 3]), (1.0, 0.0, list(range(30))),
                                 (0.1, 3.3, [1, 2, 3]), (1 / 3, 7.7, list(range(50)))]:
        series = BinnedSeries(bin_width=width, counts=np.array(counts), start_time=start)
        save_binned_csv(series, path)
        back = load_binned_csv(path)
        assert (back.bin_width, back.start_time) == (width, start)
        assert back.horizon == series.horizon
        assert back.counts.tolist() == counts


def test_one_bin_csv_has_no_width(tmp_path):
    # the width is the gap between bin starts: one row cannot give it
    path = tmp_path / "one.csv"
    save_binned_csv(BinnedSeries(bin_width=50.0, counts=np.array([7]), start_time=0.0), path)
    with pytest.raises(ValueError, match=r"/one\.csv: one data row, but the bin width needs "
                                         r"at least two rows$"):
        load_binned_csv(path)


def test_binned_csv_errors(tmp_path):
    p = tmp_path / "x.csv"
    p.write_text("bin_start,count\n0.0,3\n1.0,-2\n")
    with pytest.raises(ValueError, match=r"x\.csv: row 3: count must be >= 0, got -2$"):
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

    # a field longer than csv.field_size_limit(), 131072 characters by default
    p.write_text(f"bin_start,count\n0.0,1\n1.0,{'9' * 140_000}\n")
    with pytest.raises(ValueError, match=r"x\.csv: row 3: field larger than field limit"):
        load_binned_csv(p)


def test_binned_csv_skips_a_byte_order_mark(tmp_path):
    # as a spreadsheet exports it
    p = tmp_path / "bom.csv"
    p.write_bytes("bin_start,count\n0.0,3\n1.0,4\n".encode("utf-8-sig"))
    assert load_binned_csv(p).counts.tolist() == [3, 4]


def test_binned_csv_names_the_row_of_a_byte_that_is_not_utf8(tmp_path):
    p = tmp_path / "latin1.csv"
    p.write_bytes(b"bin_start,count\r\n0.0,3\r\n1.0,4\xe9\r\n")
    with pytest.raises(ValueError, match=r"latin1\.csv: row 3: 'utf-8' codec can't decode "
                                         r"byte 0xe9 in position 5: invalid continuation byte$"):
        load_binned_csv(p)


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="os.mkfifo is missing on this platform")
def test_a_fifo_with_a_byte_that_is_not_utf8_fails_without_waiting(tmp_path):
    # a FIFO cannot seek back to its start, so its error names no line;
    # opening it again would wait for a writer, or for more bytes, forever.
    # The load runs in a child, so that a wait fails the test by a timeout
    fifo = tmp_path / "times.fifo"
    os.mkfifo(fifo)
    load = ("import sys\nfrom ratejump.process import load_event_times\n"
            "try:\n    load_event_times(sys.argv[1])\nexcept ValueError as exc:\n    print(exc)")
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    writer = os.open(fifo, os.O_RDWR)  # a write end that needs no reader to open
    try:
        os.write(writer, b"1.0\n2.0\n\xff\xfe3.0\n")
        child = subprocess.run([sys.executable, "-c", load, str(fifo)], env=env,
                               capture_output=True, text=True, timeout=10)
    except subprocess.TimeoutExpired:
        pytest.fail("load_event_times waited on the FIFO")
    finally:
        os.close(writer)
    assert child.returncode == 0, child.stderr
    assert child.stdout == (f"{fifo}: 'utf-8' codec can't decode byte 0xff in position 8: "
                            "invalid start byte\n")
