"""Each input rule has one implementation; every entry point gives the same answer.

The rules on a derivative order k (and on a whole count such as a number
of trials or of grid steps per delta), a step delta and a window that must
hold a grid point live in ``ratejump.derivative``; the rule on event counts, for
arrays and for the count fields of files, lives in ``ratejump.process``.
Each test below feeds the same bad value to every entry point that takes
it and expects a ValueError that names the field, index, day, row or
window.
"""

import re

import numpy as np
import pytest

from ratejump.cli import main
from ratejump.derivative import DerivativeStencil, derivative_profiles
from ratejump.detector import DetectorConfig, argmax_single, detect
from ratejump.harness import (ExperimentSpec, RampScenario, false_alarm_study, get_preset,
                              heatmap_spec_from_preset, run_heatmap)
from ratejump.ingest import RegionSeries, analyze_binned, load_daily_csv
from ratejump.multicascade import CascadeBundle, estimate_high_degree
from ratejump.poisson import Constant, JumpComponent, RateSpec
from ratejump.process import BinnedSeries, EventTimes, load_binned_csv, save_event_times
from ratejump.seeding import SimSeed, as_seed
from ratejump.si import CascadeTrace, build_tree_with_hub, save_trace_csv

EVENTS = EventTimes(times=np.linspace(0.5, 9.5, 40), horizon=10.0)

# entry point -> (call with the bad value in the order's place, the field it names)
ORDER_ENTRIES = {
    "DetectorConfig": (lambda k: DetectorConfig(k=k, delta=0.5), r"^k must"),
    "ExperimentSpec": (lambda k: ExperimentSpec(RampScenario(), (2, k), (0.5,), 1),
                       r"^k_grid\[1\]"),
    "derivative_profiles": (lambda k: derivative_profiles(EVENTS, [2, k], 0.5), r"^order must"),
    "DerivativeStencil.of_order": (lambda k: DerivativeStencil.of_order(k, 0.5), r"^order must"),
}

DELTA_ENTRIES = {
    "DetectorConfig": (lambda d: DetectorConfig(k=2, delta=d), r"^delta must"),
    "ExperimentSpec": (lambda d: ExperimentSpec(RampScenario(), (2,), (0.5, d), 1),
                       r"^delta_grid\[1\]"),
    "derivative_profiles": (lambda d: derivative_profiles(EVENTS, [2], d), r"^delta must"),
    "DerivativeStencil.of_order": (lambda d: DerivativeStencil.of_order(2, d), r"^delta must"),
    "DetectorConfig.threshold": (lambda d: DetectorConfig(k=2, delta=0.5, threshold=d),
                                 r"^threshold must"),
}

# the grid step is delta / steps_per_delta: every entry point that takes the
# number of steps checks it as a whole count
GRID_STEP_ENTRIES = {
    "DetectorConfig": lambda m: DetectorConfig(k=2, delta=0.5, steps_per_delta=m),
    "derivative_profiles": lambda m: derivative_profiles(EVENTS, [2], 0.5, steps_per_delta=m),
    "argmax_single": lambda m: argmax_single(EVENTS, 2, 0.5, m),
}


@pytest.mark.parametrize("entry", sorted(ORDER_ENTRIES))
@pytest.mark.parametrize("bad", [0, -1, 21, 2.5, 2.0, True, np.float64(3.0), "2", None])
def test_order_rule(entry, bad):
    call, field = ORDER_ENTRIES[entry]
    with pytest.raises(ValueError, match=field):
        call(bad)


@pytest.mark.parametrize("entry", sorted(DELTA_ENTRIES))
@pytest.mark.parametrize("bad", [0.0, -0.5, np.inf, -np.inf, np.nan, True, np.bool_(True)])
def test_delta_rule(entry, bad):
    call, field = DELTA_ENTRIES[entry]
    with pytest.raises(ValueError, match=field):
        call(bad)


def test_detector_config_stores_the_checked_steps():
    # what float() accepts is stored as the float, so min_sep is a number
    config = DetectorConfig(k=np.int64(2), delta="0.5", threshold="8e3",
                            steps_per_delta=np.int64(5))
    assert (config.k, config.delta, config.threshold, config.steps_per_delta) == (2, 0.5, 8e3, 5)
    assert all(type(v) is t for v, t in zip(
        (config.k, config.delta, config.threshold, config.steps_per_delta),
        (int, float, float, int)))
    assert config.min_sep == 2.0


@pytest.mark.parametrize("entry", sorted(GRID_STEP_ENTRIES))
@pytest.mark.parametrize("bad", [0.0, -0.1, 0.6, np.inf, np.nan, True, np.bool_(True),
                                 0, -1, 2.5, "x"])
def test_grid_step_rule(entry, bad):
    with pytest.raises(ValueError, match=r"^steps_per_delta must be (an integer|>= 1), got "):
        GRID_STEP_ENTRIES[entry](bad)


@pytest.mark.parametrize("bad", ["0", "-1", "2.5", "True", "x"])
def test_steps_per_delta_flag_rule(tmp_path, capsys, bad):
    save_event_times(EVENTS, tmp_path / "events.txt")
    argv = ["detect", "--events", str(tmp_path / "events.txt"), "--k", "2", "--delta", "0.5",
            "--steps-per-delta", bad, "--out-dir", str(tmp_path / "out")]
    assert main(argv) == 2
    assert re.search(r"steps_per_delta must be (an integer|>= 1), got ", capsys.readouterr().err)


# k=4, delta=3 on data that end at T = 10: the grid [(k-1)*delta, T - delta]
# = [9, 7] holds no point, for events, a cascade, a null run and 10 days alike
EMPTY_WINDOW = "no valid grid points: window (9.0, 7.0) is empty for k=4, delta=3.0"
EVENTS_TO_10 = EventTimes(times=np.linspace(0.5, 10.0, 20), horizon=10.0)
TRACE_TO_10 = CascadeTrace(times=np.array([0.0, 4.0, 10.0]), source=0)
ARGMAX, THRESHOLD = DetectorConfig(k=4, delta=3.0), DetectorConfig(k=4, delta=3.0, threshold=1.0)

EMPTY_WINDOW_ENTRIES = {
    "detect argmax": lambda: detect(EVENTS_TO_10, ARGMAX),
    "detect threshold": lambda: detect(EVENTS_TO_10, THRESHOLD),
    "argmax_single": lambda: argmax_single(EVENTS_TO_10, 4, 3.0),
    "estimate_high_degree argmax": lambda: estimate_high_degree(
        CascadeBundle(traces=(TRACE_TO_10,)), ARGMAX),
    "estimate_high_degree threshold": lambda: estimate_high_degree(
        CascadeBundle(traces=(TRACE_TO_10,)), THRESHOLD),
    "false_alarm_study": lambda: false_alarm_study(
        RateSpec(components=(JumpComponent(5.0, 0.0, Constant()),)), 10.0, THRESHOLD, runs=2),
    "analyze_binned": lambda: analyze_binned(np.ones(10, dtype=int), k=4, delta_days=3),
}


def _events_file(tmp_path):
    save_event_times(EVENTS_TO_10, tmp_path / "events.txt")
    return ["--events", str(tmp_path / "events.txt"), "--k", "4", "--delta", "3"]


def _trace_file(tmp_path):
    save_trace_csv(TRACE_TO_10, tmp_path / "trace.csv")
    return ["--trace", str(tmp_path / "trace.csv"), "--k", "4", "--delta", "3"]


def _daily_file(tmp_path):
    days = "".join(f"2021-01-{day:02d},1\n" for day in range(1, 11))
    (tmp_path / "daily.csv").write_text("date,cases\n" + days)
    return ["--csv", str(tmp_path / "daily.csv"), "--k", "4", "--delta-days", "3"]


# subcommand -> its arguments, given a directory to write the input in
EMPTY_WINDOW_COMMANDS = {
    "cli detect": lambda d: ["detect", *_events_file(d)],
    "cli detect --threshold": lambda d: ["detect", *_events_file(d), "--threshold", "1"],
    "cli multicascade": lambda d: ["multicascade", *_trace_file(d)],
    "cli multicascade --threshold": lambda d: ["multicascade", *_trace_file(d), "--threshold", "1"],
    "cli analyze-binned": lambda d: ["analyze-binned", *_daily_file(d)],
}


@pytest.mark.parametrize("entry", sorted(EMPTY_WINDOW_ENTRIES) + sorted(EMPTY_WINDOW_COMMANDS))
def test_empty_window_rule(entry, tmp_path, capsys):
    if entry in EMPTY_WINDOW_ENTRIES:
        with pytest.raises(ValueError, match=f"^{re.escape(EMPTY_WINDOW)}$"):
            EMPTY_WINDOW_ENTRIES[entry]()
        return
    argv = EMPTY_WINDOW_COMMANDS[entry](tmp_path)
    assert main([*argv, "--out-dir", str(tmp_path / "out")]) == 1
    assert EMPTY_WINDOW in capsys.readouterr().err


TRIALS_ENTRIES = {
    "ExperimentSpec": lambda n: ExperimentSpec(RampScenario(), (2,), (0.5,), n),
    "heatmap_spec_from_preset": lambda n: heatmap_spec_from_preset(
        get_preset("fig2-scaled"), trials=n, k_grid=(2,), delta_grid=(0.5,)),
}


@pytest.mark.parametrize("height,extra_leaves,message", [
    (True, 2, "height must be an integer, got True"),
    (True, True, "height must be an integer, got True"),
    (3.0, 2, "height must be an integer, got 3.0"),
    (0, 2, "height must be >= 1, got 0"),
    (3, True, "extra_leaves must be >= 0, got True"),
    (3, np.bool_(True), "extra_leaves must be >= 0, got True"),
    (3, 2.0, "extra_leaves must be >= 0, got 2.0"),
    (3, -1, "extra_leaves must be >= 0, got -1"),
])
def test_tree_rule(height, extra_leaves, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        build_tree_with_hub(height, extra_leaves)


@pytest.mark.parametrize("entry", sorted(TRIALS_ENTRIES))
@pytest.mark.parametrize("bad", [0, -1, 2.5, 2.0, True, "2"])
def test_trials_rule(entry, bad):
    with pytest.raises(ValueError, match=r"^trials must"):
        TRIALS_ENTRIES[entry](bad)


@pytest.mark.parametrize("entry", sorted(TRIALS_ENTRIES))
def test_trials_has_no_upper_limit(entry):
    assert TRIALS_ENTRIES[entry](np.int64(10**6)).trials == 10**6


# entry point -> (call with an array of counts, how it names entry 2)
COUNT_ENTRIES = {
    "BinnedSeries": (lambda c: BinnedSeries(bin_width=1.0, counts=c), r"counts\[2\] = "),
    "RegionSeries": (lambda c: RegionSeries(region="x", counts=c), r"day 2 = "),
    "analyze_binned": (lambda c: analyze_binned(c, k=1), r"day 2 = "),
}

BAD_COUNTS = {
    "near-whole float": (np.array([1.0, 2, 2.9999999995, 3]), "not a finite whole number"),
    "fraction": (np.array([1.0, 2, 1.7, 3]), "not a finite whole number"),
    "nan": (np.array([1.0, 2, np.nan, 3]), "not a finite whole number"),
    "inf": (np.array([1.0, 2, np.inf, 3]), "not a finite whole number"),
    "negative": (np.array([1, 2, -1, 3]), "negative"),
    "1e30": (np.array([1.0, 2, 1e30, 3]), "beyond the 64-bit integer range"),
    "uint64 2**63": (np.array([1, 2, 2**63, 3], dtype=np.uint64),
                     "beyond the 64-bit integer range"),
    "python int 10**30": ([1, 2, 10**30, 3], "beyond the 64-bit integer range"),
    "string": (np.array([1, 2, "3", 4], dtype=object), "not a finite whole number"),
}


@pytest.mark.parametrize("entry", sorted(COUNT_ENTRIES))
@pytest.mark.parametrize("case", sorted(BAD_COUNTS))
def test_count_rule(entry, case):
    call, position = COUNT_ENTRIES[entry]
    counts, problem = BAD_COUNTS[case]
    with pytest.raises(ValueError, match=position + ".* is " + problem):
        call(counts)


@pytest.mark.parametrize("entry", ["BinnedSeries", "RegionSeries"])
def test_count_rule_keeps_whole_numbers_exact(entry):
    call, _ = COUNT_ENTRIES[entry]
    counts = [1, 2**53 + 1, 2**63 - 1, 0]
    for given in (counts, np.array(counts, dtype=np.uint64), np.array(counts, dtype=object)):
        stored = call(given).counts
        assert stored.dtype == np.int64
        assert stored.tolist() == counts
    assert call([1.0, 3.0, 0.0]).counts.tolist() == [1, 3, 0]


def binned_csv(tmp_path, raw):
    p = tmp_path / "binned.csv"
    p.write_text(f"bin_start,count\n0.0,2\n1.0,{raw}\n2.0,4\n")
    return load_binned_csv(p)


def daily_csv(tmp_path, raw):
    p = tmp_path / "daily.csv"
    p.write_text(f"date,cases\n2021-01-01,2\n2021-01-02,{raw}\n2021-01-03,4\n")
    return load_daily_csv(p)


LOADERS = {"load_binned_csv": binned_csv, "load_daily_csv": daily_csv}


@pytest.mark.parametrize("loader", sorted(LOADERS))
@pytest.mark.parametrize("raw,problem", [
    ("x", "bad count 'x'"),
    ("", "bad count ''"),
    ("3.7", "not a finite whole number"),
    ("2.9999999995", "not a finite whole number"),
    ("nan", "not a finite whole number"),
    ("inf", "not a finite whole number"),
    ("1e30", "beyond the 64-bit integer range"),
    ("-1e30", "beyond the 64-bit integer range"),
    ("9223372036854775808", "beyond the 64-bit integer range"),
])
def test_count_row_rule(tmp_path, loader, raw, problem):
    with pytest.raises(ValueError, match="row 3: .*" + problem):
        LOADERS[loader](tmp_path, raw)


@pytest.mark.parametrize("load,header,good,bad,problem", [
    (load_daily_csv, "date,cases", "2021-01-01,3", "2021-01-0x,4", "unparseable date '2021-01-0x'"),
    (load_binned_csv, "bin_start,count", "0.0,3", "x,4", "bad bin_start 'x'"),
], ids=["load_daily_csv", "load_binned_csv"])
def test_rows_are_numbered_by_file_line(tmp_path, load, header, good, bad, problem):
    # blank lines count: the bad row is line 5 of the file
    p = tmp_path / "blank_lines.csv"
    p.write_text(f"{header}\n\n{good}\n\n{bad}\n")
    with pytest.raises(ValueError, match=f"row 5: {problem}"):
        load(p)


def test_uneven_bins_are_named_by_file_line(tmp_path):
    # the bin at 5 breaks the width of 1 on line 5; a blank line precedes it
    p = tmp_path / "uneven.csv"
    p.write_text("bin_start,count\n0,1\n\n1,1\n5,1\n")
    with pytest.raises(ValueError, match=r"not contiguous/uniform near row 5 \(gap 4\.0"):
        load_binned_csv(p)


@pytest.mark.parametrize("loader", sorted(LOADERS))
@pytest.mark.parametrize("raw,count", [
    ("9007199254740993", 2**53 + 1),
    ("9223372036854775807", 2**63 - 1),
    ("100.0", 100),
    ("1e3", 1000),
])
def test_count_rows_load_exactly(tmp_path, loader, raw, count):
    assert LOADERS[loader](tmp_path, raw).counts.tolist() == [2, count, 4]


@pytest.mark.parametrize("make,field", [
    (lambda: SimSeed(0, 1.5), "stream"),
    (lambda: SimSeed(0, True), "stream"),
    (lambda: SimSeed(0, -1), "stream"),
    (lambda: SimSeed(1.5), "seed"),
    (lambda: SimSeed(True), "seed"),
    (lambda: SimSeed(-1), "seed"),
    (lambda: as_seed(True), "seed"),
    (lambda: as_seed(2.0), "seed"),
    (lambda: heatmap_spec_from_preset(get_preset("fig2-scaled"), base_seed=2.5), "base_seed"),
    (lambda: ExperimentSpec(RampScenario(), (2,), (0.5,), 1, base_seed=-1), "base_seed"),
    (lambda: ExperimentSpec(RampScenario(), (2,), (0.5,), 1, base_seed=True), "base_seed"),
    (lambda: run_heatmap(ExperimentSpec(RampScenario(), (1, 2, 3, 4, 5), (0.5,), 1, base_seed=-1)),
     "base_seed"),
])
def test_seed_fields_are_checked_by_name(make, field):
    with pytest.raises(ValueError, match=f"^{field} must"):
        make()
