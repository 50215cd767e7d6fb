"""Each input rule has one implementation; every entry point gives the same answer.

The rules on a whole number (a derivative order k, a whole count such as
a number of trials, a seed, a vertex id such as a cascade's source), a
step delta, a finite field and event counts, for arrays and for the count
fields of files, and the one way every loader reads its file, live in
``ratejump.process``; the rules that need N, a step that is a whole
number of knot gaps where N is known at evenly spaced knots and a window
that must hold a grid point, live in ``ratejump.derivative``.  Each test below feeds the same bad value to
every entry point that takes it and expects a ValueError that names the
field, index, day, row, line or window.
"""

import re

import numpy as np
import pytest

from ratejump.cli import main
from ratejump.derivative import _lattice_plan, derivative_profile, derivative_profiles
from ratejump.detector import DetectorConfig, argmax_single, detect
from ratejump.harness import (ConstNullScenario, ExperimentSpec, SmoothJumpScenario,
                              false_alarm_study, get_preset, heatmap_spec_from_preset, run_heatmap)
from ratejump.ingest import RegionSeries, analyze_binned, load_daily_csv
from ratejump.multicascade import CascadeBundle, candidate_vertices, estimate_high_degree
from ratejump.poisson import (Constant, ExpDecay, JumpComponent, Polynomial, RateSpec, Sinusoid,
                              draw_counts, eval_rate, load_rate_spec, rate_upper_bound, simulate)
from ratejump.process import (BinnedSeries, EventTimes, SampledCounts, bin_events, from_binned,
                              load_binned_csv, load_event_times, save_event_times)
from ratejump.seeding import SimSeed, as_seed
from ratejump.si import (CascadeTrace, Graph, build_tree_with_hub, jump_at_infection,
                         load_edge_list, load_trace_csv, rate_at, save_trace_csv, simulate_si)

EVENTS = EventTimes(times=np.linspace(0.5, 9.5, 40), horizon=10.0)
FLAT = RateSpec(components=(JumpComponent(5.0, 0.0, Constant()),))
TRACE = CascadeTrace(times=np.array([0.0, 0.5, 1.0]), source=0)

# entry point -> (call with the bad value in the order's place, the field it names)
ORDER_ENTRIES = {
    "DetectorConfig": (lambda k: DetectorConfig(k=k, delta=0.5), r"^k must"),
    "ExperimentSpec": (lambda k: ExperimentSpec(SmoothJumpScenario(), (2, k), (0.5,), 1),
                       r"^k_grid\[1\]"),
    "derivative_profiles": (lambda k: derivative_profiles(EVENTS, [2, k], 0.5), r"^order must"),
}

DELTA_ENTRIES = {
    "DetectorConfig": (lambda d: DetectorConfig(k=2, delta=d), r"^delta must"),
    "ExperimentSpec": (lambda d: ExperimentSpec(SmoothJumpScenario(), (2,), (0.5, d), 1),
                       r"^delta_grid\[1\]"),
    "derivative_profiles": (lambda d: derivative_profiles(EVENTS, [2], d), r"^delta must"),
    "DetectorConfig.threshold": (lambda d: DetectorConfig(k=2, delta=0.5, threshold=d),
                                 r"^threshold must"),
    "simulate horizon": (lambda d: simulate(FLAT, d, 0), r"^horizon must"),
    "draw_counts horizon": (lambda d: draw_counts(FLAT, [0.5], d, 0), r"^horizon must"),
    "ExpDecay": (lambda d: ExpDecay(rate=d), r"^expdecay rate must"),
    "JumpComponent": (lambda d: JumpComponent(amplitude=d, onset=0.0, shape=Constant()),
                      r"^amplitude must"),
    "BinnedSeries": (lambda d: BinnedSeries(bin_width=d, counts=[1, 2]), r"^bin_width must"),
    "bin_events": (lambda d: bin_events(EVENTS, d), r"^bin_width must"),
    "SmoothJumpScenario base": (lambda d: SmoothJumpScenario(base=d), r"^base must"),
    "SmoothJumpScenario jump": (lambda d: SmoothJumpScenario(jump=d), r"^jump must"),
    "SmoothJumpScenario horizon": (lambda d: SmoothJumpScenario(horizon=d), r"^horizon must"),
    "ConstNullScenario base": (lambda d: ConstNullScenario(base=d), r"^base must"),
    "ConstNullScenario horizon": (lambda d: ConstNullScenario(horizon=d), r"^horizon must"),
}

# entry point -> (call with the bad value in the field's place, the field it names)
FINITE_ENTRIES = {
    "JumpComponent onset": (lambda v: JumpComponent(amplitude=1.0, onset=v, shape=Constant()),
                            r"^jump component onset must be finite and >= 0, got "),
    "Sinusoid offset": (lambda v: Sinusoid(offset=v, omega=1.0),
                        r"^sinusoid offset must be finite, got "),
    "Sinusoid omega": (lambda v: Sinusoid(offset=1.0, omega=v),
                       r"^sinusoid omega must be finite, got "),
    "Sinusoid phase": (lambda v: Sinusoid(offset=1.0, omega=1.0, phase=v),
                       r"^sinusoid phase must be finite, got "),
    "Polynomial": (lambda v: Polynomial((1.0, v)),
                   r"^polynomial coefficient 1 must be finite, got "),
    "EventTimes horizon": (lambda v: EventTimes(np.array([0.5]), v),
                           r"^horizon must be finite and >= 0, got "),
    "SampledCounts horizon": (lambda v: SampledCounts(np.array([0.0, 1.0]), [0, 1], v),
                              r"^horizon must be finite and >= 0, got "),
    "BinnedSeries start_time": (lambda v: BinnedSeries(1.0, [1, 2], start_time=v),
                                r"^start_time must be finite, got "),
    "eval_rate t": (lambda v: eval_rate(FLAT, v), r"^t must be finite, got "),
    "eval_rate t in a list": (lambda v: eval_rate(FLAT, [0.5, v]),
                              r"^t\[1\] must be finite, got "),
    "candidate_vertices change time": (lambda v: candidate_vertices(TRACE, [0.5, v], 0.5),
                                       r"^change_times\[1\] must be finite, got "),
}

# N known at knots a day apart sets a grid of one day: a delta must be a
# positive whole number of days at every entry point that reads such an N
# (the DetectorConfig entry is detect's, whose config checks delta first)
DAYS = from_binned(BinnedSeries(bin_width=1.0, counts=np.ones(30, dtype=int)))
GRID_STEP_ENTRIES = {
    "DetectorConfig": lambda d: detect(DAYS, DetectorConfig(k=2, delta=d)),
    "derivative_profiles": lambda d: derivative_profiles(DAYS, [2], d),
    "derivative_profile": lambda d: derivative_profile(DAYS, 2, d),
}


@pytest.mark.parametrize("entry", sorted(ORDER_ENTRIES))
@pytest.mark.parametrize("bad", [0, -1, 21, 2.5, 2.0, True, np.float64(3.0), "2", None])
def test_order_rule(entry, bad):
    call, field = ORDER_ENTRIES[entry]
    with pytest.raises(ValueError, match=field):
        call(bad)


@pytest.mark.parametrize("entry", sorted(DELTA_ENTRIES))
@pytest.mark.parametrize("bad", [0.0, -0.5, np.inf, -np.inf, np.nan, True, np.bool_(True),
                                 "abc", "0.1:0.5", None,
                                 pytest.param(10**400, id="10**400")])
def test_delta_rule(entry, bad):
    call, field = DELTA_ENTRIES[entry]
    if bad is None and entry == "DetectorConfig.threshold":
        assert call(bad).threshold is None  # no threshold: argmax mode
        return
    with pytest.raises(ValueError, match=field):
        call(bad)


@pytest.mark.parametrize("entry", sorted(FINITE_ENTRIES))
@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan, True, np.bool_(False), "abc", None,
                                 pytest.param(10**400, id="10**400")])
def test_finite_rule(entry, bad):
    call, field = FINITE_ENTRIES[entry]
    with pytest.raises(ValueError, match=field + re.escape(repr(bad)) + "$"):
        call(bad)


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_finite_rule_names_the_time_in_an_array(bad):
    with pytest.raises(ValueError, match=re.escape(f"t[1] must be finite, got {bad!r}") + "$"):
        eval_rate(FLAT, np.array([0.5, bad, 1.0]))
    with pytest.raises(ValueError, match=re.escape(f"t[3] must be finite, got {bad!r}") + "$"):
        eval_rate(FLAT, np.array([[0.5, 1.0], [2.0, bad]]))


# entry point -> a call with the bad window in the interval's place
INTERVAL_ENTRIES = {
    "rate_upper_bound": lambda w: rate_upper_bound(FLAT, w),
    "_lattice_plan": lambda w: _lattice_plan([1], [0.5], 10, 10.0, w),
}


@pytest.mark.parametrize("entry", sorted(INTERVAL_ENTRIES))
@pytest.mark.parametrize("bad", [(3.0, 2.0), (np.nan, 1.0), (0.0, np.nan), (0.0, np.inf),
                                 (-np.inf, 1.0), (True, 2.0), ("0", 1.0), (None, 1.0),
                                 (0.0, 1.0, 2.0), (1.0,)])
def test_interval_rule(entry, bad):
    with pytest.raises(ValueError, match=re.escape(
            f"window must satisfy lo <= hi with both finite, got {bad}") + "$"):
        INTERVAL_ENTRIES[entry](bad)


def test_interval_rule_takes_a_point():
    assert rate_upper_bound(FLAT, (2.0, 2.0)) == 5.0


# entry point -> (a call with the bad value as a vertex id on two vertices, the field it names)
TWO = Graph(2, [0], [1])
VERTEX_ENTRIES = {
    "simulate_si": (lambda s: simulate_si(TWO, s, 0), "source"),
    "CascadeTrace": (lambda s: CascadeTrace(np.array([0.0, 1.0]), s), "source"),
    "Graph.neighbors": (lambda v: TWO.neighbors(v), "vertex"),
    "Graph.degree": (lambda v: TWO.degree(v), "vertex"),
    "jump_at_infection": (lambda v: jump_at_infection(TWO, [0], v), "vertex"),
    "rate_at": (lambda v: rate_at(TWO, [v]), "vertex"),
}


@pytest.mark.parametrize("entry", sorted(VERTEX_ENTRIES))
@pytest.mark.parametrize("bad,problem", [
    *((bad, f"must be an integer, got {bad!r}") for bad in (1.5, 0.0, True, "0", None)),
    (-1, "must be >= 0, got -1"),
    (99, "must be <= 1, got 99"),
])
def test_source_rule(entry, bad, problem):
    call, field = VERTEX_ENTRIES[entry]
    with pytest.raises(ValueError, match="^" + re.escape(f"{field} {problem}") + "$"):
        call(bad)


def test_onset_rule_needs_no_less_than_zero():
    with pytest.raises(ValueError, match=r"^jump component onset must be finite and >= 0, "
                                         r"got -0\.5$"):
        JumpComponent(amplitude=1.0, onset=-0.5, shape=Constant())
    assert JumpComponent(amplitude=1.0, onset=-0.0, shape=Constant()).onset == 0.0


def test_detector_config_stores_the_checked_steps():
    # a numpy scalar is stored as the float, so min_sep is a number
    config = DetectorConfig(k=np.int64(2), delta=np.float32(0.5), threshold=np.int64(8000))
    assert (config.k, config.delta, config.threshold) == (2, 0.5, 8e3)
    assert all(type(v) is t for v, t in zip(
        (config.k, config.delta, config.threshold), (int, float, float)))
    assert config.min_sep == 2.0


def test_rate_fields_store_the_checked_floats():
    # as DetectorConfig stores delta: a numpy scalar is stored as the float
    assert ExpDecay(rate=np.int64(2)).rate == 2.0
    component = JumpComponent(amplitude=np.int64(5), onset=0.0, shape=Constant())
    assert type(component.amplitude) is float
    horizon = np.float32(2.0)
    assert simulate(FLAT, horizon, 0).horizon == draw_counts(FLAT, [1.0], horizon, 0).horizon
    assert type(simulate(FLAT, horizon, 0).horizon) is float
    # the onset and the shapes' fields alike
    assert JumpComponent(amplitude=1.0, onset=np.int64(2), shape=Constant()).onset == 2.0
    sinusoid = Sinusoid(offset=np.float64(1), omega=np.int64(2), phase=np.float32(0.5))
    polynomial = Polynomial(coeffs=(np.int64(1), np.float32(0.5)))
    assert (sinusoid.offset, sinusoid.omega, sinusoid.phase, polynomial.coeffs) == (
        1.0, 2.0, 0.5, (1.0, 0.5))
    assert all(type(v) is float for v in (sinusoid.offset, sinusoid.omega, sinusoid.phase,
                                          *polynomial.coeffs))


# a numeric string is not a number: every float rule refuses it by its field's name
NUMERIC_STRINGS = {
    "detector delta": (lambda: DetectorConfig(k=2, delta="0.5"),
                       "delta must be positive and finite, got '0.5'"),
    "detector threshold": (lambda: DetectorConfig(k=2, delta=0.5, threshold="8e3"),
                           "threshold must be positive and finite, got '8e3'"),
    "expdecay rate": (lambda: ExpDecay(rate="2"),
                      "expdecay rate must be positive and finite, got '2'"),
    "simulate horizon": (lambda: simulate(FLAT, "2", 0),
                         "horizon must be positive and finite, got '2'"),
    "draw_counts horizon": (lambda: draw_counts(FLAT, [1.0], "2", 0),
                            "horizon must be positive and finite, got '2'"),
    "amplitude": (lambda: JumpComponent("5", 0.0, Constant()),
                  "amplitude must be positive and finite, got '5'"),
    "onset": (lambda: JumpComponent(amplitude=1.0, onset="2", shape=Constant()),
              "jump component onset must be finite and >= 0, got '2'"),
    "sinusoid offset": (lambda: Sinusoid(offset="1", omega=1.0),
                        "sinusoid offset must be finite, got '1'"),
    "polynomial coefficient": (lambda: Polynomial(coeffs=(1.0, "0.5")),
                               "polynomial coefficient 1 must be finite, got '0.5'"),
    "event-times horizon": (lambda: EventTimes([0.1], horizon="2"),
                            "horizon must be finite and >= 0, got '2'"),
    "eval_rate t": (lambda: eval_rate(FLAT, "0.5"), "t must be finite, got '0.5'"),
    "eval_rate t in an array": (lambda: eval_rate(FLAT, np.array([0.5, "1.0"], dtype=object)),
                                "t[1] must be finite, got '1.0'"),
    "eval_rate t in a string array": (lambda: eval_rate(FLAT, np.array(["1.0"])),
                                      "t[0] must be finite, got '1.0'"),
    "change time": (lambda: candidate_vertices(TRACE, ["1.0"], 0.5),
                    "change_times[0] must be finite, got '1.0'"),
}


@pytest.mark.parametrize("entry", sorted(NUMERIC_STRINGS))
def test_numeric_strings_are_refused_by_name(entry):
    build, message = NUMERIC_STRINGS[entry]
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        build()


@pytest.mark.parametrize("entry", sorted(GRID_STEP_ENTRIES))
@pytest.mark.parametrize("bad", [0.0, -0.1, 0.6, np.inf, np.nan, True, np.bool_(True),
                                 0, -1, 2.5, "x"])
def test_grid_step_rule(entry, bad):
    with pytest.raises(ValueError, match=(r"^delta (must be positive and finite, got "
                                          r"|= .* is not a whole number of knot gaps: "
                                          r"N is known only at knots 1\.0 apart$)")):
        GRID_STEP_ENTRIES[entry](bad)


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
        CascadeBundle(traces=(TRACE_TO_10,)), ARGMAX, window=12.0),
    "estimate_high_degree threshold": lambda: estimate_high_degree(
        CascadeBundle(traces=(TRACE_TO_10,)), THRESHOLD, window=12.0),
    "false_alarm_study": lambda: false_alarm_study(FLAT, 10.0, THRESHOLD, runs=2),
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
    return ["--daily-csv", str(tmp_path / "daily.csv"), "--k", "4", "--delta", "3"]


# subcommand -> its arguments, given a directory to write the input in
EMPTY_WINDOW_COMMANDS = {
    "cli detect": lambda d: ["detect", *_events_file(d)],
    "cli detect --threshold": lambda d: ["detect", *_events_file(d), "--threshold", "1"],
    "cli multicascade": lambda d: ["multicascade", *_trace_file(d)],
    "cli multicascade --threshold": lambda d: ["multicascade", *_trace_file(d), "--threshold", "1"],
    "cli detect --daily-csv": lambda d: ["detect", *_daily_file(d)],
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
    "ExperimentSpec": lambda n: ExperimentSpec(SmoothJumpScenario(), (2,), (0.5,), n),
    "heatmap_spec_from_preset": lambda n: heatmap_spec_from_preset(
        get_preset("fig2-scaled"), trials=n, k_grid=(2,), delta_grid=(0.5,)),
}


@pytest.mark.parametrize("height,extra_leaves,message", [
    (True, 2, "height must be an integer, got True"),
    (True, True, "height must be an integer, got True"),
    (3.0, 2, "height must be an integer, got 3.0"),
    (0, 2, "height must be >= 1, got 0"),
    (3, True, "extra_leaves must be an integer, got True"),
    (3, np.bool_(True), f"extra_leaves must be an integer, got {np.bool_(True)!r}"),
    (3, 2.0, "extra_leaves must be an integer, got 2.0"),
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
    (load_binned_csv, "bin_start,count", "0.0,3", "x,4", "bin_start must be finite, got 'x'"),
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
    (lambda: ExperimentSpec(SmoothJumpScenario(), (2,), (0.5,), 1, base_seed=-1), "base_seed"),
    (lambda: ExperimentSpec(SmoothJumpScenario(), (2,), (0.5,), 1, base_seed=True), "base_seed"),
    (lambda: run_heatmap(ExperimentSpec(SmoothJumpScenario(), (1, 2, 3, 4, 5), (0.5,), 1,
                                        base_seed=-1)),
     "base_seed"),
    *((lambda bad=bad: run_heatmap(ExperimentSpec(SmoothJumpScenario(), (2,), (0.5,), 1),
                                   workers=bad), "workers")
      for bad in (0, -3, True, 1.5)),
    (lambda: SimSeed(1).split(1.5), "path[0]"),
    (lambda: SimSeed(1).split(0, -1), "path[1]"),
    (lambda: SimSeed(1).split(True), "path[0]"),
    (lambda: SimSeed(1).split(0, 2, "1"), "path[2]"),
])
def test_seed_fields_are_checked_by_name(make, field):
    with pytest.raises(ValueError, match=f"^{re.escape(field)} must"):
        make()


# loader -> (call, a good file whose line 2 ends in {x}, how it numbers lines,
# the field {x} extends, an {x} that puts that field out of its range); ``{x}``
# is nothing in the good file and the Latin-1 byte 0xe9 in the bad one
READERS = {
    "load_event_times": (load_event_times, "0.5\n0.9{x}\n2.0\n", "line", "timestamp", "e999"),
    "load_binned_csv": (load_binned_csv, "bin_start,count\n0.0,9{x}\n1.0,4\n", "row", "count",
                        "0" * 19),
    "load_daily_csv": (load_daily_csv, "date,cases\n2021-01-09,9{x}\n2021-01-10,4\n", "row",
                       "count", "0" * 19),
    "load_daily_csv region": (lambda p: load_daily_csv(p, region="A"),
                              "date,region,cases\n2021-01-09,A,9{x}\n2021-01-10,A,4\n", "row",
                              "count", "0" * 19),
    "load_edge_list": (load_edge_list, "0 1\n1 2{x}\n2 0\n", "line", "vertex", "0" * 10),
    "load_trace_csv": (load_trace_csv, "vertex,time\n1,0.9{x}\n0,0.0\n", "row", "time", "e999"),
    "load_rate_spec": (load_rate_spec, "A=5 t0=0 shape=constant\nA=2{x} t0=0 shape=constant\n",
                       "line", "amplitude", "e999"),
}


def _fields(loaded):
    return {k: v.tolist() if isinstance(v, np.ndarray) else v for k, v in vars(loaded).items()}


@pytest.mark.parametrize("loader", sorted(READERS))
def test_every_loader_reads_its_file_one_way(tmp_path, loader):
    # a leading byte-order mark is skipped, and a byte that is not UTF-8
    # names its file line, in the word the format numbers lines with
    load, text, unit, _, _ = READERS[loader]
    plain, bom, latin1 = tmp_path / "plain", tmp_path / "bom", tmp_path / "latin1"
    plain.write_bytes(text.format(x="").encode())
    bom.write_bytes(text.format(x="").encode("utf-8-sig"))
    assert _fields(load(bom)) == _fields(load(plain))
    latin1.write_bytes(text.format(x="\xe9").encode("latin-1"))
    with pytest.raises(ValueError, match="^" + re.escape(
            f"{latin1}: {unit} 2: 'utf-8' codec can't decode byte 0xe9 in position ")):
        load(latin1)


@pytest.mark.parametrize("loader", sorted(READERS))
@pytest.mark.parametrize("case", ["not-a-number", "out-of-range"])
def test_every_loader_names_the_line_and_field_of_a_bad_value(tmp_path, loader, case):
    load, text, unit, field, too_far = READERS[loader]
    p = tmp_path / "bad"
    p.write_text(text.format(x="x" if case == "not-a-number" else too_far))
    with pytest.raises(ValueError, match="^" + re.escape(f"{p}: {unit} 2: ") + rf".*\b{field}\b"):
        load(p)


@pytest.mark.parametrize("loader", sorted(READERS))
def test_every_loader_skips_a_line_of_blanks(tmp_path, loader):
    # a line of blanks after the first holds nothing, and the lines after
    # it keep their file numbers: the value of line 2 moves to line 3
    load, text, unit, field, _ = READERS[loader]
    first, rest = text.split("\n", 1)
    plain, blanks, bad = tmp_path / "plain", tmp_path / "blanks", tmp_path / "bad"
    plain.write_text(text.format(x=""))
    blanks.write_text(f"{first}\n   \n{rest}".format(x=""))
    assert _fields(load(blanks)) == _fields(load(plain))
    bad.write_text(f"{first}\n   \n{rest}".format(x="x"))
    with pytest.raises(ValueError, match="^" + re.escape(f"{bad}: {unit} 3: ") + rf".*\b{field}\b"):
        load(bad)


@pytest.mark.parametrize("loader", sorted(READERS))
def test_an_empty_file_names_no_line(tmp_path, loader):
    # no line is read, so an error names the file alone, never line or row 0
    load, _, unit, _, _ = READERS[loader]
    p = tmp_path / "empty"
    p.write_bytes(b"")
    try:
        load(p)
    except ValueError as exc:
        assert str(exc).startswith(f"{p}: ") and f"{unit} 0" not in str(exc)
