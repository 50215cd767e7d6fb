"""Each input rule has one implementation; every entry point gives the same answer.

The rules on a derivative order k (and on a whole count such as a number
of trials), a step delta and a grid step live in ``ratejump.derivative``;
the rule on event counts, for arrays and for the count fields of files,
lives in ``ratejump.process``.  Each test below feeds the same bad value
to every entry point that takes it and expects a ValueError that names
the field, index, day or row.
"""

import numpy as np
import pytest

from ratejump.derivative import DerivativeStencil, derivative_profiles
from ratejump.detector import DetectorConfig
from ratejump.harness import (ExperimentSpec, RampScenario, get_preset, heatmap_spec_from_preset,
                              run_baselines)
from ratejump.ingest import RegionSeries, analyze_binned, load_daily_csv
from ratejump.process import BinnedSeries, EventTimes, load_binned_csv
from ratejump.seeding import SimSeed, as_seed

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
}

GRID_STEP_ENTRIES = {
    "DetectorConfig": lambda g: DetectorConfig(k=2, delta=0.5, grid_step=g),
    "derivative_profiles": lambda g: derivative_profiles(EVENTS, [2], 0.5, grid_step=g),
}


@pytest.mark.parametrize("entry", sorted(ORDER_ENTRIES))
@pytest.mark.parametrize("bad", [0, -1, 21, 2.5, 2.0, True, np.float64(3.0), "2", None])
def test_order_rule(entry, bad):
    call, field = ORDER_ENTRIES[entry]
    with pytest.raises(ValueError, match=field):
        call(bad)


@pytest.mark.parametrize("entry", sorted(DELTA_ENTRIES))
@pytest.mark.parametrize("bad", [0.0, -0.5, np.inf, -np.inf, np.nan])
def test_delta_rule(entry, bad):
    call, field = DELTA_ENTRIES[entry]
    with pytest.raises(ValueError, match=field):
        call(bad)


@pytest.mark.parametrize("entry", sorted(GRID_STEP_ENTRIES))
@pytest.mark.parametrize("bad", [0.0, -0.1, 0.6, np.inf, np.nan])
def test_grid_step_rule(entry, bad):
    with pytest.raises(ValueError, match=r"^grid_step must be in \(0, delta=0.5\]"):
        GRID_STEP_ENTRIES[entry](bad)


TRIALS_ENTRIES = {
    "ExperimentSpec": lambda n: ExperimentSpec(RampScenario(), (2,), (0.5,), n),
    "heatmap_spec_from_preset": lambda n: heatmap_spec_from_preset(
        get_preset("fig2-scaled"), trials=n, k_grid=(2,), delta_grid=(0.5,)),
}


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
    (lambda: run_baselines(RampScenario(), (0.5,), 1, base_seed=-1), "base_seed"),
])
def test_seed_fields_are_checked_by_name(make, field):
    with pytest.raises(ValueError, match=f"^{field} must"):
        make()
