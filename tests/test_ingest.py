import datetime

import numpy as np
import pytest

from ratejump.derivative import discrete_derivative
from ratejump.ingest import (
    BinnedAnalysis,
    RegionSeries,
    analyze_binned,
    load_daily_csv,
    save_analysis_csv,
)
from ratejump.process import BinnedSeries, from_binned


def write(tmp_path, text, name="data.csv"):
    p = tmp_path / name
    p.write_text(text)
    return p


def test_load_daily(tmp_path):
    p = write(tmp_path, "date,cases\n2020-03-01,2\n2020-03-02,3\n2020-03-03,5\n")
    s = load_daily_csv(p)
    assert s.counts.tolist() == [2, 3, 5]
    assert s.start_date == datetime.date(2020, 3, 1)
    assert s.filled_days == ()
    assert s.clamped_days == ()


def test_load_cumulative(tmp_path):
    p = write(tmp_path, "date,cases\n2020-03-01,2\n2020-03-02,5\n2020-03-03,10\n")
    s = load_daily_csv(p, mode="cumulative")
    assert s.counts.tolist() == [2, 3, 5]


def test_gap_zero_fill_flagged(tmp_path):
    p = write(tmp_path, "date,cases\n2020-03-01,2\n2020-03-04,5\n")
    s = load_daily_csv(p)
    assert s.counts.tolist() == [2, 0, 0, 5]
    assert s.filled_days == (1, 2)


def test_negative_daily_clamped(tmp_path):
    p = write(tmp_path, "date,cases\n2020-03-01,4\n2020-03-02,-3\n2020-03-03,6\n")
    s = load_daily_csv(p)
    assert s.counts.tolist() == [4, 0, 6]
    assert s.clamped_days == (1,)


def test_cumulative_small_dip_clamped(tmp_path):
    # a small downward correction is clamped to a zero-count day
    p = write(tmp_path, "date,cases\n2020-03-01,100\n2020-03-02,98\n2020-03-03,120\n")
    s = load_daily_csv(p, mode="cumulative")
    assert s.counts.tolist() == [100, 0, 22]
    assert s.clamped_days == (1,)


def test_cumulative_large_dip_is_error(tmp_path):
    p = write(tmp_path, "date,cases\n2020-03-01,100\n2020-03-02,10\n")
    with pytest.raises(ValueError, match="drops"):
        load_daily_csv(p, mode="cumulative")


def test_region_filter(tmp_path):
    p = write(
        tmp_path,
        "region,date,cases\nA,2020-03-01,1\nB,2020-03-01,9\nA,2020-03-02,2\n",
    )
    s = load_daily_csv(p, region="A")
    assert s.counts.tolist() == [1, 2]
    assert s.region == "A"
    with pytest.raises(ValueError, match="no data rows"):
        load_daily_csv(p, region="C")


def test_load_errors_name_rows(tmp_path):
    p = write(tmp_path, "date,cases\n2020-03-01,1\nnot-a-date,2\n")
    with pytest.raises(ValueError, match="row 3.*unparseable date"):
        load_daily_csv(p)
    p = write(tmp_path, "date,cases\n2020-03-01,xyz\n")
    with pytest.raises(ValueError, match="row 2.*bad count"):
        load_daily_csv(p)
    p = write(tmp_path, "day,cases\n2020-03-01,1\n")
    with pytest.raises(ValueError, match="missing required column 'date'"):
        load_daily_csv(p)
    p = write(tmp_path, "date,cases\n2020-03-01,1\n2020-03-01,2\n")
    with pytest.raises(ValueError, match="duplicate date"):
        load_daily_csv(p)


@pytest.mark.parametrize("raw", ["3.7", "-0.5", "inf", "-inf", "nan", "1e400"])
def test_non_integral_or_non_finite_count_names_row(tmp_path, raw):
    p = write(tmp_path, f"date,cases\n2020-03-01,2\n2020-03-02,{raw}\n")
    with pytest.raises(ValueError, match="row 3.*not a finite whole number"):
        load_daily_csv(p)


def test_integral_float_count_accepted(tmp_path):
    p = write(tmp_path, "date,cases\n2020-03-01,100.0\n2020-03-02,5\n")
    assert load_daily_csv(p).counts.tolist() == [100, 5]


def test_analyze_constant_is_zero():
    counts = np.full(30, 7)
    analysis = analyze_binned(counts, k=2, delta_days=1)
    assert np.all(analysis.profile.values == 0)
    analysis3 = analyze_binned(counts, k=3, delta_days=2)
    assert np.all(analysis3.profile.values == 0)


def test_analyze_spike():
    counts = np.full(30, 10)
    counts[12] += 50
    analysis = analyze_binned(counts, k=2, delta_days=1)
    # extremes of opposite sign immediately adjacent to the spike day
    vals = dict(analysis.profile.pairs())
    assert vals[12.0] == 50.0
    assert vals[13.0] == -50.0
    assert analysis.argmax_day == 12
    assert abs(analysis.argmax_value) == 50.0


def test_analyze_step():
    counts = np.concatenate([np.full(15, 10), np.full(15, 60)])
    a2 = analyze_binned(counts, k=2, delta_days=1)
    nonzero = {t: v for t, v in a2.profile.pairs() if v != 0}
    assert nonzero == {15.0: 50.0}  # single extreme at the step
    a3 = analyze_binned(counts, k=3, delta_days=1)
    nonzero = {t: v for t, v in a3.profile.pairs() if v != 0}
    assert nonzero == {15.0: 50.0, 16.0: -50.0}  # opposite-sign pair


def test_analyze_matches_derivative_exactly():
    rng = np.random.default_rng(8)
    counts = rng.integers(0, 100, size=40)
    for k, dd in [(1, 1), (2, 1), (2, 3), (3, 2)]:
        analysis = analyze_binned(counts, k=k, delta_days=dd)
        N = from_binned(BinnedSeries(bin_width=1.0, counts=counts))
        for t, v in analysis.profile.pairs():
            ref = discrete_derivative(N, k, float(dd), t, horizon=40.0)
            assert v == ref
            assert float(v).is_integer()


def test_analyze_length_error_names_minimum():
    with pytest.raises(ValueError, match=r"\(k\+1\)\*delta_days = 12"):
        analyze_binned(np.ones(10, dtype=int), k=3, delta_days=3)
    with pytest.raises(ValueError, match="delta_days"):
        analyze_binned(np.ones(10, dtype=int), k=2, delta_days=0)


def test_analysis_csv_and_summary(tmp_path):
    counts = np.full(20, 5)
    counts[9] += 30
    analysis = analyze_binned(counts, k=2, delta_days=1)
    out = tmp_path / "profile.csv"
    save_analysis_csv(analysis, out)
    lines = out.read_text().splitlines()
    assert lines[0] == "day,value"
    days = [int(l.split(",")[0]) for l in lines[1:]]
    assert days == list(range(1, 20))
    assert "day 9" in analysis.summary()


def test_round_trip_series_to_analysis(tmp_path):
    rows = ["date,cases"]
    base = datetime.date(2021, 1, 1)
    rng = np.random.default_rng(2)
    values = rng.integers(0, 50, size=25)
    for i, v in enumerate(values):
        rows.append(f"{base + datetime.timedelta(days=i)},{v}")
    p = write(tmp_path, "\n".join(rows) + "\n")
    s = load_daily_csv(p)
    assert np.array_equal(s.counts, values)
    analysis = analyze_binned(s, k=2, delta_days=1)
    assert isinstance(analysis, BinnedAnalysis)
    # summary carries the calendar date of the argmax day
    assert str(s.date_of(analysis.argmax_day)) in analysis.summary()


def test_region_series_validation():
    with pytest.raises(ValueError, match="negative"):
        RegionSeries(region="x", counts=np.array([1, -2]))
    with pytest.raises(ValueError, match="non-empty"):
        RegionSeries(region="x", counts=np.array([], dtype=int))
