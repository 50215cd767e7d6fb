import copy
import csv
import dataclasses
import datetime
import re

import numpy as np
import pytest
from hypothesis import given, strategies as st

from ratejump import ingest
from ratejump.cli import main
from ratejump.detector import DetectorConfig, argmax_single, detect
from ratejump.ingest import (
    BinnedAnalysis,
    RegionSeries,
    analyze_binned,
    load_daily_csv,
)
from ratejump.process import BinnedSeries, from_binned
from windowed_profiles import brute_force


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
    with pytest.raises(ValueError, match="missing required column 'region'"):
        load_daily_csv(write(tmp_path, "date,cases\n2020-03-01,1\n"), region="A")
    with pytest.raises(ValueError, match="mode must be"):
        load_daily_csv(p, mode="weekly")


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


def test_short_row_names_row_and_missing_column(tmp_path):
    p = write(tmp_path, "date,region,cases\n2021-01-01,A,3\n2021-01-02\n")
    with pytest.raises(ValueError, match="row 3: no 'region' field"):
        load_daily_csv(p, region="A")
    with pytest.raises(ValueError, match="row 3: no 'cases' field"):
        load_daily_csv(p)
    # a short row of another region is skipped unparsed
    p = write(tmp_path, "date,region,cases\n2021-01-01,A,3\n2021-01-02,B\n")
    assert load_daily_csv(p, region="A").counts.tolist() == [3]


def test_repeated_header_column_is_error(tmp_path):
    p = write(tmp_path, "date,cases,cases\n2021-01-01,3,7\n")
    with pytest.raises(ValueError, match="column 'cases' appears 2 times"):
        load_daily_csv(p)
    p = write(tmp_path, "region,date,Region ,cases\nA,2021-01-01,A,3\n")
    with pytest.raises(ValueError, match="column 'region' appears 2 times"):
        load_daily_csv(p, region="A")
    # a repeated column the loader does not read is harmless
    p = write(tmp_path, "date,cases,note,note\n2021-01-01,3,x,y\n")
    assert load_daily_csv(p).counts.tolist() == [3]


def test_byte_order_mark_is_skipped(tmp_path):
    p = tmp_path / "bom.csv"
    p.write_bytes("date,cases\n2021-01-01,3\n2021-01-02,4\n".encode("utf-8-sig"))
    assert load_daily_csv(p).counts.tolist() == [3, 4]


def test_byte_order_mark_is_skipped_with_a_region(tmp_path):
    # the mark is on the region column's name
    p = tmp_path / "bom.csv"
    p.write_bytes("region,date,cases\nA,2021-01-01,3\nB,2021-01-01,5\nA,2021-01-02,4\n"
                  .encode("utf-8-sig"))
    assert load_daily_csv(p, region="A").counts.tolist() == [3, 4]
    assert load_daily_csv(p, region="B").counts.tolist() == [5]


# longer than csv.field_size_limit(), 131072 characters unless a program raises it
BIG = "9" * 140_000


@pytest.mark.parametrize("region", ["A", None])
def test_field_over_the_size_limit_names_path_and_row(tmp_path, region):
    # in the region's own row on line 4, after a row of another region
    p = write(tmp_path, f"date,region,cases\n2021-01-01,A,3\n2021-01-01,B,4\n2021-01-02,A,{BIG}\n")
    with pytest.raises(ValueError, match=rf"^{re.escape(str(p))}: row 4: field larger than "):
        load_daily_csv(p, region=region)
    # and in the header
    p = write(tmp_path, f"date,region,cases,{BIG}\n2021-01-01,A,3\n")
    with pytest.raises(ValueError, match=rf"^{re.escape(str(p))}: row 1: field larger than "):
        load_daily_csv(p, region=region)


def test_field_over_the_size_limit_in_another_regions_row_is_not_parsed(tmp_path):
    p = write(tmp_path, f"date,region,cases\n2021-01-01,A,3\n2021-01-01,B,{BIG}\n2021-01-02,A,4\n")
    assert load_daily_csv(p, region="A").counts.tolist() == [3, 4]
    with pytest.raises(ValueError, match=rf"^{re.escape(str(p))}: row 3: field larger than "):
        load_daily_csv(p)


def test_nul_byte_in_a_count_names_row(tmp_path):
    # Python 3.10's csv module refuses the NUL itself; later ones read the
    # field, and the count rule refuses it: either way the row is named
    p = tmp_path / "nul.csv"
    p.write_bytes(b"date,cases\n2021-01-01,3\x00\n")
    with pytest.raises(ValueError, match=rf"^{re.escape(str(p))}: row 2: "):
        load_daily_csv(p)


@pytest.mark.parametrize("raw", ["3.7", "-0.5", "inf", "-inf", "nan", "1e400"])
def test_non_integral_or_non_finite_count_names_row(tmp_path, raw):
    p = write(tmp_path, f"date,cases\n2020-03-01,2\n2020-03-02,{raw}\n")
    with pytest.raises(ValueError, match="row 3.*not a finite whole number"):
        load_daily_csv(p)


@pytest.mark.parametrize("raw", ["1e30", "-1e30", "9223372036854775808"])
def test_count_beyond_int64_names_row(tmp_path, raw):
    p = write(tmp_path, f"date,cases\n2020-03-01,2\n2020-03-02,{raw}\n")
    with pytest.raises(ValueError, match="row 3.*64-bit integer range"):
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


def test_weekly_cycle_cancels_at_a_seven_day_step():
    # an additive 7-periodic cycle adds the same weekly total to every
    # first-order difference at delta = 7 days, so each higher order cancels
    # it exactly
    week = [135, 115, 100, 100, 95, 80, 75]
    counts = np.tile(week, 20)
    for k in range(1, 8):
        analysis = analyze_binned(counts, k=k, delta_days=7)
        assert (analysis.k, analysis.profile.steps_per_delta) == (k, 7)
        expected = sum(week) if k == 1 else 0
        assert analysis.profile.values.tolist() == [expected] * len(analysis.profile)


def test_analyze_spike():
    counts = np.full(30, 10)
    counts[12] += 50
    analysis = analyze_binned(counts, k=2, delta_days=1)
    # extremes of opposite sign immediately adjacent to the spike day
    vals = dict(analysis.profile.pairs())
    assert vals[12.0] == 50.0
    assert vals[13.0] == -50.0
    assert analysis.argmax_day == 12
    assert abs(analysis.profile.values[analysis.profile.argmax()]) == 50.0


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
            ref = brute_force(N, k, float(dd), t)
            assert v == ref
            assert float(v).is_integer()


@pytest.mark.parametrize("k", [1, 2, 3, 4])
@pytest.mark.parametrize("delta", [1, 7])
def test_argmax_readers_agree_on_daily_counts(k, delta):
    # N known at day edges sets a grid of one day for every reader of it
    counts = np.random.default_rng(21).poisson(200, size=90)
    counts[50] += 600
    N = from_binned(BinnedSeries(bin_width=1.0, counts=counts))
    day = analyze_binned(counts, k, delta).argmax_day
    assert argmax_single(N, k, delta) == detect(N, DetectorConfig(k, delta)).times[0] == day


@pytest.mark.parametrize("bad", [1.5, np.nan, np.inf])
def test_analyze_rejects_non_integral_counts_naming_day(bad):
    counts = np.array([1.0, 2, 3, 4, 5])
    counts[2] = bad
    with pytest.raises(ValueError, match="day 2 .*not a finite whole number"):
        analyze_binned(counts, k=1)
    with pytest.raises(ValueError, match="day 2 "):
        analyze_binned(counts.tolist(), k=1)


def test_analyze_rejects_counts_beyond_int64_naming_day():
    with pytest.raises(ValueError, match="day 0 .*64-bit integer range"):
        analyze_binned(np.array([1e30, 1, 2, 3.0]), k=1)
    with pytest.raises(ValueError, match="day 2 .*64-bit integer range"):
        analyze_binned([1, 2, 10**30, 3], k=1)


def test_analyze_accepts_integral_float_counts():
    floats = analyze_binned(np.array([1.0, 2, 3, 4, 5]), k=1)
    ints = analyze_binned(np.arange(1, 6), k=1)
    assert floats.profile.values.tolist() == ints.profile.values.tolist()


def test_analyze_rejects_bool_delta_days():
    with pytest.raises(ValueError, match="delta_days"):
        analyze_binned(np.ones(10, dtype=int), k=1, delta_days=True)


def test_analyze_length_error_names_minimum():
    # k=3, delta=3 days: grid [(k-1)*3, n_days - 3] = [6, n_days - 3], whose
    # stencil at day 6 reads N(0) = 0, so 9 days give one point
    analysis = analyze_binned(np.ones(9, dtype=int), k=3, delta_days=3)
    assert analysis.profile.times.tolist() == [6.0]
    assert (analysis.argmax_day, analysis.profile.values[analysis.profile.argmax()]) == (6, 0.0)
    with pytest.raises(ValueError, match=r"^no valid grid points: window \(6\.0, 5\.0\) is empty "
                                         r"for k=3, delta=3\.0$"):
        analyze_binned(np.ones(8, dtype=int), k=3, delta_days=3)
    with pytest.raises(ValueError, match="delta_days"):
        analyze_binned(np.ones(10, dtype=int), k=2, delta_days=0)


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
    # the argmax day edge d is the start of the date d days after the first
    assert s.date_of(analysis.argmax_day) == base + datetime.timedelta(days=analysis.argmax_day)


def test_region_series_validation():
    with pytest.raises(ValueError, match="negative"):
        RegionSeries(region="x", counts=np.array([1, -2]))
    with pytest.raises(ValueError, match="non-empty"):
        RegionSeries(region="x", counts=np.array([], dtype=int))


def test_a_series_builds_its_n_once(tmp_path, monkeypatch):
    p = write(tmp_path, "date,region,cases\n" + "".join(
        f"2021-01-{d:02d},{r},{d * (r == 'A')}\n" for d in range(1, 21) for r in "AB"))
    built = []
    monkeypatch.setattr(ingest, "from_binned",
                        lambda series: built.append(1) or from_binned(series))
    series = load_daily_csv(p, region="A")
    analyses = [analyze_binned(series, k) for k in (1, 2, 3, 4)]
    assert len(built) == 1
    assert analyses[0].profile.values.tolist() == list(range(1, 21))  # day t's count, t + 1
    # detect --daily-csv reads the same N off the series it loaded
    assert main(["detect", "--daily-csv", str(p), "--region", "A", "--k", "2", "--delta", "1",
                 "--out-dir", str(tmp_path / "out")]) == 0
    assert len(built) == 2


def test_a_series_n_is_no_field():
    series = RegionSeries(region="x", counts=np.array([1, 2, 3]))
    twin = copy.copy(series)  # the same counts array, so == compares by identity
    assert series.counting.counts.tolist() == [0, 1, 3, 6]
    assert "counting" not in repr(series) and repr(series) == repr(twin)
    assert series == twin and "counting" not in vars(twin)
    assert "counting" not in {f.name for f in dataclasses.fields(RegionSeries)}
    # a total past 2**63 is read only when N is: the series constructs
    huge = RegionSeries(region="x", counts=[1, 2**63 - 1])
    with pytest.raises(ValueError, match="total reaches 2\\*\\*63 at bin 1"):
        huge.counting


def test_a_series_n_cannot_go_stale():
    given = np.array([1, 2, 3])
    series = RegionSeries(region="x", counts=given)
    given[0] = 9  # the series holds its own copy
    assert series.counting.counts.tolist() == [0, 1, 3, 6]
    with pytest.raises(ValueError, match="read-only"):
        series.counts[0] = 0
    assert analyze_binned(series, 1).profile.values.tolist() == [1, 2, 3]


# ---------------------------------------------------------------------------
# equivalence with the csv.DictReader loader that the single pass replaced


def _find_column(fieldnames, wanted, path):
    for name in fieldnames:
        if name.strip().lower() == wanted:
            return name
    raise ValueError(f"{path}: missing required column {wanted!r} (have {fieldnames})")


def _dictreader_load(path, region=None, mode="daily", date_column="date",
                     count_column="cases", region_column="region",
                     correction_tolerance=0.2):
    """The loader as it was before the single-pass rewrite, kept as an oracle;
    rows are numbered by file line, as the loaders now number them."""
    rows = []
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None:
            raise ValueError(f"{path}: empty file")
        date_col = _find_column(reader.fieldnames, date_column.lower(), path)
        count_col = _find_column(reader.fieldnames, count_column.lower(), path)
        region_col = None
        if region is not None:
            region_col = _find_column(reader.fieldnames, region_column.lower(), path)
        for row in reader:
            rowno = reader.line_num
            if region_col is not None and row[region_col].strip() != region:
                continue
            raw_date = (row[date_col] or "").strip()
            try:
                date = datetime.date.fromisoformat(raw_date)
            except ValueError:
                raise ValueError(
                    f"{path}: row {rowno}: unparseable date {raw_date!r} (expected YYYY-MM-DD)"
                ) from None
            raw_count = (row[count_col] or "").strip()
            try:
                value = float(raw_count)
            except ValueError:
                raise ValueError(f"{path}: row {rowno}: bad count {raw_count!r}") from None
            if not value.is_integer():
                raise ValueError(
                    f"{path}: row {rowno}: count {raw_count!r} is not a finite whole number"
                )
            rows.append((date, int(value), rowno))
    if not rows:
        target = f" for region {region!r}" if region else ""
        raise ValueError(f"{path}: no data rows{target}")
    rows.sort(key=lambda r: (r[0], r[2]))
    for (d1, _, _), (d2, _, rowno) in zip(rows, rows[1:]):
        if d1 == d2:
            raise ValueError(f"{path}: row {rowno}: duplicate date {d2}")

    start_date = rows[0][0]
    n_days = (rows[-1][0] - start_date).days + 1
    present = np.zeros(n_days, dtype=bool)
    values = np.zeros(n_days, dtype=np.int64)
    for date, count, rowno in rows:
        day = (date - start_date).days
        present[day] = True
        values[day] = count

    clamped = []
    if mode == "cumulative":
        running = np.zeros(n_days, dtype=np.int64)
        last = 0
        running_max = 0
        for day in range(n_days):
            if present[day]:
                value = values[day]
                dip = running_max - value
                if dip > correction_tolerance * max(running_max, 1):
                    date = start_date + datetime.timedelta(days=day)
                    raise ValueError(
                        f"{path}: cumulative count drops from {running_max} to {value} "
                        f"at {date} (beyond the {correction_tolerance:.0%} correction tolerance)"
                    )
                last = value
                running_max = max(running_max, value)
            running[day] = last
        daily = np.diff(running, prepend=0)
        for day in np.flatnonzero(daily < 0):
            clamped.append(int(day))
        daily = np.maximum(daily, 0)
    else:
        daily = values.copy()
        for day in np.flatnonzero(daily < 0):
            clamped.append(int(day))
        daily = np.maximum(daily, 0)

    filled = tuple(int(d) for d in np.flatnonzero(~present))
    return RegionSeries(
        region=region or "",
        counts=daily,
        start_date=start_date,
        filled_days=filled,
        clamped_days=tuple(clamped),
    )


def _outcome(load, *args, **kwargs):
    try:
        s = load(*args, **kwargs)
    except ValueError as exc:
        return ("error", str(exc))
    return (s.region, s.counts.tolist(), s.start_date, s.filled_days, s.clamped_days)


def _messy_rows(rng, cumulative, n_regions=4, n_days=40):
    """Shuffled ``[date, region, count]`` rows with gaps and corrections."""
    base = datetime.date(2021, 1, 1)
    rows = []
    for r in range(n_regions):
        counts = rng.poisson(30, n_days)
        if cumulative:
            values = np.cumsum(counts)
            for day in rng.choice(np.arange(5, n_days), size=2, replace=False):
                values[day] = values[day - 1] - rng.integers(1, 4)  # a small correction
        else:
            values = counts
            values[rng.integers(n_days)] = -rng.integers(1, 5)  # a negative correction
        keep = np.ones(n_days, dtype=bool)
        keep[rng.choice(np.arange(1, n_days), size=3, replace=False)] = False  # gaps
        first = int(rng.integers(0, 3))  # regions start on different days
        for day in np.flatnonzero(keep[first:]) + first:
            date = base + datetime.timedelta(days=int(day))
            rows.append([date.isoformat(), f"R{r}", str(values[day])])
    return [rows[i] for i in rng.permutation(len(rows))]


def _write_messy(path, rng, rows):
    """Write rows under a permuted, padded header; fields are plain, quoted,
    space-padded or quoted with blanks inside; about one row in ten is
    followed by a blank line."""
    perm = rng.permutation(3)
    lines = [",".join([" Date", "REGION ", "cases"][i] for i in perm)]
    for row in rows:
        fields = []
        for i in perm:
            text = row[i]
            style = rng.integers(4)
            if style == 1:
                text = f'"{text}"'
            elif style == 2:
                text = f"  {text} "
            elif style == 3:
                text = f'" {text}\t"'
            fields.append(text)
        lines.append(",".join(fields))
        if rng.random() < 0.1:
            lines.append("")
    path.write_text("\n".join(lines) + "\n")


def _corrupt(rng, rows, how):
    rows = [list(r) for r in rows]
    i = int(rng.integers(len(rows)))
    if how == "date":
        rows[i][0] = "2021-13-01"
    elif how == "count":
        rows[i][2] = "many"
    elif how == "fraction":
        rows[i][2] = "2.5"
    elif how == "duplicate":
        rows.insert(int(rng.integers(len(rows) + 1)), list(rows[i]))
    elif how == "dip":
        rows[i][2] = "1"
    return rows


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("mode", ["daily", "cumulative"])
def test_single_pass_matches_dictreader_loader(tmp_path, seed, mode):
    rng = np.random.default_rng([seed, mode == "cumulative"])
    rows = _messy_rows(rng, mode == "cumulative")
    p = tmp_path / "messy.csv"
    _write_messy(p, rng, rows)
    regions = sorted({r[1] for r in rows})
    for region in regions + ["nowhere", None]:
        assert _outcome(load_daily_csv, p, region=region, mode=mode) == _outcome(
            _dictreader_load, p, region=region, mode=mode
        )


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("how", ["date", "count", "fraction", "duplicate", "dip"])
def test_single_pass_errors_match_dictreader_loader(tmp_path, seed, how):
    rng = np.random.default_rng([seed, 7])
    rows = _corrupt(rng, _messy_rows(rng, True), how)
    p = tmp_path / "bad.csv"
    _write_messy(p, rng, rows)
    errors = 0
    for region in sorted({r[1] for r in rows}) + [None]:
        for mode in ("daily", "cumulative"):
            got = _outcome(load_daily_csv, p, region=region, mode=mode)
            assert got == _outcome(_dictreader_load, p, region=region, mode=mode)
            errors += got[0] == "error"
    assert errors > 0


# ---------------------------------------------------------------------------
# the line filter in front of csv.reader for load_daily_csv(path, region=...)

LINE_ENDINGS = ["\n", "\r\n", "\r"]


def write_lines(tmp_path, lines, newline):
    p = tmp_path / "regions.csv"
    p.write_bytes("".join(line + newline for line in lines).encode())
    return p


REGION_FILES = {
    # the first quote is in the middle of the file; R10 holds R1, and every
    # date holds 1
    "quote-midway": [
        "date,cases,region",
        "2021-01-01,1,R1", "2021-01-01,5,R10", "", "2021-01-02,2,R1", "2021-01-02,6,R10",
        '2021-01-03,7,"R10"',
        "2021-01-03,3,R1", "2021-01-04,8,R10", "2021-01-05,4,R1", "", "2021-01-05,9,R10",
    ],
    # a quoted date of B spans three lines; its middle line has no quote, no
    # region name and all the commas of a row
    "spanning-field": [
        "date,region,cases,note",
        "2021-01-01,A,1,", "2021-01-01,B,5,",
        '"2021-01-02', "2021-01-03,x,7,x", '",B,6,',
        "2021-01-02,A,2,", "2021-01-03,B,8,", "2021-01-03,A,3,",
    ],
    # a date of R1 that does not parse, after lines left out and a quote
    "late-error": [
        "region,date,cases",
        "R10,2021-01-01,5", "R1,2021-01-01,1", "R11,2021-01-01,2", "R10,2021-01-02,6",
        '"R11",2021-01-02,3', "R10,2021-01-03,7", "R1,2021-01-0x,2", "R11,2021-01-03,4",
    ],
}


@pytest.mark.parametrize("newline", LINE_ENDINGS)
@pytest.mark.parametrize("name", sorted(REGION_FILES))
def test_region_lines_match_dictreader_loader(tmp_path, name, newline):
    p = write_lines(tmp_path, REGION_FILES[name], newline)
    for region in ["R1", "R10", "R11", "1", "R", "A", "B", "C", "", "nowhere", None]:
        for mode in ("daily", "cumulative"):
            assert _outcome(load_daily_csv, p, region=region, mode=mode) == _outcome(
                _dictreader_load, p, region=region, mode=mode
            )
    if name == "quote-midway":
        assert load_daily_csv(p, region="R1").counts.tolist() == [1, 2, 3, 0, 4]
    elif name == "spanning-field":
        assert load_daily_csv(p, region="A").counts.tolist() == [1, 2, 3]
        date = f"2021-01-02{newline}2021-01-03,x,7,x"  # stripped
        assert _outcome(load_daily_csv, p, region="B") == (
            "error", f"{p}: row 6: unparseable date {date!r} (expected YYYY-MM-DD)")
    else:
        assert _outcome(load_daily_csv, p, region="R1") == (
            "error", f"{p}: row 8: unparseable date '2021-01-0x' (expected YYYY-MM-DD)")


@pytest.mark.parametrize("newline", LINE_ENDINGS)
@pytest.mark.parametrize("quote_line", [None, 2, 5])
def test_short_rows_of_other_regions_around_the_first_quote(tmp_path, newline, quote_line):
    # B's short rows lack the cases field (line 3) or the region field
    # (line 6); the first quote, if any, is on B's row on line 2 or 5
    lines = ["date,region,cases", "2021-01-01,B,4", "2021-01-02,B", "2021-01-01,A,1",
             "2021-01-02,B,5", "2021-01-03", "2021-01-02,A,2"]
    if quote_line:
        lines[quote_line - 1] = lines[quote_line - 1].replace("B", '"B"')
    p = write_lines(tmp_path, lines, newline)
    with pytest.raises(ValueError) as info:
        load_daily_csv(p, region="A")
    assert str(info.value) == (f"{p}: row 6: no 'region' field "
                               "(the row has 1 of the header's 3 fields)")
    with pytest.raises(ValueError) as info:
        load_daily_csv(p, region="B")
    assert str(info.value) == (f"{p}: row 3: no 'cases' field "
                               "(the row has 2 of the header's 3 fields)")
    # without the row that lacks its region, A loads as the oracle loads it
    del lines[5]
    p = write_lines(tmp_path, lines, newline)
    assert _outcome(load_daily_csv, p, region="A") == _outcome(_dictreader_load, p, region="A")
    assert load_daily_csv(p, region="A").counts.tolist() == [1, 2]


@pytest.mark.parametrize("newline", LINE_ENDINGS)
def test_reader_gets_only_the_header_and_the_regions_lines(tmp_path, monkeypatch, newline):
    rng = np.random.default_rng(3)
    base = datetime.date(2021, 1, 1)
    lines = ["date,region,cases"] + [
        f"{base + datetime.timedelta(days=d)},region-{r:02d},{rng.integers(100)}"
        for d in range(30) for r in range(50)
    ]
    p = write_lines(tmp_path, lines, newline)
    seen = []
    reader = csv.reader

    def spy(lines, *args, **kwargs):
        return reader((seen.append(line) or line for line in lines), *args, **kwargs)

    monkeypatch.setattr(csv, "reader", spy)
    series = load_daily_csv(p, region="region-07")
    mine = [line for line in lines[1:] if ",region-07," in line]
    assert seen == [line + newline for line in [lines[0]] + mine]
    assert series.counts.tolist() == [int(line.rsplit(",", 1)[1]) for line in mine]


@pytest.mark.parametrize("newline", LINE_ENDINGS)
def test_byte_that_is_not_utf8_names_its_row(tmp_path, newline):
    # a Latin-1 "é" in B's row on line 3; the file is decoded whole for
    # every region, so A's load names it too
    lines = ["date,region,cases", "2021-01-01,A,3", "2021-01-01,B\xe9,4", "2021-01-02,A,4"]
    p = tmp_path / "latin1.csv"
    p.write_bytes("".join(line + newline for line in lines).encode("latin-1"))
    for region in [None, "A", "B"]:
        with pytest.raises(ValueError) as info:
            load_daily_csv(p, region=region)
        assert str(info.value) == (f"{p}: row 3: 'utf-8' codec can't decode byte 0xe9 "
                                   "in position 12: invalid continuation byte")


# ---------------------------------------------------------------------------
# the block scan of _region_lines against the one-test-per-line filter


def _per_line_region_lines(lines, region, ri, hidden):
    """The line filter as it was before the block scan, kept as the
    reference: the lines that can hold ``region``, tested one by one, up to
    and including the first with a quote; the caller reads on from the file.
    """
    for line in lines:
        if '"' in line:
            yield line
            return
        if region in line or line.count(",") < ri:
            yield line
        else:
            hidden[0] += 1


BLOCK_FILES = {
    **REGION_FILES,
    # B's rows on lines 3 and 6 lack the cases and the region field
    "short-rows": ["date,region,cases", "2021-01-01,B,4", "2021-01-02,B", "2021-01-01,A,1",
                   "2021-01-02,B,5", "2021-01-03", "2021-01-02,A,2"],
    "short-rows-quoted": ["date,region,cases", "2021-01-01,B,4", "2021-01-02,B", "2021-01-01,A,1",
                          '2021-01-02,"B",5', "2021-01-03", "2021-01-02,A,2"],
    # the region is the third field: a row of one comma and a blank line are short
    "short-rows-third-field": ["date,cases,region", "2021-01-01,4,B", "2021-01-02,5",
                               "2021-01-01,1,A", "", "2021-01-02,2,A", "2021-01-03,6,B"],
    "big-field": ["date,region,cases,note", "2021-01-01,A,3,", f"2021-01-01,B,4,{BIG}",
                  "2021-01-02,A,4,", f"2021-01-02,B,5,x{BIG}"],
    "byte-order-mark": ["\ufeffregion,date,cases", "A,2021-01-01,3", "B,2021-01-01,5",
                        "A,2021-01-02,4"],
    # a bare CR ends A's row on line 2 in a file of other line ends
    "mixed-line-ends": ["date,region,cases", "2021-01-01,A,3\r2021-01-01,B,5", "2021-01-02,B,6",
                        "2021-01-02,A,4"],
}
BLOCK_REGIONS = ["A", "B", "R1", "R10", "1", "2021-01-0", ",", "", "\n", "nowhere"]


@pytest.mark.parametrize("block", [1, 2, 7, 64, ingest._BLOCK_CHARS])
@pytest.mark.parametrize("newline", LINE_ENDINGS)
def test_block_scan_gives_the_reader_the_per_line_filters_lines(
        tmp_path, monkeypatch, newline, block):
    seen = []
    reader = csv.reader

    def spy(lines, *args, **kwargs):
        return reader((seen.append(line) or line for line in lines), *args, **kwargs)

    def read(p, region, region_lines):
        # the lines csv.reader got and the rows, with their row numbers, or the error
        seen.clear()
        with monkeypatch.context() as m:
            m.setattr(ingest, "_region_lines", region_lines)
            try:
                rows = ingest._read_rows(p, region)
            except ValueError as exc:
                rows = str(exc)
        return list(seen), rows

    monkeypatch.setattr(csv, "reader", spy)
    monkeypatch.setattr(ingest, "_BLOCK_CHARS", block)
    rows = {}
    for name, lines in BLOCK_FILES.items():
        text = "".join(line + newline for line in lines)
        for ends in (text, text[:-len(newline)]):  # the last line with and without its end
            p = tmp_path / "regions.csv"
            p.write_bytes(ends.encode())
            for region in BLOCK_REGIONS:
                seen_lines, rows[name, region] = read(p, region, ingest._region_lines)
                assert (seen_lines, rows[name, region]) == read(
                    p, region, _per_line_region_lines), (name, region)
                if name in REGION_FILES:
                    for mode in ("daily", "cumulative"):
                        assert _outcome(load_daily_csv, p, region=region, mode=mode) == _outcome(
                            _dictreader_load, p, region=region, mode=mode)
    # a short row of another region is an error; the big fields are not parsed
    assert rows["short-rows", "A"] == (f"{p}: row 6: no 'region' field "
                                       "(the row has 1 of the header's 3 fields)")
    assert rows["short-rows-third-field", "A"] == (f"{p}: row 3: no 'region' field "
                                                   "(the row has 2 of the header's 3 fields)")
    assert rows["big-field", "A"] == [(datetime.date(2021, 1, 1), 3, 2),
                                      (datetime.date(2021, 1, 2), 4, 4)]
    assert rows["byte-order-mark", "A"] == [(datetime.date(2021, 1, 1), 3, 2),
                                            (datetime.date(2021, 1, 2), 4, 4)]


def _two_count_plain_block(body, shorts):
    """``_plain_block`` as it was, kept as the reference: a bare CR shows as
    more CRs than CRLFs."""
    if body[-1] != "\n" or '"' in body or body.count("\r") != body.count("\r\n"):
        return False
    marks = b"\n" + body.encode().translate(None, ingest._NOT_COMMA_OR_LF)
    return not any(short in marks for short in shorts)


@given(st.lists(st.tuples(st.text(alphabet='a,\r\n"', max_size=8),
                          st.sampled_from(["\n", "\r\n", "\r", ""])), min_size=1, max_size=12),
       st.sampled_from([0, 1, 2]))
def test_plain_block_keeps_the_two_count_rule(lines, ri):
    body = "".join(text + end for text, end in lines)
    if not body:
        return
    shorts = [b"\n" + b"," * j + b"\n" for j in range(ri)]  # as _region_lines builds them
    assert ingest._plain_block(body, shorts) == _two_count_plain_block(body, shorts)
