import csv
import datetime

import numpy as np
import pytest

from ratejump.derivative import discrete_derivative
from ratejump.ingest import (
    BinnedAnalysis,
    RegionSeries,
    analyze_binned,
    load_daily_csv,
    load_daily_regions,
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


def test_short_row_names_row_and_missing_column(tmp_path):
    p = write(tmp_path, "date,region,cases\n2021-01-01,A,3\n2021-01-02\n")
    with pytest.raises(ValueError, match="row 3: no 'region' field"):
        load_daily_csv(p, region="A")
    with pytest.raises(ValueError, match="row 3: no 'region' field"):
        load_daily_regions(p)
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


def test_load_daily_regions(tmp_path):
    p = write(
        tmp_path,
        "region,date,cases\nA,2020-03-01,1\nB,2020-03-02,9\nA,2020-03-03,2\n",
    )
    regions = load_daily_regions(p)
    assert list(regions) == ["A", "B"]
    assert regions["A"].counts.tolist() == [1, 0, 2]
    assert regions["A"].filled_days == (1,)
    assert regions["B"].region == "B"
    assert regions["B"].start_date == datetime.date(2020, 3, 2)
    with pytest.raises(ValueError, match="missing required column 'region'"):
        load_daily_regions(write(tmp_path, "date,cases\n2020-03-01,1\n"))
    with pytest.raises(ValueError, match="no data rows"):
        load_daily_regions(write(tmp_path, "region,date,cases\n"))
    with pytest.raises(ValueError, match="mode must be"):
        load_daily_regions(p, mode="weekly")


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
    assert (analysis.argmax_day, analysis.argmax_value) == (6, 0.0)
    with pytest.raises(ValueError, match=r"^no valid grid points: window \(6\.0, 5\.0\) is empty "
                                         r"for k=3, delta=3\.0$"):
        analyze_binned(np.ones(8, dtype=int), k=3, delta_days=3)
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
    every = load_daily_regions(p, mode=mode)
    assert sorted(every) == regions
    for region in regions:
        assert _outcome(lambda: every[region]) == _outcome(
            load_daily_csv, p, region=region, mode=mode
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
