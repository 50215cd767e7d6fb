"""Ingesting binned (daily) count data and analyzing it at day resolution.

Real surveillance data arrives as daily counts, sometimes cumulative,
with gaps and reporting corrections.  The loader normalizes all of that
into a gap-free daily series with an audit trail; the analyzer runs the
discrete derivative with delta restricted to whole days, so every stencil
evaluation lands exactly on a bin edge where the counting function is
known exactly (no interpolation, integer arithmetic throughout).

The columns are fixed: ``date`` (ISO YYYY-MM-DD), ``cases`` and, where
regions are read, ``region``; header names match with case and
surrounding blanks ignored, and other columns are not read.  In
cumulative mode a total may dip by up to ``CORRECTION_TOLERANCE`` (20%)
of its running maximum, a reporting correction; a deeper dip is an error.

Both loaders make one ``csv.reader`` pass over the file.
``load_daily_csv(path, region=...)`` compares each row's region field
before parsing anything else in the row, so the rows of other regions
cost one field lookup; ``load_daily_regions`` groups every row by region
in the same loop.  Either way one helper turns a region's rows into a
``RegionSeries``, so a region loads the same through both.
"""

from __future__ import annotations

import csv
import datetime
import math
from dataclasses import dataclass, field
from operator import itemgetter

import numpy as np

from .derivative import DerivativeProfile, _check_order, derivative_profile
from .process import BinnedSeries, _as_counts, _parse_count, from_binned

__all__ = [
    "RegionSeries",
    "BinnedAnalysis",
    "load_daily_csv",
    "load_daily_regions",
    "analyze_binned",
    "save_analysis_csv",
]

# A cumulative total may dip below its running maximum by this fraction of
# it (a reporting correction, clamped and recorded) before it is an error.
CORRECTION_TOLERANCE = 0.2


@dataclass(frozen=True)
class RegionSeries:
    """A gap-free daily count series for one region.

    ``filled_days`` are day indices that were absent in the input and
    zero-filled; ``clamped_days`` had negative counts (reporting
    corrections) clamped to zero.  Day index 0 is ``start_date``.
    """

    region: str
    counts: np.ndarray
    start_date: "datetime.date | None" = None
    filled_days: tuple = field(default_factory=tuple)
    clamped_days: tuple = field(default_factory=tuple)

    def __post_init__(self) -> None:
        counts = _as_counts(self.counts, "count of day {}")
        if counts.size == 0:
            raise ValueError("counts must be a non-empty one-dimensional array")
        object.__setattr__(self, "counts", counts)

    def __len__(self) -> int:
        return int(self.counts.size)

    def to_binned(self) -> BinnedSeries:
        """View as a binned series with 1-day bins starting at time 0."""
        return BinnedSeries(bin_width=1.0, counts=self.counts, start_time=0.0)

    def date_of(self, day: int) -> "datetime.date | None":
        if self.start_date is None:
            return None
        return self.start_date + datetime.timedelta(days=int(day))


def _column_index(header, wanted: str, path) -> int:
    """The index of the one header field that names ``wanted`` (case and
    surrounding blanks ignored); a missing or repeated column is an error."""
    hits = [i for i, name in enumerate(header) if name.strip().lower() == wanted]
    if not hits:
        raise ValueError(f"{path}: missing required column {wanted!r} (have {header})")
    if len(hits) > 1:
        where = ", ".join(str(i + 1) for i in hits)
        raise ValueError(
            f"{path}: column {wanted!r} appears {len(hits)} times in the header "
            f"(fields {where}); rename or drop all but one"
        )
    return hits[0]


def _read_rows(path, region, grouped):
    """One ``csv.reader`` pass over ``path``: ``{region: [(date, count, row), ...]}``.

    ``region`` keeps only that region's rows; ``grouped`` keys every row by
    its region field; with neither, the region column is not read and all
    rows go under ``""``.  A row's region field is compared, stripped,
    before anything else in the row is parsed, so other regions' rows cost
    one field lookup.  Rows are numbered by file line, the header being
    row 1, so blank lines count; the number (``reader.line_num``, the last
    line of a record with a quoted line break) is read only for rows kept
    and for errors.
    """
    groups: dict = {}
    with open(path, "r", encoding="utf-8-sig", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise ValueError(f"{path}: empty file")
        di = _column_index(header, "date", path)
        ci = _column_index(header, "cases", path)
        ri = _column_index(header, "region", path) if region is not None or grouped else None
        key = ""
        for row in filter(None, reader):
            try:
                if ri is not None:
                    key = row[ri].strip()
                    if region is not None and key != region:
                        continue
                raw_date = row[di].strip()
                raw_count = row[ci].strip()
            except IndexError:
                # the first field read, in the order above, that the row lacks
                col = next(i for i in (ri, di, ci) if i is not None and i >= len(row))
                raise ValueError(
                    f"{path}: row {reader.line_num}: no {header[col].strip()!r} field "
                    f"(the row has {len(row)} of the header's {len(header)} fields)"
                ) from None
            rowno = reader.line_num
            try:
                date = datetime.date.fromisoformat(raw_date)
            except ValueError:
                raise ValueError(
                    f"{path}: row {rowno}: unparseable date {raw_date!r} (expected YYYY-MM-DD)"
                ) from None
            try:
                count = _parse_count(raw_count)
            except ValueError as exc:
                raise ValueError(f"{path}: row {rowno}: {exc}") from None
            groups.setdefault(key, []).append((date, count, rowno))
    return groups


def _to_series(path, region: str, rows, mode: str) -> RegionSeries:
    """Turn one region's parsed rows into a gap-free ``RegionSeries``."""
    rows.sort(key=itemgetter(0))  # stable: rows of one date stay in file order
    ordinals = np.fromiter((r[0].toordinal() for r in rows), np.int64, len(rows))
    repeats = np.flatnonzero(ordinals[1:] == ordinals[:-1])
    if repeats.size:
        date, _, rowno = rows[repeats[0] + 1]
        raise ValueError(f"{path}: row {rowno}: duplicate date {date}")

    days = ordinals - ordinals[0]
    n_days = int(days[-1]) + 1
    present = np.zeros(n_days, dtype=bool)
    present[days] = True
    values = np.zeros(n_days, dtype=np.int64)
    values[days] = [r[1] for r in rows]

    if mode == "cumulative":
        # carry the last seen cumulative value across gaps, then difference
        running = values[np.maximum.accumulate(np.where(present, np.arange(n_days), 0))]
        before = np.maximum.accumulate(np.concatenate(([0], running[:-1])))
        too_far = present & (before - running > CORRECTION_TOLERANCE * np.maximum(before, 1))
        if too_far.any():
            day = int(np.argmax(too_far))
            date = rows[0][0] + datetime.timedelta(days=day)
            raise ValueError(
                f"{path}: cumulative count drops from {before[day]} to {running[day]} "
                f"at {date} (beyond the {CORRECTION_TOLERANCE:.0%} correction tolerance)"
            )
        daily = np.diff(running, prepend=0)
    else:
        daily = values
    return RegionSeries(
        region=region,
        counts=np.maximum(daily, 0),
        start_date=rows[0][0],
        filled_days=tuple(int(d) for d in np.flatnonzero(~present)),
        clamped_days=tuple(int(d) for d in np.flatnonzero(daily < 0)),
    )


def _check_mode(mode: str) -> None:
    if mode not in ("daily", "cumulative"):
        raise ValueError(f"mode must be 'daily' or 'cumulative', got {mode!r}")


def load_daily_csv(path, region: "str | None" = None, mode: str = "daily") -> RegionSeries:
    """Load a daily count series from CSV.

    ``region`` keeps only the rows whose region column, stripped, equals
    it; other regions' rows are skipped unparsed.  ``mode="daily"`` reads
    counts as-is; ``mode="cumulative"`` differences them (the first day
    keeps its cumulative value as its daily count).  Dates must be ISO
    (YYYY-MM-DD); duplicates are errors; gaps are zero-filled and
    recorded.  Negative daily counts — direct or from a cumulative dip —
    are clamped to zero and recorded, unless a cumulative dip exceeds
    ``CORRECTION_TOLERANCE`` times the running maximum, which is treated
    as corrupt input.  All errors name the offending row (its line in the
    file), field or column.
    """
    _check_mode(mode)
    groups = _read_rows(path, region, False)
    if not groups:
        target = f" for region {region!r}" if region else ""
        raise ValueError(f"{path}: no data rows{target}")
    (rows,) = groups.values()
    return _to_series(path, region or "", rows, mode)


def load_daily_regions(path, mode: str = "daily") -> "dict[str, RegionSeries]":
    """Load every region of a daily CSV in one pass: ``{region: series}``.

    Regions are keyed by their stripped region field, in order of first
    appearance.  Each series is what ``load_daily_csv(path, region=...)``
    returns; every row of every region gets that function's checks.
    """
    _check_mode(mode)
    groups = _read_rows(path, None, True)
    if not groups:
        raise ValueError(f"{path}: no data rows")
    return {region: _to_series(path, region, rows, mode) for region, rows in groups.items()}


@dataclass(frozen=True)
class BinnedAnalysis:
    """Discrete-derivative profile of a daily series, evaluated on day edges."""

    profile: DerivativeProfile
    argmax_day: int
    argmax_value: float
    k: int
    delta_days: int
    region: str = ""
    start_date: "datetime.date | None" = None

    def summary(self) -> str:
        date = ""
        if self.start_date is not None:
            date = f" ({self.start_date + datetime.timedelta(days=self.argmax_day)})"
        return (
            f"largest |order-{self.k} derivative| at day {self.argmax_day}{date}: "
            f"{self.argmax_value!r} (delta = {self.delta_days} day(s))"
        )


def analyze_binned(series, k: int, delta_days: int = 1) -> BinnedAnalysis:
    """Order-k derivative of a daily series with delta = whole days.

    ``series`` may be a RegionSeries or any 1-d array of daily counts,
    which becomes one; a count that breaks the count rule
    (``process._as_counts``) is an error naming its day.
    The profile is evaluated at every integer day edge t in the valid
    range [(k-1)*delta_days, n_days - delta_days], whose stencil reaches
    back to day 0, where N(0) = 0 is known; values are exact integers.  A
    series too short for that range to hold a day is the profile's
    ValueError naming the window.
    """
    if not isinstance(series, RegionSeries):
        series = RegionSeries(region="", counts=series)
    k = _check_order(k, "k")
    delta_days = _check_order(delta_days, "delta_days", limit=math.inf)
    counting = from_binned(series.to_binned())
    profile = derivative_profile(counting, k, float(delta_days), delta_days)
    i = profile.argmax()
    return BinnedAnalysis(
        profile=profile,
        argmax_day=int(round(float(profile.times[i]))),
        argmax_value=float(profile.values[i]),
        k=k,
        delta_days=delta_days,
        region=series.region,
        start_date=series.start_date,
    )


def save_analysis_csv(analysis: BinnedAnalysis, path) -> None:
    """Write the profile as CSV with header ``day,value``."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["day", "value"])
        for t, v in analysis.profile.pairs():
            writer.writerow([int(round(t)), repr(v)])
