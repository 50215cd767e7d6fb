"""Ingesting daily count data.

Real surveillance data arrives as daily counts, sometimes cumulative,
with gaps and reporting corrections.  The loader normalizes all of that
into a gap-free daily series with an audit trail.  Its counts are bins of
one day, so N is known exactly at each day edge, and ``detect --daily-csv``
analyses the series with delta a whole number of days, on a grid of one
day; ``analyze_binned`` is the library's one-order view.

The columns are fixed: ``date`` (ISO YYYY-MM-DD), ``cases`` and, where
regions are read, ``region``; header names match with case and
surrounding blanks ignored, and other columns are not read.  In
cumulative mode a total may dip by up to ``CORRECTION_TOLERANCE`` (20%)
of its running maximum, a reporting correction; a deeper dip is an error.

The loader reads the file once and never holds it whole.
``load_daily_csv(path, region=...)`` hands ``csv.reader`` only the lines
that can hold that region's rows.  After the header, a line is left out
when all three hold: no ``"`` is on it or on any line since the header,
so it is a whole record and never part of a quoted one; ``region`` is
not in it, so its region field, stripped, cannot equal ``region``; and
it has at least as many commas as fields come before the region's, so it
is not a short row.  The file is read in blocks of 64 KiB, each
completed to a line end, so at most one block and one line are held at
a time.  In a block with no quote, no bare CR and no short row, the
region's lines are found with ``str.find`` and the lines between them
are only counted; any other block (the last too, if the file does not
end in a line end) is tested line by line.  Whether a block is such a
block is settled in C with no step per line: a bare CR is looked for
with one regular-expression search, and only in a block that holds a CR
at all.  Each row parsed has its region field compared before anything
else in it is read.  From the first quote on every line is parsed,
straight from the file, so a file quoted throughout gets no speedup and
loses nothing.  A ``RegionSeries`` builds its N once, on its first
read, however many analyses read it.
"""

from __future__ import annotations

import csv
import datetime
import functools
import io
import itertools
import math
import re
from dataclasses import dataclass, field
from operator import itemgetter

import numpy as np

from .derivative import DerivativeProfile, derivative_profile
from .process import (BinnedSeries, SampledCounts, _as_counts, _blank_row, _check_integer,
                      _fields_equal, _file_error, _input_file, _parse_count, from_binned)

__all__ = [
    "RegionSeries",
    "BinnedAnalysis",
    "load_daily_csv",
    "analyze_binned",
]

# A cumulative total may dip below its running maximum by this fraction of
# it (a reporting correction, clamped and recorded) before it is an error.
CORRECTION_TOLERANCE = 0.2

# ``load_daily_csv(path, region=...)`` reads the file in blocks of this many
# characters, each completed to a line end
_BLOCK_CHARS = 1 << 16
_NOT_COMMA_OR_LF = bytes(sorted(set(range(256)) - set(b",\n")))
_BARE_CR = re.compile(r"\r(?!\n)")


@dataclass(frozen=True)
class RegionSeries:
    """A gap-free daily count series for one region.

    ``filled_days`` are day indices that were absent in the input and
    zero-filled; ``clamped_days`` had negative counts (reporting
    corrections) clamped to zero.  Day index 0 is ``start_date``.
    ``counting`` is the series' N, built once, on its first read; the
    counts are a read-only copy, so N cannot go stale.
    """

    region: str
    counts: np.ndarray
    start_date: "datetime.date | None" = None
    filled_days: tuple = field(default_factory=tuple)
    clamped_days: tuple = field(default_factory=tuple)

    __eq__ = _fields_equal

    def __post_init__(self) -> None:
        counts = _as_counts(self.counts, "count of day {}")
        if counts.size == 0:
            raise ValueError("counts must be a non-empty one-dimensional array")
        counts.flags.writeable = False  # a copy, read-only so N, once built, stays its N
        object.__setattr__(self, "counts", counts)

    def __len__(self) -> int:
        return int(self.counts.size)

    @functools.cached_property
    def counting(self) -> SampledCounts:
        """N known at every day edge, day 0 being N(0) = 0: the counts as
        bins of one day (``from_binned``).  Built on the first read and kept
        (not a field: no part of ``repr`` or ``==``), so a series whose
        total passes 2**63 constructs and fails only when N is read."""
        return from_binned(BinnedSeries(bin_width=1.0, counts=self.counts))

    def date_of(self, day: int) -> "datetime.date | None":
        if self.start_date is None:
            return None
        return self.start_date + datetime.timedelta(days=int(day))


def _column_index(header, wanted: str) -> int:
    """The index of the one header field that names ``wanted`` (case and
    surrounding blanks ignored); a missing or repeated column is an error."""
    hits = [i for i, name in enumerate(header) if name.strip().lower() == wanted]
    if not hits:
        raise ValueError(f"missing required column {wanted!r} (have {header})")
    if len(hits) > 1:
        where = ", ".join(str(i + 1) for i in hits)
        raise ValueError(
            f"column {wanted!r} appears {len(hits)} times in the header "
            f"(fields {where}); rename or drop all but one"
        )
    return hits[0]


def _plain_block(body: str, shorts) -> bool:
    """Whether ``body`` ends in a line end and has no ``"``, no bare CR and
    no line of fewer than ``len(shorts)`` commas.  Each test runs in C and
    none steps through the lines: a bare CR, one not followed by a line
    feed, is looked for by one search for ``\\r(?!\\n)``, run only when the
    block holds a CR at all (a plain ``in``); with every byte but comma and
    line feed deleted and a line feed put in front, a line of j commas shows
    as ``shorts[j]``, j commas between two line feeds.
    """
    if body[-1] != "\n" or '"' in body or ("\r" in body and _BARE_CR.search(body)):
        return False
    marks = b"\n" + body.encode().translate(None, _NOT_COMMA_OR_LF)
    return not any(short in marks for short in shorts)


def _region_lines(fh, region: str, ri: int, hidden: list):
    """Yield the lines of ``fh`` that can hold a row of ``region``, up to
    and including the first line with a ``"``, and then the rest of the
    block that line is in; count the others in ``hidden[0]``.

    The file is read in blocks of whole lines: ``_BLOCK_CHARS`` characters,
    then ``fh.readline()`` for the rest of the last one.  Before the first
    quote every line is a whole record, and one is left out when ``region``
    is not in it and it has at least ``ri`` commas: its region field,
    stripped, cannot equal ``region``, and the row has that field.  A block
    with no ``"``, no bare CR and no line of fewer than ``ri`` commas,
    ending in a line end, holds only such lines and the lines with
    ``region`` in them; those are found with ``str.find``, and the lines
    between them counted with ``str.count``, with no Python step per line
    left out.  Every other block, and a ``region`` that is empty or holds a
    line feed, goes through that test line by line.  The quote may open a
    field that spans lines, so the caller parses every line of the file
    after the block.  A line left out is not parsed, so, like a row of
    another region, it raises no error of its own (not even the
    ``csv.Error`` of a field over ``csv.field_size_limit()``).
    """
    shorts = [b"\n" + b"," * j + b"\n" for j in range(ri)]
    findable = region and "\n" not in region
    while body := fh.read(_BLOCK_CHARS):
        body += fh.readline()
        if findable and _plain_block(body, shorts):
            end = 0  # the end of the last line yielded
            i = body.find(region)
            while i >= 0:
                start = body.rfind("\n", 0, i) + 1
                hidden[0] += body.count("\n", end, start)
                end = body.index("\n", i + len(region)) + 1
                yield body[start:end]
                i = body.find(region, end)
            hidden[0] += body.count("\n", end)
            continue
        lines = io.StringIO(body, newline="")  # split as ``fh`` splits
        for line in lines:
            if '"' in line:
                yield line
                yield from lines
                return
            if region in line or line.count(",") < ri:
                yield line
            else:
                hidden[0] += 1


def _read_rows(path, region):
    """One read of ``path``: ``[(date, count, row), ...]``.

    ``region`` keeps only that region's rows; with None, the region column
    is not read and ``reader`` reads the file line by line.  With a
    region, the header is parsed alone, and the lines after it pass
    ``_region_lines``, which reads blocks of whole lines and hands on the
    region's, up to the block of the first ``"``; the lines after that
    block come straight from the file.  A row parsed has its region field
    compared, stripped, before anything else in it is read.  Rows are
    numbered by file line, the header being row 1, so blank and left-out
    lines count: ``reader.line_num`` (the last line of a record with a
    quoted line break) plus the lines ``reader`` did not get, read only
    for rows kept and for errors.  The file is opened by
    ``process._input_file``, so a leading byte-order mark is skipped and
    every error raised while rows are read, a byte that is not UTF-8 too,
    names its row.
    """
    rows = []
    hidden = [0]  # file lines before the current one that ``reader`` did not get
    with _input_file(path, "row", lambda: reader.line_num + hidden[0]) as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise ValueError("empty file")
        di = _column_index(header, "date")
        ci = _column_index(header, "cases")
        ri = None
        if region is not None:
            ri = _column_index(header, "region")
            hidden[0] = reader.line_num
            reader = csv.reader(itertools.chain(_region_lines(fh, region, ri, hidden), fh))
        for row in itertools.filterfalse(_blank_row, reader):
            try:
                if ri is not None and row[ri].strip() != region:
                    continue
                raw_date = row[di].strip()
                raw_count = row[ci].strip()
            except IndexError:
                # the first field read, in the order above, that the row lacks
                col = next(i for i in (ri, di, ci) if i is not None and i >= len(row))
                raise ValueError(f"no {header[col].strip()!r} field (the row has {len(row)} "
                                 f"of the header's {len(header)} fields)") from None
            try:
                date = datetime.date.fromisoformat(raw_date)
            except ValueError:
                raise ValueError(
                    f"unparseable date {raw_date!r} (expected YYYY-MM-DD)") from None
            rows.append((date, _parse_count(raw_count), reader.line_num + hidden[0]))
    return rows


def _to_series(path, region: str, rows, mode: str) -> RegionSeries:
    """Turn one region's parsed rows into a gap-free ``RegionSeries``."""
    rows.sort(key=itemgetter(0))  # stable: rows of one date stay in file order
    ordinals = np.fromiter((r[0].toordinal() for r in rows), np.int64, len(rows))
    repeats = np.flatnonzero(ordinals[1:] == ordinals[:-1])
    if repeats.size:
        date, _, rowno = rows[repeats[0] + 1]
        raise _file_error(path, "row", rowno, f"duplicate date {date}")

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
    if mode not in ("daily", "cumulative"):
        raise ValueError(f"mode must be 'daily' or 'cumulative', got {mode!r}")
    rows = _read_rows(path, region)
    if not rows:
        target = f" for region {region!r}" if region else ""
        raise ValueError(f"{path}: no data rows{target}")
    return _to_series(path, region or "", rows, mode)


@dataclass(frozen=True)
class BinnedAnalysis:
    """Discrete-derivative profile of a daily series, evaluated on day edges."""

    profile: DerivativeProfile

    @property
    def k(self) -> int:
        return self.profile.order

    @property
    def argmax_day(self) -> int:
        """The day edge of the largest |value|, the earliest on ties."""
        return int(round(float(self.profile.times[self.profile.argmax()])))


def analyze_binned(series, k: int, delta_days: int = 1) -> BinnedAnalysis:
    """Order-k derivative of a daily series with delta = whole days.

    ``series`` may be a RegionSeries or any 1-d array of daily counts,
    which becomes one; a count that breaks the count rule
    (``process._as_counts``) is an error naming its day.  N is read off
    the series (``RegionSeries.counting``), which builds it once, so one
    series analysed at several orders or steps builds one N.  The profile
    is evaluated at every integer day edge t in the valid range
    [(k-1)*delta_days, n_days - delta_days], whose stencil reaches back to
    day 0, where N(0) = 0 is known; values are exact integers.  A series
    too short for that range to hold a day is the profile's ValueError
    naming the window.
    """
    if not isinstance(series, RegionSeries):
        series = RegionSeries(region="", counts=series)
    k = _check_integer(k, "k")
    delta_days = _check_integer(delta_days, "delta_days", high=math.inf)
    profile = derivative_profile(series.counting, k, float(delta_days))
    return BinnedAnalysis(profile)

