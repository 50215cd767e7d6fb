"""Ingesting binned (daily) count data and analyzing it at day resolution.

Real surveillance data arrives as daily counts, sometimes cumulative,
with gaps and reporting corrections.  The loader normalizes all of that
into a gap-free daily series with an audit trail; the analyzer runs the
discrete derivative with delta restricted to whole days, so every stencil
evaluation lands exactly on a bin edge where the counting function is
known exactly (no interpolation, integer arithmetic throughout).
"""

from __future__ import annotations

import csv
import datetime
from dataclasses import dataclass, field

import numpy as np

from .derivative import DerivativeProfile, derivative_profile
from .process import BinnedSeries, from_binned

__all__ = [
    "RegionSeries",
    "BinnedAnalysis",
    "load_daily_csv",
    "analyze_binned",
    "save_analysis_csv",
]


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
        counts = np.asarray(self.counts, dtype=np.int64)
        if counts.ndim != 1 or counts.size == 0:
            raise ValueError("counts must be a non-empty one-dimensional array")
        if np.any(counts < 0):
            bad = int(np.argmax(counts < 0))
            raise ValueError(f"negative count at day {bad}: {counts[bad]}")
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


def _find_column(fieldnames, wanted: str, path) -> str:
    for name in fieldnames:
        if name.strip().lower() == wanted:
            return name
    raise ValueError(f"{path}: missing required column {wanted!r} (have {fieldnames})")


def load_daily_csv(
    path,
    region: "str | None" = None,
    mode: str = "daily",
    date_column: str = "date",
    count_column: str = "cases",
    region_column: str = "region",
    correction_tolerance: float = 0.2,
) -> RegionSeries:
    """Load a daily count series from CSV.

    ``mode="daily"`` reads counts as-is; ``mode="cumulative"`` differences
    them (the first day keeps its cumulative value as its daily count).
    Dates must be ISO (YYYY-MM-DD); duplicates are errors; gaps are
    zero-filled and recorded.  Negative daily counts — direct or from a
    cumulative dip — are clamped to zero and recorded, unless a cumulative
    dip exceeds ``correction_tolerance`` times the running maximum, which
    is treated as corrupt input.  All errors name the offending row.
    """
    if mode not in ("daily", "cumulative"):
        raise ValueError(f"mode must be 'daily' or 'cumulative', got {mode!r}")
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
        for rowno, row in enumerate(reader, start=2):
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
            count = int(value)
            rows.append((date, count, rowno))
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
        # carry the last seen cumulative value across gaps, then difference
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

    ``series`` may be a RegionSeries or any 1-d array of daily counts.
    Requires at least (k+1)*delta_days days so the stencil fits at least
    one evaluation point.  The profile is evaluated at every integer day
    edge in the valid range; values are exact integers.
    """
    region = ""
    start_date = None
    if isinstance(series, RegionSeries):
        region = series.region
        start_date = series.start_date
        counts = series.counts
    else:
        counts = np.asarray(series, dtype=np.int64)
    if not isinstance(delta_days, (int, np.integer)) or delta_days < 1:
        raise ValueError(f"delta_days must be an integer >= 1, got {delta_days}")
    n_days = int(counts.size)
    minimum = (k + 1) * delta_days
    if n_days < minimum:
        raise ValueError(
            f"series has {n_days} days but order k={k} at delta_days={delta_days} "
            f"needs at least (k+1)*delta_days = {minimum}"
        )
    binned = BinnedSeries(bin_width=1.0, counts=counts, start_time=0.0)
    counting = from_binned(binned)
    profile = derivative_profile(counting, k, float(delta_days), grid_step=1.0)
    i = profile.argmax()
    return BinnedAnalysis(
        profile=profile,
        argmax_day=int(round(float(profile.times[i]))),
        argmax_value=float(profile.values[i]),
        k=int(k),
        delta_days=int(delta_days),
        region=region,
        start_date=start_date,
    )


def save_analysis_csv(analysis: BinnedAnalysis, path) -> None:
    """Write the profile as CSV with header ``day,value``."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["day", "value"])
        for t, v in analysis.profile.pairs():
            writer.writerow([int(round(t)), repr(v)])
