"""Counting-process representations: raw event times and binned counts.

The package-wide convention is that the counting function N(t) is the
number of events with timestamp <= t, so N is a right-continuous step
function and N(horizon) is the total event count.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

__all__ = [
    "EventTimes",
    "BinnedSeries",
    "BinnedCounting",
    "cumulative",
    "from_binned",
    "bin_events",
    "load_event_times",
    "save_event_times",
    "load_binned_csv",
    "save_binned_csv",
]


def _count_problem(value) -> "str | None":
    """Why ``value`` is not an event count, or None if it is one."""
    try:
        whole = int(value) == value
    except (TypeError, ValueError, OverflowError):  # not a number, nan, inf
        whole = False
    if not whole:
        return "not a finite whole number"
    if value < 0:
        return "negative"
    if value >= 2**63:
        return "beyond the 64-bit integer range"
    return None


def _as_counts(values, position: str = "counts[{}]") -> np.ndarray:
    """``values`` as a one-dimensional int64 array of event counts.

    The one rule on counts: whole numbers in [0, 2**63), taken exactly.
    The first entry that breaks it is named by ``position.format(index)``.
    """
    values = np.asarray(values)
    if values.ndim != 1:
        raise ValueError("counts must be a one-dimensional array")
    if values.dtype.kind in "iuf":
        bad = (values < 0) | (values >= 2**63)
        if values.dtype.kind == "f":
            bad |= values != np.trunc(values)  # fractions and nan; inf is caught above
    else:  # object and other dtypes: element by element
        bad = np.fromiter((_count_problem(v) is not None for v in values.tolist()),
                          bool, values.size)
    if bad.any():
        i = int(np.argmax(bad))
        value = values[i:i + 1].tolist()[0]
        raise ValueError(f"{position.format(i)} = {value!r} is {_count_problem(value)}")
    return values.astype(np.int64)


def _parse_count(text: str) -> int:
    """A file's count field as an exact int of size below 2**63: ``int``
    first, so counts above 2**53 are not rounded, then ``float`` for forms
    like ``100.0``.  Negatives pass; each loader has its own rule for them.
    """
    try:
        value = int(text)
    except ValueError:
        try:
            value = float(text)
        except ValueError:
            raise ValueError(f"bad count {text!r}") from None
    problem = _count_problem(abs(value))
    if problem:
        raise ValueError(f"count {text!r} is {problem}")
    return int(value)


@dataclass(frozen=True)
class EventTimes:
    """A sorted sequence of event timestamps on [0, horizon].

    ``times`` must be non-decreasing (duplicates are allowed: simultaneous
    events are legal) and contained in ``[0, horizon]``.
    """

    times: np.ndarray
    horizon: float

    def __post_init__(self) -> None:
        times = np.ascontiguousarray(self.times, dtype=np.float64)
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "horizon", float(self.horizon))
        if times.ndim != 1:
            raise ValueError("times must be a one-dimensional array")
        if not np.isfinite(self.horizon) or self.horizon < 0:
            raise ValueError(f"horizon must be finite and non-negative, got {self.horizon}")
        if times.size:
            if not np.all(np.isfinite(times)):
                raise ValueError("event times must all be finite")
            if np.any(np.diff(times) < 0):
                raise ValueError("event times must be sorted in non-decreasing order")
            if times[0] < 0.0 or times[-1] > self.horizon:
                raise ValueError(
                    f"event times must lie in [0, {self.horizon}]; "
                    f"got range [{times[0]}, {times[-1]}]"
                )

    def __len__(self) -> int:
        return int(self.times.size)

    def count_at(self, t):
        """N(t): number of events with time <= t.  Vectorized over t."""
        return np.searchsorted(self.times, t, side="right")


@dataclass(frozen=True)
class BinnedSeries:
    """Non-negative integer event counts in contiguous uniform bins.

    Bin i covers ``[start_time + i*bin_width, start_time + (i+1)*bin_width)``.
    """

    bin_width: float
    counts: np.ndarray
    start_time: float = 0.0

    def __post_init__(self) -> None:
        if not (np.isfinite(self.bin_width) and self.bin_width > 0):
            raise ValueError(f"bin_width must be positive and finite, got {self.bin_width}")
        object.__setattr__(self, "counts", _as_counts(self.counts))
        object.__setattr__(self, "bin_width", float(self.bin_width))
        object.__setattr__(self, "start_time", float(self.start_time))

    def __len__(self) -> int:
        return int(self.counts.size)

    @property
    def horizon(self) -> float:
        return self.start_time + len(self) * self.bin_width

    def right_edges(self) -> np.ndarray:
        """The right edge of each bin, ascending."""
        return self.start_time + np.arange(1, len(self) + 1) * self.bin_width


class BinnedCounting:
    """Counting function backed by binned data.

    Events of bin i are attributed to the bin's right edge, so N(t) is the
    sum of counts over all bins whose right edge is <= t.  At a right edge
    the bin's own count is included; between edges N is constant.
    """

    def __init__(self, series: BinnedSeries):
        self.series = series
        self._edges = series.right_edges()
        self._csum = np.concatenate(([0], cumulative(series)))
        self.horizon = series.horizon

    def count_at(self, t):
        """N(t) under right-edge attribution.  Vectorized over t."""
        return self._csum[np.searchsorted(self._edges, t, side="right")]

    def __len__(self) -> int:
        return int(self._csum[-1])


def cumulative(series: BinnedSeries) -> np.ndarray:
    """Prefix sums of the bin counts: entry i is N at bin i's right edge.

    A total that reaches 2**63 is an error naming its bin.  Each count is
    below 2**63, so the first int64 sum to wrap is the first negative one.
    """
    totals = np.cumsum(series.counts, dtype=np.int64)
    wrapped = np.flatnonzero(totals < 0)
    if wrapped.size:
        raise ValueError(f"counts total reaches 2**63 at bin {wrapped[0]}")
    return totals


def from_binned(series: BinnedSeries) -> BinnedCounting:
    """Build the counting function for binned counts (right-edge attribution)."""
    return BinnedCounting(series)


def bin_events(events: EventTimes, bin_width: float) -> BinnedSeries:
    """Bin event times: counts[i] = #events in [i*w, (i+1)*w), up to the horizon.

    With no event exactly on a bin edge, ``from_binned(bin_events(e, w))``
    agrees with ``e.count_at`` at every bin right edge.  (An event exactly
    on an edge belongs to the right-hand bin here but to the left-closed
    count under the N(t) convention; measure-zero for continuous samples.)
    """
    n_bins = max(int(np.ceil(events.horizon / bin_width - 1e-12)), 0)
    idx = np.searchsorted(events.times, np.arange(n_bins + 1) * bin_width, side="left")
    return BinnedSeries(bin_width=bin_width, counts=np.diff(idx))


# ---------------------------------------------------------------------------
# file formats


def load_event_times(path, horizon: "float | None" = None) -> EventTimes:
    """Read event times from a text file: one timestamp per line.

    Blank lines and lines starting with ``#`` are ignored.  Timestamps are
    sorted on load.  ``horizon`` defaults to the largest timestamp.
    """
    values = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            try:
                values.append(float(line))
            except ValueError:
                raise ValueError(f"{path}: line {lineno}: not a timestamp: {line!r}") from None
    times = np.sort(np.asarray(values, dtype=np.float64))
    if horizon is None:
        horizon = float(times[-1]) if times.size else 0.0
    return EventTimes(times=times, horizon=horizon)


def save_event_times(events: EventTimes, path) -> None:
    """Write event times as one timestamp per line with a comment header."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# event times, horizon={float(events.horizon)!r}\n")
        for t in events.times.tolist():
            fh.write(f"{t!r}\n")


def load_binned_csv(path) -> BinnedSeries:
    """Read a binned series from CSV with header ``bin_start,count``.

    Bins must be contiguous and uniform; counts must be non-negative
    integers.  Errors name the offending row.
    """
    starts = []
    counts = []
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [h.strip().lower() for h in header[:2]] != ["bin_start", "count"]:
            raise ValueError(f"{path}: expected header 'bin_start,count', got {header}")
        for rowno, row in enumerate(reader, start=2):
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            if len(row) < 2:
                raise ValueError(f"{path}: row {rowno}: expected 2 fields, got {len(row)}")
            try:
                starts.append(float(row[0]))
            except ValueError:
                raise ValueError(f"{path}: row {rowno}: bad bin_start {row[0]!r}") from None
            try:
                count = _parse_count(row[1])
            except ValueError as exc:
                raise ValueError(f"{path}: row {rowno}: {exc}") from None
            if count < 0:
                raise ValueError(f"{path}: row {rowno}: negative count {count}")
            counts.append(count)
    if not starts:
        raise ValueError(f"{path}: no data rows")
    starts_arr = np.asarray(starts, dtype=np.float64)
    if len(starts_arr) > 1:
        widths = np.diff(starts_arr)
        width = widths[0]
        if width <= 0 or not np.allclose(widths, width, rtol=1e-9, atol=1e-12):
            bad = int(np.argmax(~np.isclose(widths, width, rtol=1e-9, atol=1e-12)))
            raise ValueError(
                f"{path}: bins are not contiguous/uniform near row {bad + 3} "
                f"(gap {widths[bad]!r} vs width {width!r})"
            )
    else:
        width = 1.0
    return BinnedSeries(bin_width=float(width), counts=np.asarray(counts), start_time=float(starts_arr[0]))


def save_binned_csv(series: BinnedSeries, path) -> None:
    """Write a binned series as CSV with header ``bin_start,count``."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["bin_start", "count"])
        for i, c in enumerate(series.counts):
            writer.writerow([repr(float(series.start_time + i * series.bin_width)), int(c)])
