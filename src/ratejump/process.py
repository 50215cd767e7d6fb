"""Counting-process representations: raw event times, and N known only at
some times, its knots: drawn there, or a binned series' bin edges measured
from its first edge (``from_binned``), since a bin tells N at its edges.

The package-wide convention is that the counting function N(t) is the
number of events with timestamp <= t, so N is a right-continuous step
function and N(horizon) is the total event count.

This module also holds every value and file rule of the package, and the
one path by which a file is read or written.  It imports no other
``ratejump`` module, so the simulators and the CLI check their inputs
without importing the estimator.  Each rule names the field it checks:

- ``_check_integer``, the one rule on a whole number (bools, floats and
  strings refused): an order k in [1, ``MAX_ORDER``]; a count such as days
  or trials >= 1, with no upper limit; a seed, a stream, a ``SimSeed.split``
  path entry, a base seed and a tree's ``extra_leaves`` >= 0; a ``Graph``'s
  n >= 1; a vertex id (a cascade's source, a ``Graph``'s hub, the vertex of
  ``Graph.neighbors`` and ``degree``, so of ``rate_at`` and
  ``jump_at_infection``) in [0, n - 1].
- ``_check_delta``, a step: positive and finite.  Bools, non-numbers,
  numeric strings such as ``"0.5"`` and ints beyond the float range are
  refused (``_real``); numpy scalars are numbers.  A detector's delta and
  threshold, a heatmap's deltas, a Poisson scenario's fields, a horizon, an
  amplitude, an ``expdecay`` rate, a bin width and the CLI's step flags
  follow it.
- ``_check_finite``, its sibling for a finite field: an onset, the
  ``sinusoid`` fields, the ``polynomial`` coefficients, the horizon of
  ``EventTimes`` and ``SampledCounts`` (also >= 0), a ``BinnedSeries``'
  start time, each of ``d_max``'s estimates and truths, ``eval_rate``'s
  ``t`` (an array's entry as ``t[i]``) and ``candidate_vertices``' change
  times.
- ``_check_interval``, two finite ends with lo <= hi: a lattice plan's
  analysis window and ``rate_upper_bound``'s window.
- ``_check_window``, a candidate window, positive with +inf included:
  ``candidate_vertices`` and ``estimate_high_degree``.
- ``_as_counts``, event counts: whole numbers in [0, 2**63), taken exactly,
  for arrays (``BinnedSeries``, ``RegionSeries``, ``analyze_binned``) and,
  through ``_parse_count``, for the count fields of both CSV loaders.
- ``_first_repeat``, the one search for a repeated key: an edge listed
  twice, a trace's vertex, a daily CSV's date.

Every loader, here and in ``ingest``, ``si`` and ``poisson``, opens its
file through ``_input_file`` and reads each field by ``_parse_number``, as
the CLI reads its flags, then checks it under its own name: a timestamp
and a trace's time finite and >= 0, a bin start finite, a binned count an
integer >= 0, a vertex id of an edge list or a trace in [0, 2**31 - 2], the
ids a ``Graph``'s int32 CSR indexes, and a rate spec's ``A``, ``t0`` and
``params`` by the rules of ``JumpComponent`` and the shapes, its parser
naming its own ``line N``.  Every output file, here and in ``si``,
``detector``, ``harness``, ``multicascade``, ``poisson`` and the CLI, is
written through ``_write_lines`` or ``_write_csv``, as UTF-8 with no
newline translation, so a file reads the same on every platform.
"""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import itertools
import math
import numbers
from dataclasses import dataclass

import numpy as np

__all__ = [
    "EventTimes",
    "SampledCounts",
    "BinnedSeries",
    "cumulative",
    "from_binned",
    "bin_events",
    "load_event_times",
    "save_event_times",
    "load_binned_csv",
    "save_binned_csv",
]

# Elements per chunk of the checks on ``EventTimes``.
_CHECK_CHUNK = 2**16

# Binomial stencil weights grow like 2^order, so the statistical value of
# going higher vanishes long before numerics do; orders above this are
# almost certainly a units mistake and are rejected.
MAX_ORDER = 20


def _fields_equal(self, other):
    """``==`` for the frozen dataclasses that hold arrays: the same class and
    equal fields, arrays compared by value (``np.array_equal``), where the
    generated ``__eq__`` asks an array of several elements for one truth
    value and raises."""
    if other.__class__ is not self.__class__:
        return NotImplemented
    for field in dataclasses.fields(self):
        mine, theirs = getattr(self, field.name), getattr(other, field.name)
        if not (np.array_equal(mine, theirs) if isinstance(mine, np.ndarray) else mine == theirs):
            return False
    return True


def _check_integer(value, name: str, low: int = 1, high: float = MAX_ORDER) -> int:
    """``value`` as an int in [low, high], bools rejected: the one rule on a
    whole number (an order k by default; a count, seed, stream or vertex id
    with its own bounds), naming ``name``."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < low:
        raise ValueError(f"{name} must be >= {low}, got {value}")
    if value > high:
        raise ValueError(f"{name} must be <= {high}, got {value}")
    return int(value)


def _real(value) -> float:
    """``value`` as a float when it is a real number (``numbers.Real``, numpy
    scalars included); NaN for a bool, an int beyond the float range and what
    is not a real number (None, ``"0.5"``), so the caller's test rejects it."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        return math.nan
    try:
        return float(value)
    except OverflowError:
        return math.nan


def _check_delta(delta, name: str = "delta") -> float:
    """``delta`` as a positive, finite float, bools and non-numbers (a numeric
    string too) rejected: one check."""
    value = _real(delta)
    if not (math.isfinite(value) and value > 0):
        raise ValueError(f"{name} must be positive and finite, got {delta!r}")
    return value


def _check_window(window, name: str = "window") -> float:
    """``window`` as a positive float, +inf included (it admits everything),
    bools and non-numbers, a numeric string too, rejected: the rule on a
    candidate window."""
    value = _real(window)
    if not value > 0:  # NaN fails too
        raise ValueError(f"{name} must be positive, got {window!r}")
    return value


def _check_finite(value, name: str, low: float = -math.inf) -> float:
    """``value`` as a finite float of at least ``low``, bools and
    non-numbers rejected: the rule on a rate shape's fields and a jump's
    onset, as ``_check_delta`` is on a step."""
    number = _real(value)
    if not (math.isfinite(number) and number >= low):
        floor = f" and >= {low:g}" if low > -math.inf else ""
        raise ValueError(f"{name} must be finite{floor}, got {value!r}")
    return number


def _check_interval(window) -> tuple:
    """``window`` as a (lo, hi) pair of finite floats with lo <= hi, bools,
    non-numbers and a sequence of other length rejected: the rule on an
    interval, a window, naming it."""
    lo, hi = (_real(end) for end in window) if len(window) == 2 else (math.nan, math.nan)
    if not (math.isfinite(lo) and math.isfinite(hi) and lo <= hi):
        raise ValueError(f"window must satisfy lo <= hi with both finite, got {window}")
    return lo, hi


def _check_indices(n: int, arcs: int, subject: str = "") -> None:
    """The one bound on a graph's size, before it is built: its int32 CSR
    indexes n vertices and the arcs, two per edge, so neither may exceed
    the int32 maximum.  ``subject`` leads the message."""
    if max(n, arcs) > np.iinfo(np.int32).max:
        raise ValueError(f"{subject}{n} vertices and {arcs} arcs do not fit int32 indices")


def _first_repeat(keys) -> "tuple[int, int] | None":
    """``(i, j)``: i the first position of ``keys``, in the order given,
    whose key an earlier position holds, and j the first position holding
    it; None when no key repeats.  The one search for a repeat: an edge
    listed twice, a vertex or a date.

    A sorted copy of the keys tells whether any repeats, so an answer of
    None costs one sort; only then does a stable argsort, which keeps each
    key's positions in order, say which.
    """
    ordered = np.sort(keys)
    same = ordered[1:] == ordered[:-1]
    if not same.any():
        return None
    order = np.argsort(keys, kind="stable")  # ordered is keys[order]
    i = int(order[np.flatnonzero(same) + 1].min())
    return i, int(order[np.searchsorted(ordered, keys[i])])


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


def _parse_number(text):
    """``text`` as an int, else a float, else unchanged, for a rule to reject
    by name: the one reading of a number from text, a file's field or a CLI
    flag.  ``int`` is tried where ``float`` reads a whole number or beyond
    the float range, so a whole number above 2**53 is exact; a fraction, the
    common case in a file of times, takes one parse and no exception."""
    try:
        number = float(text)
    except ValueError:
        return text
    if number.is_integer() or not math.isfinite(number):
        try:
            return int(text)
        except ValueError:
            pass
    return number


def _parse_count(text: str) -> int:
    """A file's count field (``_parse_number``) as an exact int of size
    below 2**63, forms like ``100.0`` too.  Negatives pass; each loader has
    its own rule for them.
    """
    value = _parse_number(text)
    if isinstance(value, str):
        raise ValueError(f"bad count {text!r}")
    problem = _count_problem(abs(value))
    if problem:
        raise ValueError(f"count {text!r} is {problem}")
    return int(value)


def _file_error(path, unit: str, line: int, message) -> ValueError:
    """The one form of an error in an input file: ``<path>: <unit> <line>:
    <message>``, or ``<path>: <message>`` for line 0, before any is read."""
    return ValueError(f"{path}: {unit} {line}: {message}" if line else f"{path}: {message}")


@contextlib.contextmanager
def _input_file(path, unit: str, line_num=None):
    """``path`` open for a loader: every input file is read through here.

    It is decoded as ``utf-8-sig``, so a leading byte-order mark is
    skipped, with ``newline=""``, as ``csv`` needs.  Given ``line_num``,
    the number of the file line the loader reads, every error raised while
    the file is open names that row, so a loader raises bare messages: a
    ``ValueError`` (a field's rule, naming the field) or a ``csv.Error``
    (such as a field over ``csv.field_size_limit()``) becomes ``<path>:
    <unit> N: ...`` (``_file_error``; no N before the first line is read,
    as in an empty file).  ``line_num`` is called on that error path only,
    so it may read a reader made inside the ``with``.  A byte that is not
    UTF-8 becomes ``<path>: <unit> N: <the line's own decode error>``, N
    the file line that holds the first: the error, raised by a read of a
    block of the file, says nothing of the line, so the open file is read
    again from its start, line by line, on this error path only.  A file
    that cannot seek back, such as a FIFO, is not opened again: its error
    is ``<path>: <decode error>``, with no line.
    """
    with open(path, "r", encoding="utf-8-sig", newline="") as fh:
        try:
            yield fh
        except UnicodeDecodeError as exc:  # a ValueError, so tested first
            if fh.seekable():
                fh.reconfigure(errors="surrogateescape")
                fh.seek(0)  # with a new decoder, which skips a byte-order mark again
                for lineno, line in enumerate(fh, 1):
                    try:
                        line.encode("utf-8", "surrogateescape").decode("utf-8")
                    except UnicodeDecodeError as line_exc:
                        raise _file_error(path, unit, lineno, line_exc) from None
            raise _file_error(path, unit, 0, exc) from None
        except (csv.Error, ValueError) as exc:
            if line_num is None:
                raise
            raise _file_error(path, unit, line_num(), exc) from None


def _write_lines(path, lines) -> None:
    """Write each of ``lines`` and a ``\\n`` to ``path``: every output file is
    written through here or ``_write_csv``, as UTF-8 with no newline translation."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.writelines(f"{line}\n" for line in lines)


def _write_csv(path, header, rows, notes=()) -> None:
    """Write a CSV to ``path``: a ``# note`` line per note, then ``header``
    and ``rows`` through ``csv.writer``; opened as ``_write_lines`` opens.
    Every line ends as ``csv.writer`` ends a row, in ``\\r\\n``."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.writelines(f"# {note}\r\n" for note in notes)
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _text_lines(lines):
    """``(number, line)`` for each line of a text format, stripped, numbered
    from 1; blank lines and lines starting with ``#`` are left out."""
    for lineno, raw in enumerate(lines, 1):
        line = raw.strip()
        if line and not line.startswith("#"):
            yield lineno, line


def _blank_row(row) -> bool:
    """Whether a CSV row is empty or one field of blanks, a line that holds
    nothing: every CSV loader skips it, as ``_text_lines`` skips a blank
    line, and numbers its other rows by file line all the same."""
    return not row or (len(row) == 1 and not row[0].strip())


def _pair_chunks(times: np.ndarray):
    """``times`` in ``_CHECK_CHUNK`` pieces that overlap by one element, so
    that the pieces' neighbouring pairs are all of the times' pairs."""
    return (times[i:i + _CHECK_CHUNK + 1] for i in range(0, times.size - 1, _CHECK_CHUNK))


@dataclass(frozen=True)
class EventTimes:
    """A sorted sequence of event timestamps on [0, horizon].

    ``times`` must be non-decreasing (duplicates are allowed: simultaneous
    events are legal) and contained in ``[0, horizon]``.
    """

    times: np.ndarray
    horizon: float

    __eq__ = _fields_equal

    def __post_init__(self) -> None:
        times = np.ascontiguousarray(self.times, dtype=np.float64)
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "horizon", _check_finite(self.horizon, "horizon", 0.0))
        if times.ndim != 1:
            raise ValueError("times must be a one-dimensional array")
        # one pass proves the times finite, sorted and in range: a NaN fails a
        # pair, or the test of the first or last time.  Chunk by chunk, so no
        # boolean temporary is the size of the times.  On a failure the three
        # checks run one by one, so that the message names the first fault.
        if times.size and not (
                times[0] >= 0.0 and times[-1] <= self.horizon
                and all((chunk[1:] >= chunk[:-1]).all() for chunk in _pair_chunks(times))):
            if not all(np.isfinite(times[i:i + _CHECK_CHUNK]).all()
                       for i in range(0, times.size, _CHECK_CHUNK)):
                raise ValueError("event times must all be finite")
            if any((chunk[1:] < chunk[:-1]).any() for chunk in _pair_chunks(times)):
                raise ValueError("event times must be sorted in non-decreasing order")
            if times[0] < 0.0 or times[-1] > self.horizon:
                raise ValueError(
                    f"event times must lie in [0, {self.horizon}]; "
                    f"got range [{times[0]}, {times[-1]}]"
                )

    def __len__(self) -> int:
        return int(self.times.size)

    def count_at(self, t):
        """N(t): number of events with time <= t.  Vectorized over t; a NaN t
        is a ValueError."""
        if np.isnan(t).any():
            raise ValueError("N is not defined at t = nan")
        return np.searchsorted(self.times, t, side="right")


@dataclass(frozen=True)
class SampledCounts:
    """N known only at some times: ``counts[i]`` = N(``times[i]``).

    ``times`` rise strictly from 0 to ``horizon``, and ``counts`` never fall.
    ``count_at`` clamps t to [0, horizon] (no event lies outside it) and then
    reads N only at one of ``times`` or within 1e-12 * max(1, |t|) of one
    (the rounding of a lattice time p * 0.3 against a knot 3p * 0.1): any
    other t is a ValueError naming it, since N is not known there.
    ``len()`` is N(horizon), the total count.
    """

    times: np.ndarray
    counts: np.ndarray
    horizon: float

    __eq__ = _fields_equal

    def __post_init__(self) -> None:
        times = np.ascontiguousarray(self.times, dtype=np.float64)
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "counts", _as_counts(self.counts))
        object.__setattr__(self, "horizon", _check_finite(self.horizon, "horizon", 0.0))
        if times.ndim != 1 or times.shape != self.counts.shape:
            raise ValueError("times and counts must be one-dimensional arrays of one length")
        if not (times.size and times[0] == 0.0 and times[-1] == self.horizon
                and np.all(times[1:] > times[:-1])):
            raise ValueError(f"times must rise strictly from 0 to the horizon, {self.horizon}")
        if np.any(self.counts[1:] < self.counts[:-1]):
            raise ValueError("counts must be non-decreasing")

    def __len__(self) -> int:
        return int(self.counts[-1])

    def count_at(self, t):
        """N(t), vectorized; ValueError at a t off the knots, NaN included."""
        t = np.clip(np.asarray(t, dtype=np.float64), 0.0, self.horizon)
        i = np.minimum(np.searchsorted(self.times, t), self.times.size - 1)
        if (self.times[i] != t).any():
            # a t off a knot by rounding alone reads that knot
            before = np.maximum(i - 1, 0)
            near = np.where(t - self.times[before] < self.times[i] - t, before, i)
            far = ~(np.abs(self.times[near] - t) <= 1e-12 * np.maximum(1.0, np.abs(t)))  # NaN too
            if far.any():
                raise ValueError(
                    f"N is known only at its knots, not at t = {float(t[far].flat[0])!r}")
            i = near
        return self.counts[i]


@dataclass(frozen=True)
class BinnedSeries:
    """Non-negative integer event counts in contiguous uniform bins.

    Bin i covers ``[start_time + i*bin_width, start_time + (i+1)*bin_width)``.
    """

    bin_width: float
    counts: np.ndarray
    start_time: float = 0.0

    __eq__ = _fields_equal

    def __post_init__(self) -> None:
        object.__setattr__(self, "bin_width", _check_delta(self.bin_width, "bin_width"))
        object.__setattr__(self, "counts", _as_counts(self.counts))
        object.__setattr__(self, "start_time", _check_finite(self.start_time, "start_time"))

    def __len__(self) -> int:
        return int(self.counts.size)

    @property
    def horizon(self) -> float:
        return self.start_time + len(self) * self.bin_width


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


def from_binned(series: BinnedSeries) -> SampledCounts:
    """N known at the bin edges, measured from the series' first edge: the
    knots are ``i * bin_width`` for i = 0..len(series), and N there is 0
    followed by ``cumulative(series)``."""
    times = np.arange(len(series) + 1) * series.bin_width
    return SampledCounts(times, np.concatenate(([0], cumulative(series))), times[-1])


def bin_events(events: EventTimes, bin_width: float) -> BinnedSeries:
    """Bin event times: counts[i] = #events in [i*w, (i+1)*w), the last bin
    closed at the horizon, which the bins must tile (``_bin_count``).

    With no event exactly on an inner bin edge, ``from_binned(bin_events(e, w))``
    agrees with ``e.count_at`` at every bin edge.  (An event exactly on an
    inner edge belongs to the right-hand bin here but to the left-closed count
    under the N(t) convention; measure-zero for continuous samples.)
    """
    n_bins = _bin_count(events.horizon, bin_width)
    idx = np.searchsorted(events.times, np.arange(n_bins + 1) * bin_width, side="left")
    idx[-1] = len(events)
    return BinnedSeries(bin_width=bin_width, counts=np.diff(idx))


def _bin_count(horizon: float, bin_width: float) -> int:
    """The number of bins of ``bin_width``, a step (``_check_delta``), that tile [0, horizon].

    A binned file states its width only as the gap between bin starts, so
    fewer than two bins is an error naming the width and the horizon; so is
    a width that does not cut the horizon into whole bins, up to rounding,
    since a part bin at the end would read as a fall in the rate.  So is a
    count of bins whose float64 edges numpy could not index in one array.
    """
    bin_width = _check_delta(bin_width, "bin_width")
    if not horizon / bin_width < np.iinfo(np.intp).max // 8:
        raise ValueError(f"bin width {bin_width!r} leaves too many bins on horizon {horizon!r}")
    n_bins = round(horizon / bin_width)
    if n_bins < 2 or abs(n_bins * bin_width - horizon) > 1e-12 * max(1.0, horizon):
        what = "fewer than two bins" if n_bins < 2 else "a part bin at its end"
        raise ValueError(f"bin width {bin_width!r} leaves {what} on horizon {horizon!r}")
    return n_bins


# ---------------------------------------------------------------------------
# file formats


def load_event_times(path, horizon: "float | None" = None) -> EventTimes:
    """Read event times from a text file: one timestamp per line.

    Blank lines and lines starting with ``#`` are ignored, and so is a
    leading byte-order mark.  Timestamps are sorted on load.  ``horizon``
    defaults to the largest timestamp.  A line that is not a finite,
    non-negative number (``_check_finite``, as the field ``timestamp``), or
    that holds a byte that is not UTF-8, raises a ValueError naming the file
    line.
    """
    values = []
    with _input_file(path, "line", lambda: lineno) as fh:
        for lineno, line in _text_lines(fh):
            values.append(_check_finite(_parse_number(line), "timestamp", 0.0))
    times = np.sort(np.asarray(values, dtype=np.float64))
    if horizon is None:
        horizon = float(times[-1]) if times.size else 0.0
    return EventTimes(times=times, horizon=horizon)


def save_event_times(events: EventTimes, path) -> None:
    """Write event times as one timestamp per line with a comment header."""
    _write_lines(path, itertools.chain([f"# event times, horizon={float(events.horizon)!r}"],
                                       map(repr, events.times.tolist())))


def load_binned_csv(path) -> BinnedSeries:
    """Read a binned series from CSV with header ``bin_start,count``.

    Bins must be contiguous and uniform, and at least two, since the width
    is the gap between starts, read as the shortest decimal, else the mean
    gap, that gives every start as ``save_binned_csv`` computes it, so a saved
    width and horizon come back exactly; counts must be non-negative integers.
    Errors name the offending row by its file line (``reader.line_num``),
    so blank lines count.
    """
    starts = []
    counts = []
    lines = []  # the file line of each kept row
    with _input_file(path, "row", lambda: reader.line_num) as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [h.strip().lower() for h in header[:2]] != ["bin_start", "count"]:
            raise ValueError(f"expected header 'bin_start,count', got {header}")
        for row in itertools.filterfalse(_blank_row, reader):
            lines.append(reader.line_num)
            if len(row) < 2:
                raise ValueError(f"expected 2 fields, got {len(row)}")
            starts.append(_check_finite(_parse_number(row[0]), "bin_start"))
            counts.append(_check_integer(_parse_count(row[1]), "count", low=0, high=math.inf))
    if not starts:
        raise ValueError(f"{path}: no data rows")
    if len(starts) == 1:
        raise ValueError(f"{path}: one data row, but the bin width needs at least two rows")
    widths = np.diff(starts)
    width = widths[0]
    if width <= 0 or not np.allclose(widths, width, rtol=1e-9, atol=1e-12):
        bad = int(np.argmax(~np.isclose(widths, width, rtol=1e-9, atol=1e-12)))
        raise ValueError(
            f"{path}: bins are not contiguous/uniform near row {lines[bad + 1]} "
            f"(gap {float(widths[bad])!r} vs width {float(width)!r})"
        )
    # the width as saved: the shortest decimal, else the mean gap, whose multiples
    # give every start bit for bit (0.1 from 3.3, 1/3 from 7.7), else the first gap
    mean_gap = (starts[-1] - starts[0]) / (len(starts) - 1)
    width = next((w for w in [*(float(f"{width:.{d}g}") for d in range(1, 17)), mean_gap]
                  if np.array_equal(starts[0] + np.arange(len(starts)) * w, starts)), width)
    return BinnedSeries(bin_width=float(width), counts=np.asarray(counts), start_time=starts[0])


def save_binned_csv(series: BinnedSeries, path) -> None:
    """Write a binned series as CSV with header ``bin_start,count``."""
    _write_csv(path, ["bin_start", "count"],
               ([repr(float(series.start_time + i * series.bin_width)), int(c)]
                for i, c in enumerate(series.counts)))
