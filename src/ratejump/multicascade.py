"""Locating a high-degree vertex from several cascades on the same graph.

Each cascade's infection counting process shows a rate jump roughly when
the high-degree vertex is infected.  Per cascade we detect jump times,
collect every vertex infected within a window of any detected time, and
intersect the per-cascade candidate sets: the hub is infected near a
detected time in every cascade, while ordinary vertices survive K
independent intersections only by chance.

The window has no default: the caller passes it (the ``multicascade-tree``
preset's is 0.04), and one rule reads it, refusing a value that is not a
positive number, bools included, by name; +inf admits every vertex.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .detector import DetectorConfig, detect
from .process import _check_finite, _check_window, _write_lines
from .si import CascadeTrace, infection_count_process

__all__ = [
    "CascadeBundle",
    "MulticascadeReport",
    "candidate_vertices",
    "estimate_high_degree",
    "save_multicascade_report",
]


@dataclass(frozen=True)
class CascadeBundle:
    """K >= 1 cascade traces over the same vertex set."""

    traces: tuple

    def __post_init__(self) -> None:
        traces = tuple(self.traces)
        object.__setattr__(self, "traces", traces)
        if len(traces) < 1:
            raise ValueError("bundle needs at least one cascade")
        sizes = {t.n for t in traces}
        if len(sizes) != 1:
            raise ValueError(f"cascades disagree on vertex count: {sorted(sizes)}")


def candidate_vertices(trace: CascadeTrace, change_times, window: float) -> set:
    """Vertices infected within ``window`` of any detected change time:
    those with ``|times - t| <= window`` for some t.

    ``window=inf`` admits every vertex; an empty ``change_times`` gives an
    empty set, and one that is not finite is an error naming
    ``change_times[i]``.  The mask of candidates, one byte a vertex, is built a chunk
    of ``_MASK_CHUNK`` vertices at a time, every change time tested against
    a chunk while it is in cache, so no float array of n is made.
    """
    window = _check_window(window)
    change_times = [_check_finite(t, f"change_times[{i}]") for i, t in enumerate(change_times)]
    if not change_times:
        return set()
    times = trace.times
    mask = np.zeros(trace.n, dtype=bool)
    gap = np.empty(min(trace.n, _MASK_CHUNK))  # |times - t| of one chunk
    hit = np.empty(gap.size, dtype=bool)
    for start in range(0, trace.n, _MASK_CHUNK):
        chunk = times[start:start + _MASK_CHUNK]
        chunk_gap, chunk_hit = gap[:chunk.size], hit[:chunk.size]
        chunk_mask = mask[start:start + chunk.size]
        for t in change_times:
            np.subtract(chunk, t, out=chunk_gap)
            np.abs(chunk_gap, out=chunk_gap)
            np.less_equal(chunk_gap, window, out=chunk_hit)
            chunk_mask |= chunk_hit
    return set(np.flatnonzero(mask).tolist())


# candidate_vertices tests this many vertices at a time: a chunk's float
# buffer is 512 KB, which stays in a core's L2 cache.  On a cascade of the
# 532k-vertex benchmark tree with three change times (median of 15, 2 shared
# x86-64 cores, numpy 2.4) it takes 1.2-1.5 ms, against 2.1 ms at 2**18 and
# 2.4 ms for a float buffer of n.
_MASK_CHUNK = 2 ** 16


@dataclass(frozen=True)
class MulticascadeReport:
    """Intersection estimate plus per-cascade provenance."""

    vertices: frozenset
    window: float
    config: DetectorConfig
    change_times: tuple  # per cascade: tuple of detected times
    candidate_sizes: tuple  # per cascade: |candidate set|

    def __len__(self) -> int:
        return len(self.vertices)


def estimate_high_degree(
    bundle: CascadeBundle,
    config: DetectorConfig,
    window: float,
) -> MulticascadeReport:
    """Detect per cascade, then intersect the sets of vertices infected
    within ``window`` of a detected time (``candidate_vertices``).

    The result is a subset of every per-cascade candidate set and can only
    shrink as cascades are added.  A cascade whose window holds no grid
    point is ``detect``'s ValueError.
    """
    window = _check_window(window)
    surviving = None
    all_times = []
    sizes = []
    for trace in bundle.traces:
        # no name holds a cascade's sorted copy while the next one is sorted
        times_hat = detect(infection_count_process(trace), config).times
        all_times.append(tuple(times_hat))
        cands = candidate_vertices(trace, times_hat, window)
        sizes.append(len(cands))
        # an empty intersection stays empty, but later cascades are still
        # detected, for the report's provenance
        surviving = cands if surviving is None else (surviving & cands)
    return MulticascadeReport(
        vertices=frozenset(surviving),
        window=float(window),
        config=config,
        change_times=tuple(all_times),
        candidate_sizes=tuple(sizes),
    )


def save_multicascade_report(report: MulticascadeReport, path) -> None:
    """Write estimated vertex ids (one per line) plus a provenance trailer."""
    mode = "argmax-single" if report.config.threshold is None else "threshold"
    _write_lines(path, [
        *sorted(report.vertices),
        f"# n_vertices={len(report.vertices)}",
        f"# window={report.window!r}",
        f"# k={report.config.k} delta={report.config.delta!r} mode={mode}",
        *(f"# cascade {i}: change_times=[{','.join(map(repr, times))}] candidates={size}"
          for i, (times, size) in enumerate(zip(report.change_times, report.candidate_sizes))),
    ])
