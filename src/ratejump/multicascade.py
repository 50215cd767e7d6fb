"""Locating a high-degree vertex from several cascades on the same graph.

Each cascade's infection counting process shows a rate jump roughly when
the high-degree vertex is infected.  Per cascade we detect jump times,
collect every vertex infected within a window of any detected time, and
intersect the per-cascade candidate sets: the hub is infected near a
detected time in every cascade, while ordinary vertices survive K
independent intersections only by chance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .detector import DetectorConfig, detect
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
    """Vertices infected within ``window`` of any detected change time.

    ``window=inf`` admits every vertex; an empty ``change_times`` gives an
    empty set.
    """
    if not (window > 0):
        raise ValueError(f"window must be positive, got {window}")
    change_times = list(change_times)
    if not change_times:
        return set()
    if math.isinf(window):
        return set(range(trace.n))
    times = trace.times
    mask = np.zeros(trace.n, dtype=bool)
    for t in change_times:
        mask |= np.abs(times - t) <= window
    return set(np.flatnonzero(mask).tolist())


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
    window: "float | None" = None,
) -> MulticascadeReport:
    """Detect per cascade, then intersect the candidate vertex sets.

    ``window`` defaults to k * delta (the detector's own time resolution).
    The result is a subset of every per-cascade candidate set and can only
    shrink as cascades are added.  A cascade whose window holds no grid
    point is ``detect``'s ValueError.
    """
    if window is None:
        window = config.k * config.delta
    surviving = None
    all_times = []
    sizes = []
    for trace in bundle.traces:
        counting = infection_count_process(trace)
        report = detect(counting, config)
        times_hat = report.times
        all_times.append(tuple(times_hat))
        cands = candidate_vertices(trace, times_hat, window)
        sizes.append(len(cands))
        surviving = cands if surviving is None else (surviving & cands)
        if not surviving:
            surviving = set()
            # later cascades cannot resurrect anything, but keep their
            # provenance: continue detecting for the report
    return MulticascadeReport(
        vertices=frozenset(surviving),
        window=float(window),
        config=config,
        change_times=tuple(all_times),
        candidate_sizes=tuple(sizes),
    )


def save_multicascade_report(report: MulticascadeReport, path) -> None:
    """Write estimated vertex ids (one per line) plus a provenance trailer."""
    with open(path, "w", encoding="utf-8") as fh:
        for v in sorted(report.vertices):
            fh.write(f"{v}\n")
        fh.write(f"# n_vertices={len(report.vertices)}\n")
        fh.write(f"# window={report.window!r}\n")
        fh.write(f"# k={report.config.k} delta={report.config.delta!r} ")
        mode = "argmax-single" if report.config.threshold is None else "threshold"
        fh.write(f"mode={mode}\n")
        for i, (times, size) in enumerate(zip(report.change_times, report.candidate_sizes)):
            shown = ",".join(repr(t) for t in times)
            fh.write(f"# cascade {i}: change_times=[{shown}] candidates={size}\n")
