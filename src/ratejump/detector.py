"""Change-point detection from a discrete-derivative profile.

Pipeline: evaluate the order-k derivative of the counting process on a
grid, normalize by delta to get a score, keep grid points whose score
clears half the expected jump size, then thin the survivors to a packing
with pairwise separation > 2*k*delta so each true jump is reported once.
With no threshold (exploratory mode) the single best-scoring grid point
is reported instead.

N is read on [0, T] with T its own ``horizon`` (the end of the observed
data), so the stencil never reaches past the data; there is no override.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .derivative import STEPS_PER_DELTA, _check_delta, _check_order, derivative_profile

__all__ = [
    "DetectorConfig",
    "Estimate",
    "ChangePointReport",
    "detect",
    "argmax_single",
    "d_max",
    "suggest_delta",
    "min_order_for",
    "save_report_csv",
]


@dataclass(frozen=True)
class DetectorConfig:
    """Parameters of one detection run.

    ``threshold`` is the expected jump size A (> 0); grid points scoring
    at least A/2 become candidates.  ``threshold=None`` selects
    exploratory mode: report only the single highest-scoring grid point.
    The profile's grid step is delta / ``steps_per_delta``, a whole number.
    """

    k: int
    delta: float
    threshold: "float | None" = None
    steps_per_delta: int = STEPS_PER_DELTA

    def __post_init__(self) -> None:
        # the checked values are stored: a string such as '0.5' becomes 0.5
        object.__setattr__(self, "k", _check_order(self.k, "k"))
        object.__setattr__(self, "delta", _check_delta(self.delta, "delta"))
        if self.threshold is not None:
            object.__setattr__(self, "threshold", _check_delta(self.threshold, "threshold"))
        object.__setattr__(self, "steps_per_delta", _check_order(
            self.steps_per_delta, "steps_per_delta", limit=math.inf))

    @property
    def min_sep(self) -> float:
        """Packing separation: two estimates closer than this are merged."""
        return 2.0 * self.k * self.delta


class Estimate(NamedTuple):
    """One reported change point: time, score |D|/delta, raw stencil value."""

    time: float
    score: float
    raw: float


@dataclass(frozen=True)
class ChangePointReport:
    """Detection output plus the grid metadata needed to reproduce it."""

    estimates: tuple
    k: int
    delta: float
    steps_per_delta: int
    window: tuple
    threshold: "float | None"
    min_sep: float
    n_grid: int
    candidate_count: int

    def __post_init__(self) -> None:
        times = [e.time for e in self.estimates]
        if any(t2 - t1 <= self.min_sep * (1 - 1e-12) for t1, t2 in zip(times, times[1:])):
            raise ValueError(
                f"estimates violate pairwise separation > {self.min_sep}: {times}"
            )
        if self.threshold is not None:
            floor = self.threshold / 2.0
            for e in self.estimates:
                if e.score < floor * (1 - 1e-12):
                    raise ValueError(
                        f"estimate score {e.score} below threshold/2 = {floor}"
                    )

    @property
    def times(self) -> list:
        return [e.time for e in self.estimates]

    def __len__(self) -> int:
        return len(self.estimates)


def _candidates(profile, delta: float, threshold: "float | None"):
    """Scores |value|/delta and the indices of the candidate grid points:
    those clearing threshold/2, or with no threshold the single best."""
    scores = np.abs(profile.values) / delta
    if threshold is None:
        return scores, np.asarray([profile.argmax()], dtype=np.int64)
    return scores, np.flatnonzero(scores >= threshold / 2.0)


def _packing_indices(times: np.ndarray, scores: np.ndarray, min_sep: float) -> list:
    """Indices of a maximum-cardinality packing with gaps > min_sep.

    Among maximum packings the one with the largest total score is chosen
    (count-first, score-second dynamic program over the time-sorted
    candidates); remaining ties resolve to the earliest times, so the
    output is deterministic.
    """
    n = len(times)
    if n == 0:
        return []
    # js[i]: a first guess at the last index j with times[i] - times[j] > min_sep,
    # the gap ChangePointReport checks; times[i] - min_sep can round either way
    js = np.searchsorted(times, times - min_sep, side="left") - 1
    t = times.tolist()
    f_count = np.zeros(n, dtype=np.int64)
    f_score = np.zeros(n)
    parent = np.full(n, -1, dtype=np.int64)
    # prefix-best over f[0..i], lexicographic (count, score), earliest on ties
    bc = np.zeros(n, dtype=np.int64)
    bs = np.zeros(n)
    bi = np.zeros(n, dtype=np.int64)
    for i in range(n):
        j = int(js[i])
        # settle the guess on the exact gap, a block of equal times at a time
        while j + 1 < i and t[i] - t[j + 1] > min_sep:
            j = int(np.searchsorted(times, t[j + 1], side="right")) - 1
        while j >= 0 and not t[i] - t[j] > min_sep:
            j = int(np.searchsorted(times, t[j], side="left")) - 1
        if j >= 0:
            f_count[i] = bc[j] + 1
            f_score[i] = bs[j] + scores[i]
            parent[i] = bi[j]
        else:
            f_count[i] = 1
            f_score[i] = scores[i]
        if i == 0 or (f_count[i], f_score[i]) > (bc[i - 1], bs[i - 1]):
            bc[i], bs[i], bi[i] = f_count[i], f_score[i], i
        else:
            bc[i], bs[i], bi[i] = bc[i - 1], bs[i - 1], bi[i - 1]
    chosen = []
    i = int(bi[n - 1])
    while i >= 0:
        chosen.append(i)
        i = int(parent[i])
    chosen.reverse()
    return chosen


def detect(N, config: DetectorConfig) -> ChangePointReport:
    """Run the full detection pipeline on a counting process.  In either mode
    a window that holds no grid point is the profile's ValueError."""
    profile = derivative_profile(N, config.k, config.delta, config.steps_per_delta)
    scores, keep = _candidates(profile, config.delta, config.threshold)
    chosen = keep if config.threshold is None else keep[
        _packing_indices(profile.times[keep], scores[keep], config.min_sep)]
    return ChangePointReport(
        estimates=tuple(
            Estimate(float(profile.times[i]), float(scores[i]), float(profile.values[i]))
            for i in chosen
        ),
        k=config.k,
        delta=config.delta,
        steps_per_delta=config.steps_per_delta,
        window=profile.window,
        threshold=config.threshold,
        min_sep=config.min_sep,
        n_grid=len(profile),
        candidate_count=int(keep.size),
    )


def argmax_single(N, k: int, delta: float, steps_per_delta: int = STEPS_PER_DELTA) -> float:
    """Time of the largest |order-k derivative| on the grid (earliest on ties)."""
    profile = derivative_profile(N, k, delta, steps_per_delta)
    return float(profile.times[profile.argmax()])


def d_max(estimates, truths) -> float:
    """Largest |s_(i) - t_(i)| after sorting both sets; 0 when both empty."""
    s = np.sort(np.asarray(list(estimates), dtype=np.float64))
    t = np.sort(np.asarray(list(truths), dtype=np.float64))
    if s.size != t.size:
        raise ValueError(f"size mismatch: {s.size} estimates vs {t.size} truths")
    if s.size == 0:
        return 0.0
    return float(np.max(np.abs(s - t)))


def suggest_delta(sample_size: float, order: int) -> float:
    """Step-size heuristic delta = S^(-1/(2*order+1)) for sample size S."""
    if not (sample_size > 1):
        raise ValueError(f"sample_size must exceed 1, got {sample_size}")
    order = _check_order(order)
    return float(sample_size) ** (-1.0 / (2 * order + 1))


def min_order_for(theta: float) -> int:
    """Smallest order l with (l+1)/(2l+1) < theta, for theta in (1/2, 1).

    The ratio decreases from 2/3 toward 1/2, so thetas at or below 1/2 are
    unreachable by any finite order.
    """
    if not (0.5 < theta < 1.0):
        raise ValueError(
            f"theta must lie in (1/2, 1); got {theta}"
            + (" (no finite order attains theta <= 1/2)" if theta <= 0.5 else "")
        )
    order = 1
    while (order + 1) / (2 * order + 1) >= theta:
        order += 1
    return order


def save_report_csv(report: ChangePointReport, path) -> None:
    """Write estimates as ``t_hat,score`` CSV plus a key=value ``<path>.meta`` sidecar."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t_hat", "score"])
        for e in report.estimates:
            writer.writerow([repr(e.time), repr(e.score)])
    with open(str(path) + ".meta", "w", encoding="utf-8") as fh:
        fh.write(f"k={report.k}\n")
        fh.write(f"delta={report.delta!r}\n")
        fh.write(f"steps_per_delta={report.steps_per_delta}\n")
        fh.write(f"threshold={'' if report.threshold is None else repr(report.threshold)}\n")
        fh.write(f"mode={'argmax-single' if report.threshold is None else 'threshold'}\n")
        fh.write(f"min_sep={report.min_sep!r}\n")
        fh.write(f"window_lo={report.window[0]!r}\n")
        fh.write(f"window_hi={report.window[1]!r}\n")
        fh.write(f"n_grid={report.n_grid}\n")
        fh.write(f"candidate_count={report.candidate_count}\n")
        fh.write(f"n_estimates={len(report.estimates)}\n")
