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

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .derivative import DerivativeProfile, derivative_profile
from .process import _check_delta, _check_finite, _check_integer, _write_csv

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
    "save_profile_csv",
]


@dataclass(frozen=True)
class DetectorConfig:
    """Parameters of one detection run.

    ``threshold`` is the expected jump size A (> 0); grid points scoring
    at least A/2 become candidates.  ``threshold=None`` selects
    exploratory mode: report only the single highest-scoring grid point.
    The profile's grid step is the one N sets (``derivative_profiles``).
    """

    k: int
    delta: float
    threshold: "float | None" = None

    def __post_init__(self) -> None:
        # the checked values are stored: a string such as '0.5' becomes 0.5
        object.__setattr__(self, "k", _check_integer(self.k, "k"))
        object.__setattr__(self, "delta", _check_delta(self.delta, "delta"))
        if self.threshold is not None:
            object.__setattr__(self, "threshold", _check_delta(self.threshold, "threshold"))

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
    """Detection output: the estimates, the config that made them, and the
    profile ``detect`` read them from, off which the grid's window, size
    and candidate count are read."""

    estimates: tuple
    config: DetectorConfig
    profile: DerivativeProfile = field(repr=False, compare=False)

    def __post_init__(self) -> None:
        min_sep, threshold = self.config.min_sep, self.config.threshold
        times = [e.time for e in self.estimates]
        for t1, t2 in zip(times, times[1:]):
            # exact, as in _packing_indices: a gap of min_sep or less fails
            if not t2 - t1 > min_sep:
                raise ValueError(
                    f"estimates at {t1!r} and {t2!r} violate pairwise separation "
                    f"> min_sep = {min_sep!r}"
                )
        if threshold is not None:
            floor = threshold / 2.0
            for e in self.estimates:
                # exact, as in _candidates: a score below threshold/2 fails
                if not e.score >= floor:
                    raise ValueError(
                        f"estimate score {e.score} below threshold/2 = {floor}"
                    )

    @property
    def times(self) -> list:
        return [e.time for e in self.estimates]

    @property
    def window(self) -> tuple:
        return self.profile.window

    @property
    def n_grid(self) -> int:
        return len(self.profile)

    @property
    def candidate_count(self) -> int:
        """Grid points clearing threshold/2, or 1 in argmax mode."""
        return int(_candidates(self.profile, self.config.delta, self.config.threshold)[1].size)

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
    t = times.tolist()
    # best[i]: (count, score, last index) of the best packing of candidates 0..i-1
    best, parent = [(0, 0.0, -1)], []
    j = 0  # candidates 0..j-1 lie more than min_sep before t[i]
    for i, score in enumerate(scores.tolist()):
        # the gap ChangePointReport checks, exactly; it only grows with i
        while t[i] - t[j] > min_sep:
            j += 1
        count, total, last = best[j]
        parent.append(last)
        mine = (count + 1, total + score, i)
        best.append(mine if mine[:2] > best[i][:2] else best[i])
    chosen, i = [], best[-1][2]
    while i >= 0:
        chosen.append(i)
        i = parent[i]
    return chosen[::-1]


def detect(N, config: DetectorConfig) -> ChangePointReport:
    """Run the full detection pipeline on a counting process.  In either mode
    a window that holds no grid point is the profile's ValueError."""
    profile = derivative_profile(N, config.k, config.delta)
    scores, keep = _candidates(profile, config.delta, config.threshold)
    chosen = keep if config.threshold is None else keep[
        _packing_indices(profile.times[keep], scores[keep], config.min_sep)]
    return ChangePointReport(
        estimates=tuple(
            Estimate(float(profile.times[i]), float(scores[i]), float(profile.values[i]))
            for i in chosen
        ),
        config=config,
        profile=profile,
    )


def argmax_single(N, k: int, delta: float) -> float:
    """Time of the largest |order-k derivative| on the grid N sets (earliest
    on ties): the estimate of ``detect`` with no threshold."""
    profile = derivative_profile(N, k, delta)
    return float(profile.times[profile.argmax()])


def d_max(estimates, truths) -> float:
    """Largest |s_(i) - t_(i)| after sorting both sets; 0 when both empty.
    Each entry must be a finite real number (``_check_finite``)."""
    s, t = (np.sort([_check_finite(x, f"{name}[{i}]") for i, x in enumerate(values)])
            for name, values in (("estimates", estimates), ("truths", truths)))
    if s.size != t.size:
        raise ValueError(f"size mismatch: {s.size} estimates vs {t.size} truths")
    if s.size == 0:
        return 0.0
    return float(np.max(np.abs(s - t)))


def suggest_delta(sample_size: float, order: int) -> float:
    """Step-size heuristic delta = S^(-1/(2*order+1)) for sample size S."""
    if not (sample_size > 1):
        raise ValueError(f"sample_size must exceed 1, got {sample_size}")
    order = _check_integer(order, "order")
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


def save_report_csv(report: ChangePointReport, path, start: float) -> None:
    """Write the estimates as a ``t_hat,score`` CSV, each time plus
    ``start``: the time of N's 0 on the input's clock."""
    _write_csv(path, ["t_hat", "score"],
               ([repr(e.time + start), repr(e.score)] for e in report.estimates))


def save_profile_csv(profile: DerivativeProfile, path, start: float) -> None:
    """Write the profile as a ``t,value`` CSV, each time plus ``start``: the
    time of N's 0 on the input's clock."""
    _write_csv(path, ["t", "value"], ([repr(t + start), repr(v)] for t, v in profile.pairs()))
