"""Splittable, reproducible random streams.

Every stochastic routine in the package accepts a ``SimSeed`` (or a plain
integer, which is promoted to ``SimSeed(seed, stream=0)``).  Generators are
derived through numpy's ``SeedSequence`` spawn keys, so distinct
(seed, stream) pairs give statistically independent streams and the same
pair always reproduces the same draws, regardless of scheduling or worker
count.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["SimSeed", "as_seed", "generator"]


def _check_seed(value, name: str) -> None:
    """The one rule on a seed or stream index: a non-negative integer, bools
    rejected; errors name ``name``."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < 0:
        raise ValueError(f"{name} must be non-negative, got {value}")


@dataclass(frozen=True)
class SimSeed:
    """Names one reproducible random stream as a (seed, stream) pair."""

    seed: int
    stream: int = 0

    def __post_init__(self) -> None:
        _check_seed(self.seed, "seed")
        _check_seed(self.stream, "stream")

    def split(self, *path: int) -> np.random.Generator:
        """Return the generator for this stream, refined by an integer path.

        ``split()`` with no arguments is the stream's own generator;
        ``split(i, j)`` derives an independent sub-stream.  The mapping is
        pure: equal inputs give bit-identical generators.
        """
        ss = np.random.SeedSequence(self.seed, spawn_key=(self.stream, *path))
        return np.random.Generator(np.random.PCG64(ss))


def as_seed(seed: "SimSeed | int") -> SimSeed:
    """Promote a plain integer to ``SimSeed(seed, stream=0)``."""
    return seed if isinstance(seed, SimSeed) else SimSeed(seed)


def generator(seed: "SimSeed | int", *path: int) -> np.random.Generator:
    """Shorthand for ``as_seed(seed).split(*path)``."""
    return as_seed(seed).split(*path)
