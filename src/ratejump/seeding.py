"""Splittable, reproducible random streams.

Every stochastic routine in the package accepts a ``SimSeed`` (or a plain
integer, which is promoted to ``SimSeed(seed, stream=0)``).  Generators are
derived through numpy's ``SeedSequence`` spawn keys, so distinct
(seed, stream) pairs give statistically independent streams and the same
pair always reproduces the same draws, regardless of scheduling or worker
count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .process import _check_integer

__all__ = ["SimSeed", "as_seed", "generator"]


@dataclass(frozen=True)
class SimSeed:
    """Names one reproducible random stream as a (seed, stream) pair."""

    seed: int
    stream: int = 0

    def __post_init__(self) -> None:
        _check_integer(self.seed, "seed", low=0, high=math.inf)
        _check_integer(self.stream, "stream", low=0, high=math.inf)

    def split(self, *path: int) -> np.random.Generator:
        """Return the generator for this stream, refined by an integer path.

        ``split()`` with no arguments is the stream's own generator;
        ``split(i, j)`` derives an independent sub-stream.  The mapping is
        pure: equal inputs give bit-identical generators.  Each entry
        ``path[i]`` is a non-negative integer.
        """
        for i, step in enumerate(path):
            _check_integer(step, f"path[{i}]", low=0, high=math.inf)
        ss = np.random.SeedSequence(self.seed, spawn_key=(self.stream, *path))
        return np.random.Generator(np.random.PCG64(ss))


def as_seed(seed: "SimSeed | int") -> SimSeed:
    """Promote a plain integer to ``SimSeed(seed, stream=0)``."""
    return seed if isinstance(seed, SimSeed) else SimSeed(seed)


def generator(seed: "SimSeed | int | np.random.Generator") -> np.random.Generator:
    """Shorthand for ``as_seed(seed).split()``; a numpy Generator is returned
    as it is, so its draws go on where they left off."""
    if isinstance(seed, np.random.Generator):
        return seed
    return as_seed(seed).split()
