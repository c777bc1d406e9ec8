"""Deterministic random-number helpers.

Every simulated process gets its own :class:`numpy.random.Generator` derived
from a single experiment seed so that runs are reproducible regardless of the
scheduling order of ranks.
"""

from __future__ import annotations

import numpy as np

__all__ = ["rank_rng"]


def rank_rng(seed: int, rank: int) -> np.random.Generator:
    """Return an independent generator for ``rank`` derived from ``seed``.

    The sequence produced by a given ``(seed, rank)`` pair is stable across
    runs and independent of the generators handed to other ranks.
    """
    if rank < 0:
        raise ValueError(f"rank must be non-negative, got {rank}")
    return np.random.Generator(np.random.Philox(key=seed, counter=[0, 0, 0, rank]))
