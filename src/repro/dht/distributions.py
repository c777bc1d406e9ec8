"""Key distributions for the hashtable workloads.

The paper motivates its locks with irregular workloads — key-value stores and
graph processing — whose accesses are famously *skewed*: a small set of hot
keys (celebrity vertices, popular objects) receives most of the traffic.
The Figure 6 benchmark uses uniformly random keys against a single victim
volume; this module adds the standard skewed alternatives so the DHT workloads
can model the read-hot behaviour the introduction describes (99.8% reads on
the Facebook social graph):

* ``uniform``  — every key in the key space equally likely (the paper's setup),
* ``zipfian``  — Zipf-distributed ranks over a bounded set of distinct keys
  (the YCSB-style skew used for key-value store benchmarking),
* ``hotspot``  — a small "hot set" of keys receives a fixed fraction of all
  accesses, the rest is uniform over the remaining keys.

Distinct keys are scattered over the full key space with a fixed odd
multiplier so that hot keys do not cluster in the same hashtable buckets.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

__all__ = ["KeyDistribution", "DISTRIBUTIONS"]

#: Names accepted by :meth:`KeyDistribution.make`.
DISTRIBUTIONS = ("uniform", "zipfian", "hotspot")

#: Odd multiplier used to scatter consecutive key ranks over the key space.
_SCATTER_MULTIPLIER = 2654435761  # Knuth's multiplicative-hash constant


@dataclass(frozen=True)
class KeyDistribution:
    """A sampler of hashtable keys.

    Use :meth:`make` to construct one by name; :meth:`sample` draws keys with
    a caller-provided NumPy generator, so per-rank determinism follows from
    the runtime's per-rank seeds.
    """

    name: str
    key_space: int
    distinct_keys: int
    #: Cumulative probabilities over the ``distinct_keys`` ranks (skewed
    #: distributions only; ``None`` means uniform over the whole key space).
    _cdf: Optional[np.ndarray] = None

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #

    @classmethod
    def make(
        cls,
        name: str,
        key_space: int,
        *,
        distinct_keys: int = 4096,
        zipf_exponent: float = 0.99,
        hot_fraction: float = 0.01,
        hot_access_fraction: float = 0.9,
    ) -> "KeyDistribution":
        """Build a named distribution.

        Args:
            name: One of :data:`DISTRIBUTIONS`.
            key_space: Keys are drawn from ``[0, key_space)``.
            distinct_keys: Size of the skewed distributions' key universe
                (ignored by ``uniform``).
            zipf_exponent: Skew ``s`` of the Zipf distribution (``zipfian``).
            hot_fraction: Fraction of the distinct keys that form the hot set
                (``hotspot``).
            hot_access_fraction: Fraction of accesses that go to the hot set
                (``hotspot``).
        """
        if key_space < 1:
            raise ValueError("key_space must be >= 1")
        if name not in DISTRIBUTIONS:
            raise ValueError(f"unknown distribution {name!r}; expected one of {DISTRIBUTIONS}")
        distinct = max(1, min(int(distinct_keys), key_space))
        if name == "uniform":
            return cls(name=name, key_space=key_space, distinct_keys=key_space, _cdf=None)
        if name == "zipfian":
            if zipf_exponent <= 0:
                raise ValueError("zipf_exponent must be positive")
            ranks = np.arange(1, distinct + 1, dtype=np.float64)
            weights = ranks ** (-float(zipf_exponent))
        else:  # hotspot
            if not 0.0 < hot_fraction <= 1.0:
                raise ValueError("hot_fraction must be in (0, 1]")
            if not 0.0 <= hot_access_fraction <= 1.0:
                raise ValueError("hot_access_fraction must be in [0, 1]")
            hot_keys = max(1, int(round(distinct * hot_fraction)))
            cold_keys = max(distinct - hot_keys, 0)
            weights = np.empty(distinct, dtype=np.float64)
            weights[:hot_keys] = hot_access_fraction / hot_keys
            if cold_keys:
                weights[hot_keys:] = (1.0 - hot_access_fraction) / cold_keys
            else:
                weights[:hot_keys] = 1.0 / hot_keys
        cdf = np.cumsum(weights / weights.sum())
        cdf[-1] = 1.0
        return cls(name=name, key_space=key_space, distinct_keys=distinct, _cdf=cdf)

    # ------------------------------------------------------------------ #
    # Sampling
    # ------------------------------------------------------------------ #

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """Draw ``size`` keys as an ``int64`` array."""
        if size < 0:
            raise ValueError("size must be non-negative")
        if self._cdf is None:
            return rng.integers(0, self.key_space, size=size, dtype=np.int64)
        draws = rng.random(size)
        ranks = np.searchsorted(self._cdf, draws, side="left")
        # Scatter the ranks over the key space (rank 0 is the hottest key).
        keys = (ranks.astype(np.uint64) * np.uint64(_SCATTER_MULTIPLIER)) % np.uint64(self.key_space)
        return keys.astype(np.int64)
