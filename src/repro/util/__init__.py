"""Small shared utilities: deterministic RNG handling and statistics helpers."""

from repro.util.rng import rank_rng
from repro.util.stats import Summary, discard_warmup, summarize

__all__ = [
    "Summary",
    "discard_warmup",
    "rank_rng",
    "summarize",
]
