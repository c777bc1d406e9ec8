"""Statistics helpers used by the benchmark harness.

The paper's methodology (Section 5, "Experimentation Methodology") discards
the first 10% of measurements as warm-up and reports arithmetic means for
latency; throughput is an aggregate count divided by total time.  The helpers
here implement that discipline so every benchmark uses the same rules.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Sequence

import numpy as np

__all__ = ["Summary", "discard_warmup", "summarize"]

#: Fraction of leading samples discarded as warm-up, as in the paper.
DEFAULT_WARMUP_FRACTION = 0.1


@dataclass(frozen=True)
class Summary:
    """Summary statistics of a latency-like sample set (microseconds)."""

    count: int
    mean: float
    median: float
    p95: float
    minimum: float
    maximum: float
    std: float


def discard_warmup(samples: Sequence[float], fraction: float = DEFAULT_WARMUP_FRACTION) -> List[float]:
    """Drop the leading ``fraction`` of ``samples`` (the warm-up phase)."""
    if not 0.0 <= fraction < 1.0:
        raise ValueError(f"warm-up fraction must be in [0, 1), got {fraction}")
    n = len(samples)
    skip = int(n * fraction)
    return list(samples[skip:])


def summarize(samples: Iterable[float], warmup_fraction: float = DEFAULT_WARMUP_FRACTION) -> Summary:
    """Summarize latency samples after discarding the warm-up prefix."""
    kept = discard_warmup(list(samples), warmup_fraction)
    if not kept:
        raise ValueError("no samples left after warm-up discard")
    arr = np.asarray(kept, dtype=float)
    return Summary(
        count=int(arr.size),
        mean=float(arr.mean()),
        median=float(np.median(arr)),
        p95=float(np.percentile(arr, 95)),
        minimum=float(arr.min()),
        maximum=float(arr.max()),
        std=float(arr.std()),
    )
