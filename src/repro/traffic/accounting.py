"""Tail-latency accounting for open-loop traffic runs.

Closed-loop benchmarks report means; lock services are judged by their
*tails* — the p99/p99.9 a client actually observes, queueing delay included.
This module aggregates the per-request samples a traffic rank program
returns into:

* **Percentile summaries** — deterministic p50/p90/p99/p99.9 over the
  acquire latency (time from issuing the acquire to owning the lock) and the
  end-to-end latency (request arrival to release: queueing + acquire + hold),
  plus the mean hold time.
* **Per-phase rows** — request counts, read/write splits, throughput and
  end-to-end percentiles per :class:`~repro.traffic.generators.Phase`, so a
  phased scenario shows how the tail moves when the load or the skew shifts.

Everything here is bit-deterministic: samples are gathered in rank order,
percentiles use the nearest-rank definition on a sorted array (no float
interpolation), and the bounded :class:`LatencyReservoir` decimates by a
fixed stride over the *sorted* samples — so the reported numbers are
identical across repeat runs, schedulers and ``--jobs`` settings, and can be
gated bit-exactly by ``repro regress``.

The reservoir bound is a **first-class accounting parameter**: it defaults
to :data:`DEFAULT_RESERVOIR_CAP` and is threaded end to end — a
:class:`~repro.traffic.generators.TrafficScenario` may pin its own
``reservoir_cap`` (sampled fluid-scale cohorts declare caps matched to their
sample counts), the rank programs carry it in their return dicts (so it is
part of the fingerprinted run state) and the benchmark harness forwards it
to :func:`aggregate_traffic`.  Up to twice the bound (a reservoir decimates
only when it passes ``2 * cap`` samples) the summary is an exact function of
the sample multiset (any contribution order yields identical percentiles);
once decimation engages, reordering ranks can shift *which*
stratified subsample survives, but only within the decimation's quantile
error — and the reported numbers stay bit-deterministic regardless, because
ranks always fold in rank order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce
from itertools import groupby
from operator import add
from typing import Any, Dict, List, Mapping, Sequence, Tuple

import numpy as np

__all__ = [
    "PERCENTILES",
    "LatencyReservoir",
    "TrafficSummary",
    "aggregate_traffic",
    "nearest_rank_percentiles",
]

#: The reported percentile levels and their field labels, in per-mille
#: (integers, so the nearest rank is exact: 99.9 % of 1000 is 999, not
#: ``99.9 / 100 * 1000 == 999.0000000000001``).
PERCENTILES: Tuple[Tuple[str, int], ...] = (
    ("p50", 500),
    ("p90", 900),
    ("p99", 990),
    ("p999", 999),
)

#: Default sample bound of a reservoir.  A reservoir is exact up to twice
#: its bound; past ``2 * cap`` samples the sorted samples are decimated by a
#: fixed stride to at most ``cap`` (quantile-preserving and deterministic).
DEFAULT_RESERVOIR_CAP = 1 << 18


def nearest_rank_percentiles(samples: Sequence[float]) -> Dict[str, float]:
    """Nearest-rank percentiles of ``samples`` (labelled per :data:`PERCENTILES`).

    The nearest-rank definition (value at index ``ceil(q/100 * n) - 1`` of the
    sorted samples, computed in integers) always returns an actual sample, so
    results are bit-exact and independent of interpolation modes.  Empty
    input yields zeros.
    """
    if not len(samples):
        return {label: 0.0 for label, _ in PERCENTILES}
    arr = np.sort(np.asarray(samples, dtype=np.float64))
    n = arr.size
    out: Dict[str, float] = {}
    for label, per_mille in PERCENTILES:
        index = -(-per_mille * n // 1000) - 1  # ceil(per_mille * n / 1000) - 1
        out[label] = float(arr[index])
    return out


class LatencyReservoir:
    """A deterministic bounded sample store with nearest-rank percentiles.

    Samples are appended in a caller-defined (deterministic) order.  The
    store holds every sample exactly up to ``2 * cap`` of them; the call that
    takes it past ``2 * cap`` sorts it and decimates it to every ``k``-th
    sample, ``k = ceil(n / cap)`` (at most ``cap`` of them, plus the global
    maximum) — a stratified subsample that preserves quantiles far into the
    tail while bounding memory for very long service runs.  Each decimation
    is a pure function of the samples held at that point, so for a fixed
    insertion order the summary never depends on host or worker count; up to
    ``2 * cap`` samples it is exactly insertion-order-independent too, and
    past that reordering moves the quantiles only within the decimation
    error (the global maximum always survives).
    """

    def __init__(self, cap: int = DEFAULT_RESERVOIR_CAP):
        if cap < 16:
            raise ValueError("reservoir cap must be >= 16")
        self.cap = int(cap)
        self._samples: List[float] = []
        self.count = 0  # total observed, including decimated-away samples

    def add_many(self, samples: Sequence[float]) -> None:
        self._samples.extend(map(float, samples))
        self.count += len(samples)
        if len(self._samples) > 2 * self.cap:
            self._decimate()

    def add_each(self, samples: Sequence[float]) -> None:
        """``add_many((s,))`` for each of ``samples`` in turn: the store is
        decimated at exactly the samples where that would decimate it, in as
        few ``add_many`` calls as there are such points (plus one)."""
        limit = 2 * self.cap + 1
        while samples:
            room = limit - len(self._samples)
            self.add_many(samples[:room])
            samples = samples[room:]

    def _decimate(self) -> None:
        arr = np.sort(np.asarray(self._samples, dtype=np.float64))
        stride = int(np.ceil(arr.size / self.cap))
        # Keep the global maximum: the extreme tail must survive decimation.
        kept = arr[stride - 1 :: stride]
        if kept.size == 0 or kept[-1] != arr[-1]:
            kept = np.append(kept, arr[-1])
        self._samples = [float(v) for v in kept]

    def percentiles(self) -> Dict[str, float]:
        return nearest_rank_percentiles(self._samples)


@dataclass
class TrafficSummary:
    """Aggregated open-loop metrics of one traffic run."""

    requests: int
    reads: int
    writes: int
    open_span_us: float
    #: Requests completed per virtual second over the open span.
    offered_per_s: float
    #: End-to-end (arrival -> release) percentiles, µs.
    e2e: Dict[str, float] = field(default_factory=dict)
    #: Acquire (lock-wait) percentiles, µs.
    acquire: Dict[str, float] = field(default_factory=dict)
    mean_hold_us: float = 0.0
    mean_e2e_us: float = 0.0
    #: One row per phase: requests, mix, throughput, e2e percentiles.
    phases: List[Dict[str, Any]] = field(default_factory=list)

    def percentile_fields(self) -> Dict[str, float]:
        """Flattened ``{metric_pLevel_us: value}`` mapping for result rows."""
        out: Dict[str, float] = {}
        for label, _ in PERCENTILES:
            out[f"e2e_{label}_us"] = round(self.e2e.get(label, 0.0), 6)
        for label, _ in PERCENTILES:
            out[f"acquire_{label}_us"] = round(self.acquire.get(label, 0.0), 6)
        out["mean_hold_us"] = round(self.mean_hold_us, 6)
        out["mean_e2e_us"] = round(self.mean_e2e_us, 6)
        return out


def aggregate_traffic(
    returns: Sequence[Mapping[str, Any]],
    *,
    reservoir_cap: int = DEFAULT_RESERVOIR_CAP,
) -> TrafficSummary:
    """Fold per-rank traffic returns into a :class:`TrafficSummary`.

    Expects the keys the traffic rank program emits: ``arrivals`` (absolute
    virtual µs), ``latencies`` (end-to-end), ``acquire_latencies``,
    ``hold_us``, ``phases``, ``reads`` and ``writes``.  Ranks are folded in
    rank order, so the summary is deterministic for a deterministic run.
    """
    e2e_res = LatencyReservoir(reservoir_cap)
    acq_res = LatencyReservoir(reservoir_cap)
    hold_total = 0.0
    e2e_total = 0.0
    requests = 0
    reads = 0
    writes = 0
    span_lo = np.inf
    span_hi = -np.inf

    phase_e2e: Dict[int, LatencyReservoir] = {}
    phase_counts: Dict[int, int] = {}
    phase_writes: Dict[int, int] = {}
    phase_lo: Dict[int, float] = {}
    phase_hi: Dict[int, float] = {}

    for per_rank in returns:
        arrivals = per_rank.get("arrivals", ())
        e2e = per_rank.get("latencies", ())
        acquire = per_rank.get("acquire_latencies", ())
        hold = per_rank.get("hold_us", ())
        phases = per_rank.get("phases", ())
        rank_writes = per_rank.get("write_flags", ())
        n = len(e2e)
        requests += n
        reads += int(per_rank.get("reads", 0))
        writes += int(per_rank.get("writes", 0))
        e2e_res.add_many(e2e)
        acq_res.add_many(acquire)
        hold_total += float(np.sum(np.asarray(hold, dtype=np.float64))) if len(hold) else 0.0
        e2e_total += float(np.sum(np.asarray(e2e, dtype=np.float64))) if n else 0.0
        if not n:
            continue
        # Missing arrivals read 0.0 and missing phases 0, sample by sample.
        latency = list(map(float, e2e))
        arrival = list(map(float, arrivals[:n]))
        arrival += [0.0] * (n - len(arrival))
        done = list(map(add, arrival, latency))
        phase_of = list(map(int, phases[:n]))
        phase_of += [0] * (n - len(phase_of))
        # reduce(min, ...) is the sample-by-sample fold, ties and all.
        span_lo = reduce(min, arrival, span_lo)
        span_hi = reduce(max, done, span_hi)
        # Fold each run of samples that share a phase at once.
        start = 0
        for phase, run in groupby(phase_of):
            stop = start + len(list(run))
            res = phase_e2e.get(phase)
            if res is None:
                res = phase_e2e[phase] = LatencyReservoir(reservoir_cap)
                phase_counts[phase] = 0
                phase_writes[phase] = 0
                phase_lo[phase] = arrival[start]
                phase_hi[phase] = done[start]
            res.add_each(latency[start:stop])
            phase_counts[phase] += stop - start
            phase_writes[phase] += sum(map(bool, rank_writes[start:stop]))
            phase_lo[phase] = reduce(min, arrival[start:stop], phase_lo[phase])
            phase_hi[phase] = reduce(max, done[start:stop], phase_hi[phase])
            start = stop

    open_span = float(span_hi - span_lo) if requests else 0.0
    offered = (requests / open_span * 1e6) if open_span > 0 else 0.0

    phase_rows: List[Dict[str, Any]] = []
    for phase in sorted(phase_e2e):
        count = phase_counts[phase]
        span = phase_hi[phase] - phase_lo[phase]
        row: Dict[str, Any] = {
            "phase": phase,
            "requests": count,
            "writes": phase_writes[phase],
            "span_us": round(float(span), 6),
            "throughput_per_s": round(count / span * 1e6, 3) if span > 0 else 0.0,
        }
        for label, value in phase_e2e[phase].percentiles().items():
            row[f"e2e_{label}_us"] = round(value, 6)
        phase_rows.append(row)

    return TrafficSummary(
        requests=requests,
        reads=reads,
        writes=writes,
        open_span_us=round(open_span, 6),
        offered_per_s=round(offered, 3),
        e2e={k: round(v, 6) for k, v in e2e_res.percentiles().items()},
        acquire={k: round(v, 6) for k, v in acq_res.percentiles().items()},
        mean_hold_us=round(hold_total / requests, 6) if requests else 0.0,
        mean_e2e_us=round(e2e_total / requests, 6) if requests else 0.0,
        phases=phase_rows,
    )
