"""Seeded schedule perturbation for the deterministic simulators.

The discrete-event runtimes explore exactly *one* interleaving per
configuration: the one their latency tables produce.  Real distributed-lock
bugs hide in the interleavings a fixed cost model never reaches — ALock
(arXiv 2404.17980) and the RDMA lock-management study (arXiv 1507.03274)
both report correctness flips under varied timing and contention.  This
module makes those schedules reachable *without* giving up determinism:

* a :class:`PerturbationModel` is a small frozen description of three timing
  disturbances — per-operation **latency jitter**, per-rank **slowdown
  multipliers** (a chronically slow NIC/PCIe path) and rare **transient
  pauses** (GC stalls, OS preemption) — all derived from one seed;
* every per-rank draw comes from a dedicated counter-based Philox stream
  keyed on ``(seed, rank)`` and consumed in the rank's own operation order,
  so a perturbed run is a pure function of ``(program, config, seed)``:
  the same seed replays the exact same schedule bit-for-bit, on every
  deterministic scheduler, while different seeds steer the run
  through genuinely different interleavings;
* the streams are disjoint from :func:`repro.util.rng.rank_rng` (a different
  Philox counter lane), so perturbing a run never shifts the workload's own
  random draws.

The model is threaded through :class:`repro.rma.latency.CostTable` (the
per-rank slowdown multipliers are baked into the table once per run via
:meth:`~repro.rma.latency.CostTable.scaled_by_origin`) and through the
runtimes' per-operation issue path (jitter and pauses).  When every
magnitude is zero — or no model is installed — the cost path is untouched
and runs stay bit-identical to the committed golden fingerprints in
``tests/rma/golden/``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

__all__ = ["PerturbationModel", "RankPerturbation", "perturbation_rng"]

#: Philox counter lane reserved for perturbation streams.  ``rank_rng`` uses
#: lane 0, so a perturbation model sharing the workload's seed still draws
#: from a provably disjoint stream.
_PERTURB_LANE = 0x7C5EED

#: Uniforms fetched per refill of a rank's draw buffer, and the most one
#: operation can consume (jitter, pause test, pause length).
_DRAW_BLOCK = 256
_MAX_DRAWS_PER_OP = 3


def perturbation_rng(seed: int, rank: int) -> np.random.Generator:
    """Independent perturbation generator for ``(seed, rank)``.

    Stable across runs and disjoint from the per-rank workload streams of
    :func:`repro.util.rng.rank_rng` even when both use the same seed.
    """
    if rank < 0:
        raise ValueError(f"rank must be non-negative, got {rank}")
    return np.random.Generator(
        np.random.Philox(key=seed, counter=[_PERTURB_LANE, 0, 0, rank])
    )


class RankPerturbation:
    """Per-rank, per-run jitter/pause state (one instance per rank per run).

    ``perturb(cost)`` is called once per issued RMA operation, in the rank's
    own issue order; every conforming scheduler issues the same per-rank
    operation sequences (the golden cross-check pins that down), so the draw
    streams — and therefore the perturbed schedules — match bit-for-bit.
    The per-rank slowdown multiplier is *not* applied here: it lives in the
    scaled :class:`~repro.rma.latency.CostTable` (horizon) or is applied by
    the caller (``tests/reference.py``), both as the same float product.
    """

    __slots__ = ("_rng", "_jitter", "_pause_rate", "_pause_lo", "_pause_span", "_u", "_i")

    def __init__(self, model: "PerturbationModel", rank: int):
        self._rng = perturbation_rng(model.seed, rank)
        self._jitter = model.latency_jitter
        self._pause_rate = model.pause_rate
        self._pause_lo, pause_hi = model.pause_us
        self._pause_span = pause_hi - self._pause_lo
        #: Uniforms drawn ahead from the stream, and the cursor into them.
        self._u: List[float] = []
        self._i = 0

    def perturb(self, cost: float) -> float:
        """Apply jitter and (rarely) a transient pause to one operation's cost.

        The uniforms are the stream's own, in stream order — jitter, pause
        test, pause length (``lo + (hi - lo) * u``, which is what
        ``Generator.uniform`` computes from one draw) — but drawn in blocks
        and consumed with a cursor, because a scalar ``Generator`` call costs
        several times the arithmetic it feeds.
        """
        u = self._u
        i = self._i
        if i + _MAX_DRAWS_PER_OP > len(u):
            u = self._u = u[i:] + self._rng.random(_DRAW_BLOCK).tolist()
            i = 0
        if self._jitter > 0.0:
            cost = cost * (1.0 + self._jitter * u[i])
            i += 1
        if self._pause_rate > 0.0:
            if u[i] < self._pause_rate:
                cost = cost + (self._pause_lo + self._pause_span * u[i + 1])
                i += 1
            i += 1
        self._i = i
        return cost


@dataclass(frozen=True)
class PerturbationModel:
    """Deterministic, seeded timing disturbance for one simulation run.

    Args:
        seed: Root of every perturbation stream.  Two runs with the same seed
            (and config) are bit-identical; different seeds explore different
            interleavings.
        latency_jitter: Per-operation cost inflation drawn uniformly from
            ``[0, latency_jitter]`` (fraction of the base cost).  ``0``
            disables jitter.
        rank_slowdown: Upper bound of the per-rank slowdown: each rank draws
            a multiplier from ``[1, 1 + rank_slowdown]`` once per run and all
            its RMA costs are scaled by it.  ``0`` disables slowdowns.
        pause_rate: Per-operation probability of a transient pause (GC-like
            stall) added on top of the operation's cost.  ``0`` disables.
        pause_us: ``(low, high)`` bounds of a pause's duration in virtual µs.
    """

    seed: int = 0
    latency_jitter: float = 0.0
    rank_slowdown: float = 0.0
    pause_rate: float = 0.0
    pause_us: Tuple[float, float] = (5.0, 40.0)

    def __post_init__(self) -> None:
        if self.latency_jitter < 0:
            raise ValueError("latency_jitter must be non-negative")
        if self.rank_slowdown < 0:
            raise ValueError("rank_slowdown must be non-negative")
        if not 0.0 <= self.pause_rate <= 1.0:
            raise ValueError("pause_rate must be within [0, 1]")
        lo, hi = self.pause_us
        if lo < 0 or hi < lo:
            raise ValueError("pause_us must be a non-negative (low, high) pair")
        # Normalize so equal models hash/cache identically.
        object.__setattr__(self, "pause_us", (float(lo), float(hi)))

    # ------------------------------------------------------------------ #
    # Per-run state
    # ------------------------------------------------------------------ #

    def rank_multipliers(self, nranks: int) -> Tuple[float, ...]:
        """Per-rank slowdown multipliers, drawn once per run from the seed.

        Rank ``r``'s multiplier is the first draw of its dedicated stream, so
        it does not depend on ``nranks`` and never consumes from the per-op
        jitter stream (which starts on a separate generator instance).
        """
        if self.rank_slowdown == 0.0:
            return (1.0,) * nranks
        out = []
        for rank in range(nranks):
            rng = perturbation_rng(~self.seed & 0xFFFFFFFFFFFFFFFF, rank)
            out.append(1.0 + self.rank_slowdown * float(rng.random()))
        return tuple(out)

    def rank_states(self, nranks: int) -> Optional[List[RankPerturbation]]:
        """Fresh per-rank jitter/pause states for one run (or ``None``).

        ``None`` means the per-operation path has nothing to do (only the
        table-level slowdown, or nothing at all, is active), so the runtimes
        skip the per-op hook entirely.
        """
        if self.latency_jitter == 0.0 and self.pause_rate == 0.0:
            return None
        return [RankPerturbation(self, rank) for rank in range(nranks)]
