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
  the same seed replays the exact same schedule bit-for-bit, on ``horizon``
  and on the reference interpreter, while different seeds steer the run
  through genuinely different interleavings;
* the streams are disjoint from :func:`repro.util.rng.rank_rng` (a different
  Philox counter lane), so perturbing a run never shifts the workload's own
  random draws.

A model enters a run as a :class:`PerturbationSchedule`, built once per
``(model, P)`` and kept in a small cache (:func:`perturbation_schedule`):
each rank's slowdown multiplier, and each rank's *factor stream* — one
``(m, a)`` pair per operation, ``m = 1 + jitter * u`` (or 1) and
``a = lo + (hi - lo) * u`` for a pause (or 0), parsed from the rank's
uniforms in blocks and shared by every run of that model.  The runtimes
charge ``cost * slowdown * m + a``: the same float operations, in the same
order, as the cost times the multiplier, then the jitter product, then the
pause sum.  When every magnitude is zero — or no model is installed — the
cost path is untouched and runs stay bit-identical to the committed golden
fingerprints in ``tests/rma/golden/``.
"""

from __future__ import annotations

import math
import threading
from array import array
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain, cycle
from typing import Callable, Iterator, List, Optional, Tuple

import numpy as np

__all__ = ["PerturbationModel", "PerturbationSchedule", "perturbation_rng", "perturbation_schedule"]

#: Philox counter lane reserved for perturbation streams.  ``rank_rng`` uses
#: lane 0, so a perturbation model sharing the workload's seed still draws
#: from a provably disjoint stream.
_PERTURB_LANE = 0x7C5EED

#: Uniforms drawn per block of a factor stream: a multiple of 4, so a block
#: always ends on a Philox counter step.
_DRAW_BLOCK = 256

#: Bytes of factor blocks one cached schedule may hold.  A run that outgrows
#: them continues from its own generator and caches nothing more.
SCHEDULE_BYTES = 256 * 1024


def perturbation_rng(seed: int, rank: int) -> np.random.Generator:
    """Independent perturbation generator for ``(seed, rank)``.

    Stable across runs and disjoint from the per-rank workload streams of
    :func:`repro.util.rng.rank_rng` even when both use the same seed.
    """
    return _stream_rng(seed, rank, 0)


def _stream_rng(seed: int, rank: int, start: int) -> np.random.Generator:
    """``perturbation_rng(seed, rank)`` positioned at draw ``start``: Philox
    yields four draws per counter step, and ``start`` is a multiple of 4."""
    if rank < 0:
        raise ValueError(f"rank must be non-negative, got {rank}")
    return np.random.Generator(
        np.random.Philox(key=seed, counter=[_PERTURB_LANE + start // 4, 0, 0, rank])
    )


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
        lo, hi = self.pause_us
        # A NaN passes no comparison: it would silently disable its effect.
        for name, value in (("latency_jitter", self.latency_jitter), ("rank_slowdown", self.rank_slowdown),
                            ("pause_us", lo), ("pause_us", hi)):
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")
        if self.latency_jitter < 0:
            raise ValueError("latency_jitter must be non-negative")
        if self.rank_slowdown < 0:
            raise ValueError("rank_slowdown must be non-negative")
        if not 0.0 <= self.pause_rate <= 1.0:
            raise ValueError("pause_rate must be within [0, 1]")
        if lo < 0 or hi < lo:
            raise ValueError("pause_us must be a non-negative (low, high) pair")
        # Normalize so equal models hash/cache identically.
        object.__setattr__(self, "pause_us", (float(lo), float(hi)))

    @property
    def is_null(self) -> bool:
        """True when the model changes no cost: every magnitude is zero."""
        return self.latency_jitter == 0.0 and self.rank_slowdown == 0.0 and self.pause_rate == 0.0

    def rank_multipliers(self, nranks: int) -> Tuple[float, ...]:
        """Per-rank slowdown multipliers, drawn once per schedule from the seed.

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


def _parse(u: np.ndarray, model: PerturbationModel) -> Tuple[array, np.ndarray]:
    """The factor pairs of the whole operations at the head of uniforms ``u``,
    and the uniforms left over.

    An operation takes, in stream order, its jitter draw (if any jitter),
    its pause test (if any pause rate) and, when the test is below the rate,
    the pause's length.  Pauses are rare, so only they are walked in Python:
    between two, operations repeat with a fixed stride of ``s`` draws.
    """
    jitter, rate = model.latency_jitter, model.pause_rate
    lo, hi = model.pause_us
    span = hi - lo
    n = len(u)
    if rate == 0.0:
        factors = np.zeros(2 * n)
        factors[0::2] = 1.0 + jitter * u
        return array("d", factors.tobytes()), u[n:]
    s = 2 if jitter > 0.0 else 1
    pauses: List[Tuple[int, float]] = []
    lengths: List[int] = []  # positions of the pause lengths
    ops = p = 0  # operations parsed, and the first draw of the next one
    for q in np.flatnonzero(u < rate).tolist():
        test = p + s - 1  # the next operation's pause test
        if q < test or (q - test) % s:
            continue  # a jitter draw, or a pause length, below the rate
        k = (q - test) // s  # operations without a pause before it
        if q + 1 >= n:  # its pause length is not drawn yet
            ops += k
            p += s * k
            break
        ops += k
        pauses.append((ops, lo + span * float(u[q + 1])))
        lengths.append(q + 1)
        ops += 1
        p = q + 2
    else:
        k = (n - p) // s
        ops += k
        p += s * k
    factors = np.zeros(2 * ops)
    if s == 2:  # without the pause lengths, jitter draws and tests alternate
        factors[0::2] = 1.0 + jitter * np.delete(u[:p], lengths)[0::2]
    else:
        factors[0::2] = 1.0
    for op, pause in pauses:
        factors[2 * op + 1] = pause
    return array("d", factors.tobytes()), u[p:]


class _Stream:
    """One rank's cached factor blocks, and where parsing resumes: the
    rank's generator, the draws taken from it, the ones not parsed yet."""

    __slots__ = ("blocks", "rng", "drawn", "rest")

    def __init__(self, rng: np.random.Generator):
        self.blocks: List[array] = []
        self.rng = rng
        self.drawn = 0
        self.rest = np.empty(0)


class PerturbationSchedule:
    """A model's per-rank slowdowns and factor streams for ``nranks`` ranks.

    Shared by every run of the model at that size (and by concurrent ones):
    blocks are parsed on first use, under a lock, and never change after.
    Past :data:`SCHEDULE_BYTES` a run parses the rest of a stream from its
    own generator, positioned by counter where the cached prefix ends.
    Which blocks are cached never reaches a run: each factor is the same
    function of the rank's stream either way.
    """

    def __init__(self, model: PerturbationModel, nranks: int):
        self.model = model
        #: Each rank's slowdown multiplier (all 1.0 without slowdowns).
        self.slowdown: Tuple[float, ...] = model.rank_multipliers(nranks)
        self._per_op = model.latency_jitter > 0.0 or model.pause_rate > 0.0
        self._streams: List[Optional[_Stream]] = [None] * nranks
        self._lock = threading.Lock()
        self._full = False
        #: Bytes of the cached factor blocks.
        self.nbytes = 0

    def factors(self, rank: int) -> Callable[[], float]:
        """``next`` of one run's iterator over rank's factors: ``m``, ``a``,
        ``m``, ``a``, ... in the rank's issue order."""
        if not self._per_op:
            return cycle((1.0, 0.0)).__next__
        return chain.from_iterable(self._blocks(rank)).__next__

    def _blocks(self, rank: int) -> Iterator[array]:
        with self._lock:
            stream = self._streams[rank]
            if stream is None:
                stream = self._streams[rank] = _Stream(perturbation_rng(self.model.seed, rank))
        blocks = stream.blocks
        i = 0
        while True:
            if i == len(blocks):
                with self._lock:
                    if i == len(blocks) and not self._grow(stream):
                        break
            yield blocks[i]
            i += 1
        # Past the budget the stream no longer changes: continue it privately.
        rng = _stream_rng(self.model.seed, rank, stream.drawn)
        rest = stream.rest
        while True:
            block, rest = _parse(np.concatenate((rest, rng.random(_DRAW_BLOCK))), self.model)
            yield block

    def _grow(self, stream: _Stream) -> bool:
        """Cache one more block of ``stream`` (under the lock), or refuse
        once the schedule is full."""
        if self._full:
            return False
        block, rest = _parse(np.concatenate((stream.rest, stream.rng.random(_DRAW_BLOCK))), self.model)
        if self.nbytes + block.itemsize * len(block) > SCHEDULE_BYTES:
            self._full = True
            return False
        stream.blocks.append(block)
        stream.drawn += _DRAW_BLOCK
        stream.rest = rest
        self.nbytes += block.itemsize * len(block)
        return True


@lru_cache(maxsize=16)
def _cached_schedule(model: PerturbationModel, nranks: int) -> PerturbationSchedule:
    return PerturbationSchedule(model, nranks)


def perturbation_schedule(model: Optional[PerturbationModel], nranks: int) -> Optional[PerturbationSchedule]:
    """The (cached) schedule of ``model`` for ``nranks`` ranks; None when
    there is no model or it changes no cost, so the run is unperturbed.

    Models are frozen dataclasses and therefore hashable; an unhashable
    custom subclass gets a fresh schedule per run.
    """
    if model is None or model.is_null:
        return None
    try:
        return _cached_schedule(model, nranks)
    except TypeError:  # unhashable custom model
        return PerturbationSchedule(model, nranks)
