"""Striped (per-volume) reader-writer locks for fine-grained synchronization.

The paper motivates the single-operation benchmark with "irregular parallel
workloads such as graph processing with vertices protected by fine locks"
(Section 5): instead of one global lock, the shared state is partitioned and
every partition carries its own small lock.  This module provides that
pattern for the distributed hashtable: one centralized reader-writer word per
*local volume*, hosted in the owning rank's window, so an operation on volume
``v`` only synchronizes with other operations on ``v``.

Striping is a way of *placing* a lock, not a protocol: the lock of volume
``v`` is foMPI-RW's reader-counter/writer-bit word
(:class:`~repro.core.baselines.FompiRWLockSpec`) homed on rank ``v`` at the
striped word's offset, and :meth:`StripedRWLockHandle.stripe` returns that
lock's :class:`~repro.core.baselines.FompiRWLockHandle`.  With striping the
per-lock contention is already low, so the interesting comparison — exercised
by the DHT workload's ``striped-rw`` scheme and the fine-grained example — is
*structural*: global RMA-RW versus many small per-volume locks, under skewed
and uniform key distributions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Mapping, Tuple

from repro.api.registry import register_scheme
from repro.core.baselines import FompiRWLockHandle, FompiRWLockSpec
from repro.rma.runtime_base import ProcessContext

__all__ = ["StripedRWLockHandle", "StripedRWLockSpec"]


@dataclass(frozen=True)
class StripedRWLockSpec:
    """One reader-writer lock word per rank, at the same offset in every window.

    Args:
        num_processes: Total number of ranks (= number of stripes/volumes).
        base_offset: First window word used by the stripe (one word per rank).
    """

    num_processes: int
    base_offset: int = 0
    word_offset: int = field(init=False, default=0)
    #: Volume ``v``'s lock: foMPI-RW homed on rank ``v``, built once per spec.
    stripes: Tuple[FompiRWLockSpec, ...] = field(init=False, default=(), compare=False, repr=False)

    def __post_init__(self) -> None:
        if self.num_processes < 1:
            raise ValueError("num_processes must be >= 1")
        stripes = tuple(
            FompiRWLockSpec(self.num_processes, home_rank=volume, base_offset=self.base_offset)
            for volume in range(self.num_processes)
        )
        object.__setattr__(self, "stripes", stripes)
        object.__setattr__(self, "word_offset", stripes[0].word_offset)

    @property
    def window_words(self) -> int:
        return self.word_offset + 1

    def init_window(self, rank: int) -> Mapping[int, int]:
        return {self.word_offset: 0}

    def make(self, ctx: ProcessContext) -> "StripedRWLockHandle":
        return StripedRWLockHandle(self, ctx)


class StripedRWLockHandle:
    """Per-process handle: the lock of any stripe, by volume index."""

    def __init__(self, spec: StripedRWLockSpec, ctx: ProcessContext):
        if ctx.nranks != spec.num_processes:
            raise ValueError("lock spec and runtime disagree on the number of ranks")
        self.spec = spec
        self.ctx = ctx
        self._stripes: Dict[int, FompiRWLockHandle] = {}

    def stripe(self, volume: int) -> FompiRWLockHandle:
        """Volume ``volume``'s reader-writer lock (one handle per volume, built on first use)."""
        handle = self._stripes.get(volume)
        if handle is None:
            if not 0 <= volume < self.spec.num_processes:
                raise ValueError(f"volume {volume} out of range 0..{self.spec.num_processes - 1}")
            handle = self._stripes[volume] = FompiRWLockHandle(self.spec.stripes[volume], self.ctx)
        return handle

    def implements_steps(self) -> bool:
        """Every stripe is a foMPI-RW handle, whose protocol is step generators."""
        return True


# The handle is not a plain LockHandle, so the scheme opts out of the lock
# harness (harness=False); its conformance adapter is stripe 0.
def _striped_conformance_spec(machine) -> FompiRWLockSpec:
    return FompiRWLockSpec(num_processes=machine.num_processes, home_rank=0)


@register_scheme(
    "striped-rw",
    rw=True,
    category="dht",
    harness=False,
    conformance_adapter=_striped_conformance_spec,
    help="one centralized RW lock word per local volume (fine-grained striping)",
)
def _build_striped_rw(machine) -> StripedRWLockSpec:
    return StripedRWLockSpec(num_processes=machine.num_processes)
