"""Lock instrumentation: acquisition statistics and hand-off locality.

The benefit of the topology-aware locks comes from *where* consecutive
critical sections run: the more often the lock is passed between processes of
the same compute node, the less inter-node traffic is paid.  This module
wraps any lock handle so that every critical-section entry is recorded in a
small shared ledger (a few window words on rank 0), from which the hand-off
locality — the fraction of consecutive grants that stayed on the same node —
can be computed after the run.

The wrapper is protocol-agnostic: it only uses the public
:class:`~repro.core.lock_base.LockHandle` interface plus the ledger's RMA
words, so it composes with every mutual-exclusion lock in this repository;
``repro figures ablation-handoff`` is built on it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Mapping, Sequence

from repro.core.layout import LayoutAllocator
from repro.core.lock_base import LockHandle
from repro.rma.ops import AtomicOp
from repro.rma.runtime_base import FAO, FLUSH, PUT, ProcessContext, Steps
from repro.topology.machine import Machine

__all__ = [
    "GrantLedgerSpec",
    "InstrumentedLock",
    "LocalityReport",
    "locality_report",
]


@dataclass(frozen=True)
class GrantLedgerSpec:
    """Window layout of the shared grant ledger.

    The ledger lives on ``home_rank`` and records, per critical-section entry,
    the rank that was granted the lock.  ``capacity`` bounds the number of
    recorded grants; once full, further grants only bump the counter (so the
    protocol never fails; the grants past ``capacity`` are not recorded).
    """

    capacity: int
    home_rank: int = 0
    base_offset: int = 0
    counter_offset: int = 0
    grants_offset: int = 0

    def __post_init__(self) -> None:
        if self.capacity < 1:
            raise ValueError("capacity must be >= 1")
        if self.home_rank < 0:
            raise ValueError("home_rank must be non-negative")
        alloc = LayoutAllocator(base=self.base_offset)
        object.__setattr__(self, "counter_offset", alloc.field("ledger_counter"))
        object.__setattr__(self, "grants_offset", alloc.allocate("ledger_grants", self.capacity).start)

    @property
    def window_words(self) -> int:
        return self.grants_offset + self.capacity

    def init_window(self, rank: int) -> Mapping[int, int]:
        if rank != self.home_rank:
            return {}
        values = {self.counter_offset: 0}
        for i in range(self.capacity):
            values[self.grants_offset + i] = -1
        return values

    def record_grant_steps(self, rank: int) -> Steps:
        """Append ``rank`` to the ledger (run while holding the lock)."""
        slot = yield (FAO, 1, self.home_rank, self.counter_offset, AtomicOp.SUM)
        if slot < self.capacity:
            yield (PUT, rank, self.home_rank, self.grants_offset + slot)
        yield (FLUSH, self.home_rank)

    def read_grants_from_window(self, window) -> List[int]:
        """Read the grant sequence directly from the home rank's window object."""
        count = window.read(self.counter_offset)
        return [window.read(self.grants_offset + i) for i in range(min(count, self.capacity))]


class InstrumentedLock(LockHandle):
    """A mutual-exclusion lock that records every grant in a shared ledger."""

    def __init__(self, inner: LockHandle, ledger: GrantLedgerSpec, ctx: ProcessContext):
        self.inner = inner
        self.ledger = ledger
        self.ctx = ctx

    def implements_steps(self) -> bool:
        return self.inner.implements_steps()

    def acquire_steps(self) -> Steps:
        yield from self.inner.acquire_steps()
        yield from self.ledger.record_grant_steps(self.ctx.rank)

    def release_steps(self) -> Steps:
        return self.inner.release_steps()


@dataclass(frozen=True)
class LocalityReport:
    """Summary of a recorded grant sequence."""

    recorded_grants: int
    transitions: int
    same_node_transitions: int

    @property
    def node_locality(self) -> float:
        """Fraction of consecutive grants that stayed on the same compute node."""
        if self.transitions == 0:
            return 1.0
        return self.same_node_transitions / self.transitions


def locality_report(machine: Machine, grants: Sequence[int]) -> LocalityReport:
    """Analyse a grant sequence: how often consecutive grants stayed on one node."""
    grants = [int(g) for g in grants if g >= 0]
    return LocalityReport(
        recorded_grants=len(grants),
        transitions=max(0, len(grants) - 1),
        same_node_transitions=sum(machine.same_node(a, b) for a, b in zip(grants, grants[1:])),
    )
