"""Lock instrumentation: acquisition statistics and hand-off locality.

The benefit of the topology-aware locks comes from *where* consecutive
critical sections run: the more often the lock is passed between processes of
the same compute node, the less inter-node traffic is paid.  This module
wraps any lock handle so that every critical-section entry is recorded in a
small shared ledger (a few window words on rank 0), from which the hand-off
locality — the fraction of consecutive grants that stayed within the same
element — can be computed after the run.

The wrapper is protocol-agnostic: it only uses the public
:class:`~repro.core.lock_base.LockHandle`/:class:`~repro.core.lock_base.RWLockHandle`
interface plus two extra RMA words, so it composes with every lock in this
repository and is itself exercised by the ablation studies.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence

from repro.core.layout import LayoutAllocator
from repro.core.lock_base import LockHandle, RWLockHandle
from repro.rma.ops import AtomicOp
from repro.rma.runtime_base import FAO, FLUSH, PUT, ProcessContext, Steps
from repro.topology.machine import Machine

__all__ = [
    "GrantLedgerSpec",
    "InstrumentedLock",
    "InstrumentedRWLock",
    "LocalityReport",
    "locality_report",
]


@dataclass(frozen=True)
class GrantLedgerSpec:
    """Window layout of the shared grant ledger.

    The ledger lives on ``home_rank`` and records, per critical-section entry,
    the rank that was granted the lock.  ``capacity`` bounds the number of
    recorded grants; once full, further grants only bump the counter (so the
    protocol never fails, the report just notes the truncation).
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

    # -- recording --------------------------------------------------------- #

    def record_grant_steps(self, rank: int) -> Steps:
        """Append ``rank`` to the ledger (run while holding the lock)."""
        slot = yield (FAO, 1, self.home_rank, self.counter_offset, AtomicOp.SUM)
        if slot < self.capacity:
            yield (PUT, rank, self.home_rank, self.grants_offset + slot)
        yield (FLUSH, self.home_rank)

    def record_grant(self, ctx: ProcessContext) -> None:
        """Append the calling rank to the ledger (called while holding the lock)."""
        ctx.run_steps(self.record_grant_steps(ctx.rank))

    # -- reading back ------------------------------------------------------- #

    def read_grants(self, ctx: ProcessContext) -> List[int]:
        """Read the recorded grant sequence (callable from any rank after a barrier)."""
        count = ctx.get(self.home_rank, self.counter_offset)
        ctx.flush(self.home_rank)
        grants = []
        for i in range(min(count, self.capacity)):
            grants.append(ctx.get(self.home_rank, self.grants_offset + i))
        ctx.flush(self.home_rank)
        return grants

    def read_grants_from_window(self, window) -> List[int]:
        """Read the grant sequence directly from the home rank's window object."""
        count = window.read(self.counter_offset)
        return [window.read(self.grants_offset + i) for i in range(min(count, self.capacity))]

    def total_grants_from_window(self, window) -> int:
        return window.read(self.counter_offset)


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


class InstrumentedRWLock(RWLockHandle):
    """A reader-writer lock whose *writer* grants are recorded in the ledger.

    Only writer grants are recorded: readers enter concurrently, so a single
    total order of reader grants is not meaningful for locality analysis.
    """

    def __init__(self, inner: RWLockHandle, ledger: GrantLedgerSpec, ctx: ProcessContext):
        self.inner = inner
        self.ledger = ledger
        self.ctx = ctx

    def implements_steps(self) -> bool:
        return self.inner.implements_steps()

    def acquire_write_steps(self) -> Steps:
        yield from self.inner.acquire_write_steps()
        yield from self.ledger.record_grant_steps(self.ctx.rank)

    def release_write_steps(self) -> Steps:
        return self.inner.release_write_steps()

    def acquire_read_steps(self) -> Steps:
        return self.inner.acquire_read_steps()

    def release_read_steps(self) -> Steps:
        return self.inner.release_read_steps()


@dataclass(frozen=True)
class LocalityReport:
    """Summary of a recorded grant sequence."""

    total_grants: int
    recorded_grants: int
    transitions: int
    same_node_transitions: int
    same_element_transitions: Dict[int, int]
    grants_per_rank: Dict[int, int]

    @property
    def node_locality(self) -> float:
        """Fraction of consecutive grants that stayed on the same compute node."""
        if self.transitions == 0:
            return 1.0
        return self.same_node_transitions / self.transitions

    @property
    def truncated(self) -> bool:
        return self.total_grants > self.recorded_grants

    def element_locality(self, level: int) -> float:
        """Fraction of consecutive grants that stayed inside the same level-``level`` element."""
        if self.transitions == 0:
            return 1.0
        return self.same_element_transitions.get(level, 0) / self.transitions

    def max_consecutive_same_node(self, machine: Machine, grants: Sequence[int]) -> int:
        """Longest run of consecutive grants on one node (needs the raw sequence)."""
        best = run = 0
        previous_node: Optional[int] = None
        for rank in grants:
            node = machine.node_of(rank)
            run = run + 1 if node == previous_node else 1
            previous_node = node
            best = max(best, run)
        return best


def locality_report(machine: Machine, grants: Sequence[int], *, total_grants: Optional[int] = None) -> LocalityReport:
    """Analyse a grant sequence: per-level hand-off locality and per-rank counts."""
    grants = [int(g) for g in grants if g >= 0]
    transitions = max(0, len(grants) - 1)
    same_node = 0
    same_element: Dict[int, int] = {level: 0 for level in range(1, machine.n_levels + 1)}
    for a, b in zip(grants, grants[1:]):
        if machine.same_node(a, b):
            same_node += 1
        for level in range(1, machine.n_levels + 1):
            if machine.element_of(a, level) == machine.element_of(b, level):
                same_element[level] += 1
    per_rank: Dict[int, int] = {}
    for g in grants:
        per_rank[g] = per_rank.get(g, 0) + 1
    return LocalityReport(
        total_grants=len(grants) if total_grants is None else int(total_grants),
        recorded_grants=len(grants),
        transitions=transitions,
        same_node_transitions=same_node,
        same_element_transitions=same_element,
        grants_per_rank=per_rank,
    )
