"""NUMA-aware reader-writer lock in the style of Calciu et al. (PPoPP'13).

Section 2.3.1 of the paper describes the NUMA-aware RW locks that preceded
RMA-RW: every compute node keeps a *local reader indicator* so that readers
only touch node-local state, while writers serialize through an internal
NUMA-aware mutual-exclusion lock and then wait for the per-node reader
indicators to drain.  This module provides a distributed adaptation:

* one reader counter per compute node, hosted on the node's first rank —
  readers increment and decrement only that counter;
* a single ``WRITER_PRESENT`` flag on ``home_rank`` that blocks new readers
  while a writer is active or waiting for readers to drain;
* a :class:`~repro.related.cohort.CohortTicketLockSpec` as the internal
  writer lock, so competing writers already benefit from node locality.

The design improves reader scalability over the centralized foMPI-RW baseline
but, unlike RMA-RW, it has no reader threshold ``T_R`` (writers must always
drain every node counter) and only two hierarchy levels — which is precisely
the gap the paper's distributed counter and tree close.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Mapping

from repro.api.registry import ParamSpec, register_scheme
from repro.core.layout import LayoutAllocator
from repro.core.lock_base import RWLockHandle, RWLockSpec
from repro.rma.ops import AtomicOp
from repro.rma.runtime_base import (
    ACCUMULATE,
    FLUSH,
    GET,
    PUT,
    SPIN_WHILE,
    ProcessContext,
    Steps,
)
from repro.related.cohort import CohortTicketLockSpec, leaf_threshold_from_config
from repro.topology.machine import Machine

__all__ = ["NumaRWLockSpec", "NumaRWLockHandle"]


@dataclass(frozen=True)
class NumaRWLockSpec(RWLockSpec):
    """Per-node reader counters plus a cohort writer lock.

    Args:
        machine: Machine hierarchy; reader counters live one per leaf element.
        max_local_passes: Cohort bound of the internal writer lock.
        home_rank: Rank hosting the writer-present flag and the global ticket
            words of the internal writer lock.
        base_offset: First window word used by this lock.
    """

    machine: Machine
    max_local_passes: int = 16
    home_rank: int = 0
    base_offset: int = 0
    writer_present_offset: int = field(init=False, default=0)
    readers_offset: int = field(init=False, default=0)
    writer_lock: CohortTicketLockSpec = field(init=False, default=None)  # type: ignore[assignment]

    def __post_init__(self) -> None:
        if not 0 <= self.home_rank < self.machine.num_processes:
            raise ValueError(f"home_rank {self.home_rank} out of range")
        alloc = LayoutAllocator(base=self.base_offset)
        object.__setattr__(self, "writer_present_offset", alloc.field("numarw_writer_present"))
        object.__setattr__(self, "readers_offset", alloc.field("numarw_readers"))
        writer_lock = CohortTicketLockSpec(
            machine=self.machine,
            max_local_passes=self.max_local_passes,
            home_rank=self.home_rank,
            base_offset=alloc.total_words,
        )
        object.__setattr__(self, "writer_lock", writer_lock)

    @property
    def num_processes(self) -> int:
        return self.machine.num_processes

    @property
    def window_words(self) -> int:
        return self.writer_lock.window_words

    def reader_counter_rank(self, rank: int) -> int:
        """Rank hosting the reader counter used by ``rank`` (its node's first rank)."""
        machine = self.machine
        leaf = machine.n_levels
        return machine.first_rank_of_element(leaf, machine.element_of(rank, leaf))

    def reader_counter_ranks(self) -> List[int]:
        """All ranks hosting a per-node reader counter."""
        machine = self.machine
        leaf = machine.n_levels
        return [
            machine.first_rank_of_element(leaf, element)
            for element in range(machine.num_elements(leaf))
        ]

    def init_window(self, rank: int) -> Mapping[int, int]:
        values = dict(self.writer_lock.init_window(rank))
        if rank == self.home_rank:
            values[self.writer_present_offset] = 0
        if rank == self.reader_counter_rank(rank):
            values[self.readers_offset] = 0
        return values

    def make(self, ctx: ProcessContext) -> "NumaRWLockHandle":
        return NumaRWLockHandle(self, ctx)


class NumaRWLockHandle(RWLockHandle):
    """Per-process handle: node-local reader counters, cohort-locked writers."""

    def __init__(self, spec: NumaRWLockSpec, ctx: ProcessContext):
        if ctx.nranks != spec.machine.num_processes:
            raise ValueError("lock spec and runtime disagree on the number of ranks")
        self.spec = spec
        self.ctx = ctx
        self._counter_rank = spec.reader_counter_rank(ctx.rank)
        self._writer_lock = spec.writer_lock.make(ctx)

    # ------------------------------------------------------------------ #
    # Reader side
    # ------------------------------------------------------------------ #

    def acquire_read_steps(self) -> Steps:
        spec = self.spec
        while True:
            # Wait until no writer is active or draining before registering.
            present = yield (GET, spec.home_rank, spec.writer_present_offset)
            yield (FLUSH, spec.home_rank)
            if present != 0:
                yield (SPIN_WHILE, spec.home_rank, spec.writer_present_offset, lambda v: v != 0)
            # Register on the node-local counter, then re-check for writers.
            yield (ACCUMULATE, 1, self._counter_rank, spec.readers_offset, AtomicOp.SUM)
            yield (FLUSH, self._counter_rank)
            present = yield (GET, spec.home_rank, spec.writer_present_offset)
            yield (FLUSH, spec.home_rank)
            if present == 0:
                return
            # A writer arrived between the check and the registration: back
            # off so it can drain, then try again.
            yield (ACCUMULATE, -1, self._counter_rank, spec.readers_offset, AtomicOp.SUM)
            yield (FLUSH, self._counter_rank)

    def release_read_steps(self) -> Steps:
        spec = self.spec
        yield (ACCUMULATE, -1, self._counter_rank, spec.readers_offset, AtomicOp.SUM)
        yield (FLUSH, self._counter_rank)

    # ------------------------------------------------------------------ #
    # Writer side
    # ------------------------------------------------------------------ #

    def acquire_write_steps(self) -> Steps:
        spec = self.spec
        yield from self._writer_lock.acquire_steps()
        yield (PUT, 1, spec.home_rank, spec.writer_present_offset)
        yield (FLUSH, spec.home_rank)
        # Wait for the readers registered on every node to drain.
        for counter_rank in spec.reader_counter_ranks():
            yield (SPIN_WHILE, counter_rank, spec.readers_offset, lambda v: v > 0)

    def release_write_steps(self) -> Steps:
        spec = self.spec
        yield (PUT, 0, spec.home_rank, spec.writer_present_offset)
        yield (FLUSH, spec.home_rank)
        yield from self._writer_lock.release_steps()


# --------------------------------------------------------------------------- #
# Registry entry (see repro.api).
# --------------------------------------------------------------------------- #

@register_scheme(
    "numa-rw",
    rw=True,
    category="related-rw",
    params=(
        ParamSpec(
            "max_local_passes", int, 16,
            "cohort bound of the internal writer lock",
            from_config=leaf_threshold_from_config,
        ),
    ),
    help="NUMA-aware RW lock with per-node reader counters (Calciu et al.)",
)
def _build_numa_rw(machine: Machine, max_local_passes: int = 16) -> NumaRWLockSpec:
    return NumaRWLockSpec(machine, max_local_passes=max_local_passes)
