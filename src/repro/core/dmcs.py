"""D-MCS: the distributed, topology-oblivious MCS lock (Section 2.4).

Processes waiting for the lock form a single queue that may span multiple
nodes.  Each process exposes, in its window, a pointer to its successor
(``NEXT``) and a spin flag (``STATUS``); one designated process
(``tail_rank``) additionally hosts the global queue-tail pointer (``TAIL``).
The acquire/release protocols follow Listings 2 and 3 of the paper verbatim.

D-MCS is both a comparison target in the evaluation (Figure 3) and the
building block of the topology-aware RMA-MCS and RMA-RW locks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

from repro.api.registry import register_scheme
from repro.core.constants import NULL_RANK
from repro.core.layout import LayoutAllocator
from repro.core.lock_base import LockHandle, LockSpec
from repro.rma.ops import AtomicOp
from repro.rma.runtime_base import (
    CAS,
    FAO,
    FLUSH,
    GET,
    PUT,
    SPIN_WHILE,
    ProcessContext,
    Steps,
)

__all__ = ["DMCSLockSpec", "DMCSLockHandle"]

#: STATUS value meaning "spin wait" (Listing 2 uses a boolean flag).
_WAITING = 1
#: STATUS value meaning "the lock has been passed to you".
_GRANTED = 0


@dataclass(frozen=True)
class DMCSLockSpec(LockSpec):
    """Shared description of one D-MCS lock instance.

    Args:
        num_processes: Total number of ranks that may use the lock.
        tail_rank: Rank hosting the global queue-tail pointer.
        base_offset: First window word used by this lock (three words are used).
    """

    num_processes: int
    tail_rank: int = 0
    base_offset: int = 0
    next_offset: int = field(init=False, default=0)
    status_offset: int = field(init=False, default=0)
    tail_offset: int = field(init=False, default=0)

    def __post_init__(self) -> None:
        if self.num_processes < 1:
            raise ValueError("num_processes must be >= 1")
        if not 0 <= self.tail_rank < self.num_processes:
            raise ValueError(f"tail_rank {self.tail_rank} out of range")
        alloc = LayoutAllocator(base=self.base_offset)
        object.__setattr__(self, "next_offset", alloc.field("dmcs_next"))
        object.__setattr__(self, "status_offset", alloc.field("dmcs_status"))
        object.__setattr__(self, "tail_offset", alloc.field("dmcs_tail"))

    @property
    def window_words(self) -> int:
        return self.tail_offset + 1

    def init_window(self, rank: int) -> Mapping[int, int]:
        values = {self.next_offset: NULL_RANK, self.status_offset: _GRANTED}
        if rank == self.tail_rank:
            values[self.tail_offset] = NULL_RANK
        return values

    def make(self, ctx: ProcessContext) -> "DMCSLockHandle":
        return DMCSLockHandle(self, ctx)


class DMCSLockHandle(LockHandle):
    """Per-process D-MCS handle implementing Listings 2 and 3."""

    def __init__(self, spec: DMCSLockSpec, ctx: ProcessContext):
        if ctx.nranks != spec.num_processes:
            raise ValueError(
                f"lock spec was built for {spec.num_processes} ranks but the runtime has {ctx.nranks}"
            )
        self.spec = spec
        self.ctx = ctx
        # The requests on this rank's own fields and on the tail never change: built once.
        p, tail = ctx.rank, spec.tail_rank
        self._clear_next = (PUT, NULL_RANK, p, spec.next_offset)
        self._set_waiting = (PUT, _WAITING, p, spec.status_offset)
        self._get_next = (GET, p, spec.next_offset)
        self._flush_mine = (FLUSH, p)
        self._enqueue = (FAO, p, tail, spec.tail_offset, AtomicOp.REPLACE)
        self._dequeue = (CAS, NULL_RANK, p, tail, spec.tail_offset)
        self._flush_tail = (FLUSH, tail)

    def acquire_steps(self) -> Steps:
        """Listing 2: enqueue at the tail and spin until the predecessor hands over."""
        spec = self.spec
        p = self.ctx.rank
        # Prepare local fields.
        yield self._clear_next
        yield self._set_waiting
        yield self._flush_mine
        # Enter the tail of the MCS queue and fetch the predecessor.
        pred = yield self._enqueue
        yield self._flush_tail
        if pred != NULL_RANK:
            # Make the predecessor see us, then spin locally until it hands over.
            yield (PUT, p, pred, spec.next_offset)
            yield (FLUSH, pred)
            yield (SPIN_WHILE, p, spec.status_offset, lambda waiting: waiting == _WAITING)

    def release_steps(self) -> Steps:
        """Listing 3: hand the lock to the successor, or clear the tail if alone."""
        spec = self.spec
        p = self.ctx.rank
        succ = yield self._get_next
        yield self._flush_mine
        if succ == NULL_RANK:
            # Maybe we are the only process in the queue.
            curr_rank = yield self._dequeue
            yield self._flush_tail
            if curr_rank == p:
                return
            # Somebody is enqueueing; wait until it makes itself visible.
            succ = yield (SPIN_WHILE, p, spec.next_offset, lambda nxt: nxt == NULL_RANK)
        # Notify the successor.
        yield (PUT, _GRANTED, succ, spec.status_offset)
        yield (FLUSH, succ)


# --------------------------------------------------------------------------- #
# Registry entry (see repro.api).
# --------------------------------------------------------------------------- #

@register_scheme(
    "d-mcs",
    category="mcs",
    help="distributed topology-oblivious MCS queue lock (Listings 2-3)",
    # The queue is strictly FIFO from the tail swap on: once enqueued, every
    # other rank can enter at most once before us (checked live by the
    # conformance oracles, and over every interleaving by verification.explorer).
    fairness_bound=lambda p: p - 1,
)
def _build_dmcs(machine) -> DMCSLockSpec:
    return DMCSLockSpec(num_processes=machine.num_processes)
