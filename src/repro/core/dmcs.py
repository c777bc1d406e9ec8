"""D-MCS: the distributed, topology-oblivious MCS lock (Section 2.4).

Processes waiting for the lock form a single queue that may span multiple
nodes.  Each process exposes, in its window, a pointer to its successor
(``NEXT``) and a spin flag (``STATUS``); one designated process
(``tail_rank``) additionally hosts the global queue-tail pointer (``TAIL``).

D-MCS is both a comparison target in the evaluation (Figure 3) and the
building block of the other queue locks.  Its protocol lives here once:
:meth:`QueueNode.join` is Listing 2 and :meth:`QueueNode.close` is
Listing 3, over one record of prebuilt requests.  :class:`DMCSLockHandle`
runs them on one queue; RMA-MCS and RMA-RW run them at every level of their
tree (:mod:`repro.core.tree`, Listings 4/5, and RMA-RW's root, Listings
7/8), and ALock's remote ranks on its remote queue
(:mod:`repro.related.alock`).  ``repair-mcs`` (:mod:`repro.fault.repair_mcs`)
joins with :meth:`QueueNode.join` and releases through the node's prebuilt
requests, with its dead-successor repair walk before the hand-over.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Mapping

from repro.api.registry import register_scheme
from repro.core.constants import ACQUIRE_START, NULL_RANK
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

__all__ = ["DMCSLockSpec", "DMCSLockHandle", "QueueNode"]

#: STATUS value meaning "spin wait" (Listing 2 uses a boolean flag).
_WAITING = 1
#: STATUS value meaning "the lock has been passed to you".
_GRANTED = 0


def _unlinked(nxt: int) -> bool:
    return nxt == NULL_RANK


#: ``wait`` -> the predicate "STATUS still reads ``wait``", one per value,
#: shared by every node that spins on it.
_STILL_WAITING: Dict[int, Callable[[int], bool]] = {}
_REPLACE = AtomicOp.REPLACE  # read once: an enum member lookup is not free


class QueueNode:
    """One process's node in one MCS queue, with the requests on it built once.

    ``node`` hosts the node's ``NEXT`` / ``STATUS`` words (at ``next_off`` /
    ``status_off``), ``tail_host`` the queue's ``TAIL`` (at ``tail_off``);
    ``wait`` is the STATUS value a waiter spins on.  Every queue lock runs
    its queue through :meth:`join` and :meth:`close`.
    """

    __slots__ = (
        "node", "tail_host", "next_off", "status_off", "tail_off", "clear_next", "set_wait", "set_start",
        "get_next", "get_status", "flush_node", "enqueue", "dequeue", "flush_tail", "spin_status", "spin_next",
    )

    def __init__(self, node: int, tail_host: int, next_off: int, status_off: int, tail_off: int, wait: int):
        self.node, self.tail_host = node, tail_host
        self.next_off, self.status_off, self.tail_off = next_off, status_off, tail_off
        self.clear_next = (PUT, NULL_RANK, node, next_off)
        self.set_wait = (PUT, wait, node, status_off)
        self.set_start = (PUT, ACQUIRE_START, node, status_off)
        self.get_next = (GET, node, next_off)
        self.get_status = (GET, node, status_off)
        self.flush_node = (FLUSH, node)
        self.enqueue = (FAO, node, tail_host, tail_off, _REPLACE)
        self.dequeue = (CAS, NULL_RANK, node, tail_host, tail_off)
        self.flush_tail = (FLUSH, tail_host)
        waiting = _STILL_WAITING.get(wait)
        if waiting is None:
            waiting = _STILL_WAITING[wait] = lambda status: status == wait
        self.spin_status = (SPIN_WHILE, node, status_off, waiting)
        self.spin_next = (SPIN_WHILE, node, next_off, _unlinked)

    def join(self) -> Steps:
        """Listing 2: enqueue at the tail and spin until the predecessor hands
        over.  Returns the STATUS handed over, or None if the queue was empty."""
        yield self.clear_next
        yield self.set_wait
        yield self.flush_node
        pred = yield self.enqueue
        yield self.flush_tail
        if pred == NULL_RANK:
            return None
        # Make the predecessor see us, then spin locally until it hands over.
        yield (PUT, self.node, pred, self.next_off)
        yield (FLUSH, pred)
        return (yield self.spin_status)

    def close(self, succ: int, status: int) -> Steps:
        """Listing 3 from the successor read out of ``NEXT``: hand ``status`` to
        ``succ``; with none known, swing the tail back to empty or, if somebody
        is enqueueing, wait until it links in and hand it over.  Returns the
        successor, or NULL_RANK when the queue was closed."""
        if succ == NULL_RANK:
            curr = yield self.dequeue
            yield self.flush_tail
            if curr == self.node:
                return NULL_RANK
            succ = yield self.spin_next
        yield (PUT, status, succ, self.status_off)
        yield (FLUSH, succ)
        return succ


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
        self._queue = QueueNode(
            ctx.rank, spec.tail_rank, spec.next_offset, spec.status_offset, spec.tail_offset, _WAITING
        )

    def acquire_steps(self) -> Steps:
        """Listing 2: enqueue at the tail and spin until the predecessor hands over."""
        return self._queue.join()

    def release_steps(self) -> Steps:
        """Listing 3: hand the lock to the successor, or clear the tail if alone."""
        queue = self._queue
        succ = yield queue.get_next
        yield queue.flush_node
        yield from queue.close(succ, _GRANTED)


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
