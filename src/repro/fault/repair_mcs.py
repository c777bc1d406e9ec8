"""MCS queue lock with dead-waiter repair (and an intentionally racy mutant).

A plain MCS queue deadlocks the moment a *waiter* dies: the releaser grants
the lock to the dead waiter's node, and nobody downstream ever sees it.  This
scheme keeps the classic MCS structure — a TAIL word on a home rank, one
queue node (NEXT + STATUS words) in every rank's own window — and adds a
*repair walk* to release: before granting, the releaser consults the failure
detector (``ctx.fault``, see :mod:`repro.fault.plan`) and splices every dead
successor out of the queue.

The queue is D-MCS's (:class:`repro.core.dmcs.QueueNode`): acquire is its
Listing-2 join, and release reads, closes and polls through the node's
prebuilt requests, with the repair walk between finding the successor and
granting it.  The walk reads a dead successor through that rank's own
``QueueNode``.

The delicate step is a dead waiter at the queue tail.  The releaser cannot
just drop it: between reading the dead node's NULL next-pointer and closing
the queue with a CAS on TAIL, a *live* racer may have swapped itself behind
the dead node and be about to link.  The correct walk re-polls the dead
node's next pointer when the closing CAS fails — the racer's link write lands
in the dead rank's window (one-sided RMA keeps dead windows writable) and
wakes the poll.  The ``"repair-mcs-racy"`` mutant ships the classic wrong
version that skips the re-poll and treats the failed CAS as "queue drained":
the mid-enqueue racer is orphaned, the lock is lost, and the model checker
(:mod:`repro.verification.explorer` with ``crash="waiter-crash"``, on these
step programs) catches it as a deadlock.  Absent crashes the mutant issues
the exact same RMA sequence as the correct scheme, so it is safe to keep
registered (fingerprint gates never see the difference).

A crashed *holder* is not recoverable here — the queue has no lease to expire
— so holder-crash runs are expected-unavailable; that is exactly what the
``repro faults`` sweep asserts.  A *late* restart is fine: by the time the
victim revives (the sweep restarts it well past the unfaulted makespan), its
old node has been spliced out, and it re-enqueues from scratch.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

from repro.api.registry import ParamSpec, register_scheme
from repro.core.constants import NULL_RANK
from repro.core.dmcs import QueueNode
from repro.core.layout import LayoutAllocator
from repro.core.lock_base import LockHandle, LockSpec
from repro.fault.plan import declare_recovery
from repro.rma.runtime_base import FLUSH, PUT, ProcessContext, Steps

__all__ = ["RepairMCSLockSpec", "RepairMCSLockHandle", "RacyRepairMCSLockHandle"]

#: STATUS word values: a waiter spins while its status is _WAIT.
_WAIT = 0
_GRANTED = 1


@dataclass(frozen=True)
class RepairMCSLockSpec(LockSpec):
    """MCS queue with crash repair: TAIL on ``home_rank``, one node per rank.

    Args:
        num_processes: Number of ranks sharing the lock.
        home_rank: Rank whose window holds the queue TAIL word.
        racy: Select the intentionally broken repair walk (the mutant).
        base_offset: First window word used by the lock.
    """

    num_processes: int
    home_rank: int = 0
    racy: bool = False
    base_offset: int = 0
    tail_offset: int = field(init=False, default=0)
    next_offset: int = field(init=False, default=0)
    status_offset: int = field(init=False, default=0)

    def __post_init__(self) -> None:
        if self.num_processes < 1:
            raise ValueError("num_processes must be >= 1")
        if not 0 <= self.home_rank < self.num_processes:
            raise ValueError(f"home_rank {self.home_rank} out of range")
        alloc = LayoutAllocator(base=self.base_offset)
        # TAIL lives on home_rank only; NEXT/STATUS are per-rank node words.
        # All three get distinct offsets so the home rank's own node never
        # collides with the TAIL word.
        object.__setattr__(self, "tail_offset", alloc.field("repair_tail"))
        object.__setattr__(self, "next_offset", alloc.field("repair_next"))
        object.__setattr__(self, "status_offset", alloc.field("repair_status"))

    @property
    def window_words(self) -> int:
        return self.status_offset + 1

    def init_window(self, rank: int) -> Mapping[int, int]:
        init = {self.next_offset: NULL_RANK, self.status_offset: _WAIT}
        if rank == self.home_rank:
            init[self.tail_offset] = NULL_RANK
        return init

    def make(self, ctx: ProcessContext) -> "RepairMCSLockHandle":
        if self.racy:
            return RacyRepairMCSLockHandle(self, ctx)
        return RepairMCSLockHandle(self, ctx)


class RepairMCSLockHandle(LockHandle):
    """D-MCS's queue node plus the dead-successor repair walk."""

    def __init__(self, spec: RepairMCSLockSpec, ctx: ProcessContext):
        if ctx.nranks != spec.num_processes:
            raise ValueError("lock spec and runtime disagree on the number of ranks")
        self.spec = spec
        self.ctx = ctx
        self._queue = self._node(ctx.rank)

    def _node(self, rank: int) -> QueueNode:
        """``rank``'s node in this lock's queue."""
        spec = self.spec
        return QueueNode(rank, spec.home_rank, spec.next_offset, spec.status_offset, spec.tail_offset, _WAIT)

    def acquire_steps(self) -> Steps:
        return self._queue.join()

    def release_steps(self) -> Steps:
        queue = self._queue
        succ = yield queue.get_next
        yield queue.flush_node
        if succ == NULL_RANK:
            # No linked successor: try to close the queue.
            curr = yield queue.dequeue
            yield queue.flush_tail
            if curr == queue.node:
                return  # queue drained
            # A racer swapped behind us and is about to link: wait for it.
            succ = yield queue.spin_next
        yield from self._grant(succ)

    # -- repair walk ------------------------------------------------------- #

    def _grant(self, succ: int) -> Steps:
        """Grant the lock to ``succ``, splicing out dead successors first."""
        ctx = self.ctx
        fault = getattr(ctx, "fault", None)
        while fault is not None and fault.dead_at(succ, ctx.now()):
            dead = self._node(succ)
            nxt = yield dead.get_next
            yield dead.flush_node
            if nxt == NULL_RANK:
                # The dead successor looks like the tail: try to close the
                # queue over it.
                curr = yield dead.dequeue
                yield dead.flush_tail
                if curr == succ:
                    return  # queue drained; the lock is free again
                nxt = yield from self._settle_race(succ)
                if nxt == NULL_RANK:
                    return  # (racy mutant only: orphans the racer)
            succ = nxt
        yield (PUT, _GRANTED, succ, self.spec.status_offset)
        yield (FLUSH, succ)

    def _settle_race(self, dead: int) -> Steps:
        """The closing CAS lost: a racer is mid-enqueue behind ``dead``.

        The racer already swapped itself into TAIL and is about to write its
        link into the dead rank's NEXT word (dead windows stay writable —
        RMA is one-sided).  Re-poll that word until the link lands, then
        return it so the walk can continue to the racer.
        """
        return (yield self._node(dead).spin_next)


class RacyRepairMCSLockHandle(RepairMCSLockHandle):
    """The checker-caught mutant: drops the CAS-failed re-poll.

    Treating the failed closing CAS as "somebody else's problem" orphans the
    mid-enqueue racer: it links into the dead node that nobody will ever walk
    again, and spins forever.  Identical RMA behaviour to the parent class on
    every crash-free run.
    """

    def _settle_race(self, dead: int) -> Steps:
        return NULL_RANK  # WRONG: the racer linked (or will link) behind ``dead``.
        yield  # pragma: no cover - makes this function a generator


@register_scheme(
    "repair-mcs",
    category="fault",
    params=(
        ParamSpec("home_rank", int, 0, "rank holding the queue TAIL word", tunable=False),
    ),
    help="MCS queue lock that splices dead waiters out of the queue on release",
)
def _build_repair_mcs(machine, home_rank=0) -> RepairMCSLockSpec:
    return RepairMCSLockSpec(num_processes=machine.num_processes, home_rank=int(home_rank))


@register_scheme(
    "repair-mcs-racy",
    category="fault",
    params=(
        ParamSpec("home_rank", int, 0, "rank holding the queue TAIL word", tunable=False),
    ),
    help="INTENTIONALLY BROKEN repair-mcs variant (orphans a mid-enqueue racer); "
    "kept registered as the known mutant repro verify must catch (as a deadlock); "
    "the fault sweep skips it",
)
def _build_repair_mcs_racy(machine, home_rank=0) -> RepairMCSLockSpec:
    return RepairMCSLockSpec(
        num_processes=machine.num_processes, home_rank=int(home_rank), racy=True
    )


# Queue repair only helps when the *waiters* die; a dead holder never runs
# its release, so holder-crash stays expected-unavailable.  Late restarts are
# fine: the victim's old node is spliced out while it is dead, and it simply
# re-enqueues after revival.
declare_recovery("repair-mcs", ("waiter-crash", "restart"))
# The mutant intentionally declares the same capabilities, so that `repro
# verify` explores its waiter crash, where the orphaned racer surfaces as a
# deadlock.
declare_recovery("repair-mcs-racy", ("waiter-crash", "restart"))
