"""MCS queue lock with dead-waiter repair (and an intentionally racy mutant).

A plain MCS queue deadlocks the moment a *waiter* dies: the releaser grants
the lock to the dead waiter's node, and nobody downstream ever sees it.  This
scheme keeps the classic MCS structure — a TAIL word on a home rank, one
queue node (NEXT + STATUS words) in every rank's own window — and adds a
*repair walk* to release: before granting, the releaser consults the failure
detector (``ctx.fault``, see :mod:`repro.fault.plan`) and splices every dead
successor out of the queue.

The delicate step is a dead waiter at the queue tail.  The releaser cannot
just drop it: between reading the dead node's NULL next-pointer and closing
the queue with a CAS on TAIL, a *live* racer may have swapped itself behind
the dead node and be about to link.  The correct walk re-polls the dead
node's next pointer when the closing CAS fails — the racer's link write lands
in the dead rank's window (one-sided RMA keeps dead windows writable) and
wakes the poll.  The ``"repair-mcs-racy"`` mutant ships the classic wrong
version that skips the re-poll and treats the failed CAS as "queue drained":
the mid-enqueue racer is orphaned, the lock is lost, and the recovery oracles
and the crash-extended impl model (:func:`repro.verification.impl_model.\
repair_queue_impl_model`) both catch it.  Absent crashes the mutant issues
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
from repro.core.layout import LayoutAllocator
from repro.core.lock_base import LockHandle, LockSpec
from repro.fault.plan import declare_recovery
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
        init = {self.next_offset: 0, self.status_offset: _WAIT}
        if rank == self.home_rank:
            init[self.tail_offset] = 0
        return init

    def make(self, ctx: ProcessContext) -> "RepairMCSLockHandle":
        if self.racy:
            return RacyRepairMCSLockHandle(self, ctx)
        return RepairMCSLockHandle(self, ctx)


class RepairMCSLockHandle(LockHandle):
    """Classic MCS enqueue/grant plus the dead-successor repair walk."""

    def __init__(self, spec: RepairMCSLockSpec, ctx: ProcessContext):
        if ctx.nranks != spec.num_processes:
            raise ValueError("lock spec and runtime disagree on the number of ranks")
        self.spec = spec
        self.ctx = ctx

    def acquire_steps(self) -> Steps:
        spec = self.spec
        me = self.ctx.rank
        # Reset this rank's queue node, then swap into the tail.
        yield (PUT, 0, me, spec.next_offset)
        yield (PUT, _WAIT, me, spec.status_offset)
        yield (FLUSH, me)
        prev = yield (FAO, me + 1, spec.home_rank, spec.tail_offset, AtomicOp.REPLACE)
        yield (FLUSH, spec.home_rank)
        if prev == 0:
            return  # queue was empty: lock acquired
        pred = prev - 1
        yield (PUT, me + 1, pred, spec.next_offset)
        yield (FLUSH, pred)
        yield (SPIN_WHILE, me, spec.status_offset, lambda v: v == _WAIT)

    def release_steps(self) -> Steps:
        spec = self.spec
        me = self.ctx.rank
        nxt = yield (GET, me, spec.next_offset)
        yield (FLUSH, me)
        if nxt == 0:
            # No linked successor: try to close the queue.
            prev = yield (CAS, 0, me + 1, spec.home_rank, spec.tail_offset)
            yield (FLUSH, spec.home_rank)
            if prev == me + 1:
                return  # queue drained
            # A racer swapped behind us and is about to link: wait for it.
            nxt = yield (SPIN_WHILE, me, spec.next_offset, lambda v: v == 0)
        yield from self._grant(nxt - 1)

    # -- repair walk ------------------------------------------------------- #

    def _grant(self, succ: int) -> Steps:
        """Grant the lock to ``succ``, splicing out dead successors first."""
        ctx = self.ctx
        spec = self.spec
        fault = getattr(ctx, "fault", None)
        while fault is not None and fault.dead_at(succ, ctx.now()):
            nn = yield (GET, succ, spec.next_offset)
            yield (FLUSH, succ)
            if nn == 0:
                # The dead successor looks like the tail: try to close the
                # queue over it.
                prev = yield (CAS, 0, succ + 1, spec.home_rank, spec.tail_offset)
                yield (FLUSH, spec.home_rank)
                if prev == succ + 1:
                    return  # queue drained; the lock is free again
                nn = yield from self._settle_race(succ)
                if nn == 0:
                    return  # (racy mutant only: orphans the racer)
            succ = nn - 1
        yield (PUT, _GRANTED, succ, spec.status_offset)
        yield (FLUSH, succ)

    def _settle_race(self, dead: int) -> Steps:
        """The closing CAS lost: a racer is mid-enqueue behind ``dead``.

        The racer already swapped itself into TAIL and is about to write its
        link into the dead rank's NEXT word (dead windows stay writable —
        RMA is one-sided).  Re-poll that word until the link lands, then
        return it so the walk can continue to the racer.
        """
        return (yield (SPIN_WHILE, dead, self.spec.next_offset, lambda v: v == 0))


class RacyRepairMCSLockHandle(RepairMCSLockHandle):
    """The checker-caught mutant: drops the CAS-failed re-poll.

    Treating the failed closing CAS as "somebody else's problem" orphans the
    mid-enqueue racer: it links into the dead node that nobody will ever walk
    again, and spins forever.  Identical RMA behaviour to the parent class on
    every crash-free run.
    """

    def _settle_race(self, dead: int) -> Steps:
        return 0  # WRONG: the racer linked (or will link) behind ``dead``.
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
    "kept registered to prove the recovery oracles catch it",
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
# The mutant intentionally declares the same capabilities so the sweep HOLDS
# it to the recovering bar — that is how its bug surfaces as a violation
# instead of an expected-unavailability.
declare_recovery("repair-mcs-racy", ("waiter-crash", "restart"))
