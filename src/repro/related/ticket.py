"""Distributed ticket lock: a fair, centralized FIFO baseline.

The ticket lock keeps two words on a single home rank: ``NEXT_TICKET`` (the
next ticket to hand out) and ``NOW_SERVING`` (the ticket currently allowed in
the critical section).  A process acquires by atomically fetching-and-adding
``NEXT_TICKET`` and then spinning until ``NOW_SERVING`` equals its ticket;
release increments ``NOW_SERVING``.

Compared with the foMPI-Spin baseline (test-and-set with back-off) the ticket
lock is FIFO-fair and free of CAS retry storms, but every waiter still spins
on the same remote word, so the home rank remains a scalability bottleneck —
exactly the behaviour the queue-based locks of Section 2 avoid by giving each
waiter a private spin location.  It is included as the strongest *centralized*
comparison target and as the building block of the cohort lock
(:mod:`repro.related.cohort`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

from repro.api.registry import ParamSpec, register_scheme
from repro.core.layout import LayoutAllocator
from repro.core.lock_base import LockHandle, LockSpec
from repro.rma.ops import AtomicOp
from repro.rma.runtime_base import (
    ACCUMULATE,
    FAO,
    FLUSH,
    GET,
    SPIN_WHILE,
    ProcessContext,
    Steps,
)

__all__ = ["TicketLockSpec", "TicketLockHandle"]


@dataclass(frozen=True)
class TicketLockSpec(LockSpec):
    """A FIFO ticket lock whose two words live on ``home_rank``.

    Args:
        num_processes: Total number of ranks that may use the lock.
        home_rank: Rank hosting ``NEXT_TICKET`` and ``NOW_SERVING``.
        base_offset: First window word used by this lock (two words are used).
    """

    num_processes: int
    home_rank: int = 0
    base_offset: int = 0
    next_ticket_offset: int = field(init=False, default=0)
    now_serving_offset: int = field(init=False, default=0)

    def __post_init__(self) -> None:
        if self.num_processes < 1:
            raise ValueError("num_processes must be >= 1")
        if not 0 <= self.home_rank < self.num_processes:
            raise ValueError(f"home_rank {self.home_rank} out of range")
        alloc = LayoutAllocator(base=self.base_offset)
        object.__setattr__(self, "next_ticket_offset", alloc.field("ticket_next"))
        object.__setattr__(self, "now_serving_offset", alloc.field("ticket_serving"))

    @property
    def window_words(self) -> int:
        return self.now_serving_offset + 1

    def init_window(self, rank: int) -> Mapping[int, int]:
        if rank != self.home_rank:
            return {}
        return {self.next_ticket_offset: 0, self.now_serving_offset: 0}

    def make(self, ctx: ProcessContext) -> "TicketLockHandle":
        return TicketLockHandle(self, ctx)


class TicketLockHandle(LockHandle):
    """Per-process ticket-lock handle: FAO for a ticket, spin on ``NOW_SERVING``."""

    def __init__(self, spec: TicketLockSpec, ctx: ProcessContext):
        if ctx.nranks != spec.num_processes:
            raise ValueError("lock spec and runtime disagree on the number of ranks")
        self.spec = spec
        self.ctx = ctx
        self._my_ticket: int | None = None

    def acquire_steps(self) -> Steps:
        spec = self.spec
        ticket = yield (FAO, 1, spec.home_rank, spec.next_ticket_offset, AtomicOp.SUM)
        yield (FLUSH, spec.home_rank)
        self._my_ticket = ticket
        serving = yield (GET, spec.home_rank, spec.now_serving_offset)
        yield (FLUSH, spec.home_rank)
        if serving == ticket:
            return
        yield (SPIN_WHILE, spec.home_rank, spec.now_serving_offset, lambda s: s != ticket)

    def release_steps(self) -> Steps:
        spec = self.spec
        if self._my_ticket is None:
            raise RuntimeError("release() without a matching acquire()")
        self._my_ticket = None
        yield (ACCUMULATE, 1, spec.home_rank, spec.now_serving_offset, AtomicOp.SUM)
        yield (FLUSH, spec.home_rank)

    # -- inspection --------------------------------------------------------- #

    def queue_length(self) -> int:
        """Number of processes currently holding or waiting for the lock."""
        ctx = self.ctx
        spec = self.spec
        nxt = ctx.get(spec.home_rank, spec.next_ticket_offset)
        serving = ctx.get(spec.home_rank, spec.now_serving_offset)
        ctx.flush(spec.home_rank)
        return max(0, nxt - serving)


# --------------------------------------------------------------------------- #
# Registry entry (see repro.api).
# --------------------------------------------------------------------------- #

@register_scheme(
    "ticket",
    category="related-mcs",
    params=(
        ParamSpec("home_rank", int, 0, "rank hosting NEXT_TICKET and NOW_SERVING", tunable=False),
    ),
    help="centralized FIFO ticket lock (strongest centralized baseline)",
    # Tickets are served in draw order: after the FAO that draws a ticket, at
    # most P - 1 earlier tickets (one per other rank) can be served first.
    fairness_bound=lambda p: p - 1,
)
def _build_ticket(machine, home_rank=0) -> TicketLockSpec:
    return TicketLockSpec(num_processes=machine.num_processes, home_rank=home_rank)
