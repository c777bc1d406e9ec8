"""Centralized lock-server grant queue with a retry-vs-queue policy knob.

"Using RDMA for Lock Management" (arxiv 1507.03274) compares two ways a
client can wait for a centrally-managed lock: **retry** — poll the server's
lock state and re-attempt the claim when it looks free (cheap under low
contention, wasted round trips and reordering under load) — and **queue** —
register once in the server's grant queue and wait to be served (one
registration RMW, FIFO service, but a mandatory queue round trip even when
the lock is free).  The paper's point is that neither dominates: the right
choice flips with contention.

This scheme puts that trade on a single tunable axis.  The server rank hosts
a ticket pair ``(next_ticket, grant)``; the observed queue depth is
``next_ticket - grant``.  A client that sees ``depth > queue_threshold``
registers immediately (FAO on ``next_ticket`` — the queue path).  A client
at or below the threshold stays in retry mode: it polls with bounded
exponential backoff and claims the lock opportunistically with a
``CAS(next_ticket: g -> g+1)`` *only when the queue is empty* — the CAS
doubles as the registration, so a successful retry is indistinguishable from
an instantly-served queue entry and mutual exclusion stays a plain ticket
invariant (exactly one ticket equals ``grant`` at a time, and only its owner
increments ``grant``).

``queue_threshold = 0`` degenerates to a pure FIFO ticket queue;
``queue_threshold >= P`` degenerates to pure poll-retry (the paper's two
endpoints).  In between, retries can reorder arrivals without bound, so the
scheme declares no fairness bound.  Crash contract: none — a dead queued
waiter strands the grant cursor at its ticket, and a dead holder never
increments ``grant`` (the fault sweep reports both honestly).
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
    ACCUMULATE,
    CAS,
    COMPUTE,
    FAO,
    FLUSH,
    GET,
    SPIN_WHILE,
    ProcessContext,
    Steps,
)

__all__ = ["LockServerSpec", "LockServerHandle"]

#: Retry-mode poll backoff bounds (µs).
DEFAULT_POLL_CAP_US = 8.0
DEFAULT_MIN_BACKOFF_US = 0.5

#: Observed queue depth above which a client registers instead of retrying.
DEFAULT_QUEUE_THRESHOLD = 2


@dataclass(frozen=True)
class LockServerSpec(LockSpec):
    """A centralized grant-queue lock served from ``server_rank``.

    Args:
        num_processes: Number of ranks sharing the lock.
        server_rank: Rank whose window holds the ticket pair.
        queue_threshold: Observed queue depth above which clients stop
            retrying and register in the grant queue.
        poll_cap_us: Retry-mode backoff cap (virtual microseconds).
        min_backoff_us: Initial retry backoff; doubles up to the cap.
        base_offset: First window word used by the lock (two words).
    """

    num_processes: int
    server_rank: int = 0
    queue_threshold: int = DEFAULT_QUEUE_THRESHOLD
    poll_cap_us: float = DEFAULT_POLL_CAP_US
    min_backoff_us: float = DEFAULT_MIN_BACKOFF_US
    base_offset: int = 0
    next_offset: int = field(init=False, default=0)
    grant_offset: int = field(init=False, default=0)

    def __post_init__(self) -> None:
        if self.num_processes < 1:
            raise ValueError("num_processes must be >= 1")
        if not 0 <= self.server_rank < self.num_processes:
            raise ValueError(f"server_rank {self.server_rank} out of range")
        if self.queue_threshold < 0:
            raise ValueError("queue_threshold must be >= 0")
        if self.min_backoff_us <= 0:
            raise ValueError("min_backoff_us must be positive")
        if self.poll_cap_us < self.min_backoff_us:
            raise ValueError("poll_cap_us must be >= min_backoff_us")
        alloc = LayoutAllocator(base=self.base_offset)
        object.__setattr__(self, "next_offset", alloc.field("lsv_next_ticket"))
        object.__setattr__(self, "grant_offset", alloc.field("lsv_grant"))

    @property
    def window_words(self) -> int:
        return self.grant_offset + 1

    def init_window(self, rank: int) -> Mapping[int, int]:
        if rank != self.server_rank:
            return {}
        return {self.next_offset: 0, self.grant_offset: 0}

    def make(self, ctx: ProcessContext) -> "LockServerHandle":
        return LockServerHandle(self, ctx)


class LockServerHandle(LockHandle):
    """Per-client handle: poll-retry below the threshold, queue above it."""

    def __init__(self, spec: LockServerSpec, ctx: ProcessContext):
        if ctx.nranks != spec.num_processes:
            raise ValueError("lock spec and runtime disagree on the number of ranks")
        self.spec = spec
        self.ctx = ctx
        self._ticket = -1
        #: Poll rounds of the most recent acquire (0 = queued immediately).
        self.last_polls = 0

    def acquire_steps(self) -> Steps:
        ctx = self.ctx
        spec = self.spec
        server = spec.server_rank
        backoff = spec.min_backoff_us
        polls = 0
        while True:
            nt = yield (GET, server, spec.next_offset)
            grant = yield (GET, server, spec.grant_offset)
            yield (FLUSH, server)
            depth = nt - grant
            if depth > spec.queue_threshold:
                # Contended past the policy threshold: register in the queue.
                ticket = yield (FAO, 1, server, spec.next_offset, AtomicOp.SUM)
                yield (FLUSH, server)
                break
            if depth == 0:
                # Retry claim: take ticket ``nt`` iff nobody registered since
                # the read — the CAS *is* the registration, so the ticket
                # invariant (unique tickets, served in order) is untouched.
                prev = yield (CAS, nt + 1, nt, server, spec.next_offset)
                yield (FLUSH, server)
                if prev == nt:
                    ticket = nt
                    break
            polls += 1
            yield (COMPUTE, (0.5 + 0.5 * ctx.rng.random()) * backoff)  # = rng.uniform(0.5, 1.0)
            backoff = min(backoff * 2.0, spec.poll_cap_us)
        self._ticket = ticket
        self.last_polls = polls
        yield (SPIN_WHILE, server, spec.grant_offset, lambda g: g != ticket)

    def release_steps(self) -> Steps:
        spec = self.spec
        self._ticket = -1
        yield (ACCUMULATE, 1, spec.server_rank, spec.grant_offset, AtomicOp.SUM)
        yield (FLUSH, spec.server_rank)


# --------------------------------------------------------------------------- #
# Registry entry (see repro.api).
# --------------------------------------------------------------------------- #

@register_scheme(
    "lock-server",
    category="related-mcs",
    params=(
        ParamSpec("server_rank", int, 0, "rank serving the grant queue", tunable=False),
        ParamSpec(
            "queue_threshold", int, DEFAULT_QUEUE_THRESHOLD,
            "observed queue depth above which clients register instead of retrying",
        ),
        ParamSpec("poll_cap_us", float, DEFAULT_POLL_CAP_US, "retry-mode backoff cap [us]"),
        ParamSpec("min_backoff_us", float, DEFAULT_MIN_BACKOFF_US, "initial retry backoff; doubles up to the cap [us]"),
    ),
    help="centralized lock-server grant queue with a retry-vs-queue policy threshold (arxiv 1507.03274)",
)
def _build_lock_server(
    machine,
    server_rank: int = 0,
    queue_threshold: int = DEFAULT_QUEUE_THRESHOLD,
    poll_cap_us: float = DEFAULT_POLL_CAP_US,
    min_backoff_us: float = DEFAULT_MIN_BACKOFF_US,
) -> LockServerSpec:
    return LockServerSpec(
        num_processes=machine.num_processes,
        server_rank=int(server_rank),
        queue_threshold=int(queue_threshold),
        poll_cap_us=float(poll_cap_us),
        min_backoff_us=float(min_backoff_us),
    )


# No recovery path: a dead queued waiter parks the grant cursor at its ticket
# forever, and a dead holder never increments ``grant``.  The empty contract
# is declared so the registry (and the README lock-family matrix) states the
# non-recovery explicitly; the fault sweep reports dead retry-mode pollers as
# "tolerated" and stranded queues as "expected-unavailable".
declare_recovery("lock-server", ())
