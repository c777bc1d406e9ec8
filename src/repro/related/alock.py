"""Asymmetric local/remote lock (the ALock design point, arxiv 2404.17980).

ALock observes that in a disaggregated/RDMA setting the ranks co-located
with a lock's memory can use cheap loopback atomics while everyone else pays
a network round trip per retry — so it gives the two populations *different
acquisition protocols* over one shared grant word:

* **local ranks** (same compute node as ``home_rank``) take the *fast path*:
  a bounded-exponential-backoff CAS loop directly on the owner word in the
  home node's slab — the cheap loopback retry;
* **remote ranks** take the *slow path*: they enqueue through an MCS-style
  descriptor (one ``next``/``status`` pair in their own window, the shared
  tail on the home rank), so at most **one** remote rank — the queue head —
  competes on the owner word at a time.  Remote retries are paced by a wider
  backoff cap, mirroring the network-latency asymmetry.

Mutual exclusion rests entirely on the single owner word: both paths enter
only through a successful ``CAS(free -> rank)``, so the queue machinery can
only affect *who* competes, never *how many* hold.  The asymmetry is honest
about fairness: local ranks can barge past the remote queue head without
bound (the design's throughput-for-fairness trade), so the scheme declares
no fairness bound and the bypass oracle is not gated for it.  Remote ranks
are FIFO among themselves.

Crash behaviour matches plain MCS: a dead local retrier simply stops CASing
(tolerated), but a dead remote waiter or holder strands the descriptor
queue — the scheme declares recovery from no scenario, and the fault sweep
reports the resulting unavailability honestly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

from repro.api.registry import ParamSpec, register_scheme
from repro.core.constants import NULL_RANK
from repro.core.layout import LayoutAllocator
from repro.core.lock_base import LockHandle, LockSpec
from repro.fault.plan import declare_recovery
from repro.rma.ops import AtomicOp
from repro.rma.runtime_base import (
    CAS,
    COMPUTE,
    FAO,
    FLUSH,
    GET,
    PUT,
    SPIN_WHILE,
    ProcessContext,
    Steps,
)
from repro.topology.machine import Machine

__all__ = ["ALockSpec", "ALockHandle"]

#: Remote-queue status values (per-rank status word).
_WAIT = 0
_HEAD = 1

#: Default backoff caps (µs): locals retry an order of magnitude more often
#: than the remote queue head, mirroring the loopback/network latency ratio.
DEFAULT_LOCAL_CAP_US = 2.0
DEFAULT_REMOTE_CAP_US = 20.0
DEFAULT_MIN_BACKOFF_US = 0.3


@dataclass(frozen=True)
class ALockSpec(LockSpec):
    """An asymmetric local/remote lock homed on ``home_rank``.

    Args:
        machine: Machine hierarchy (classifies ranks as local/remote to the
            home node and sizes the per-rank descriptor windows).
        home_rank: Rank hosting the owner word and the remote-queue tail.
        local_cap_us: Fast-path CAS backoff cap for node-local ranks.
        remote_cap_us: Owner-word backoff cap for the remote queue head.
        min_backoff_us: Initial backoff; doubles (up to the cap) per retry.
        base_offset: First window word used by this lock (four words).
    """

    machine: Machine
    home_rank: int = 0
    local_cap_us: float = DEFAULT_LOCAL_CAP_US
    remote_cap_us: float = DEFAULT_REMOTE_CAP_US
    min_backoff_us: float = DEFAULT_MIN_BACKOFF_US
    base_offset: int = 0
    owner_offset: int = field(init=False, default=0)
    tail_offset: int = field(init=False, default=0)
    next_offset: int = field(init=False, default=0)
    status_offset: int = field(init=False, default=0)

    def __post_init__(self) -> None:
        if not 0 <= self.home_rank < self.machine.num_processes:
            raise ValueError(f"home_rank {self.home_rank} out of range")
        if self.min_backoff_us <= 0:
            raise ValueError("min_backoff_us must be positive")
        if self.local_cap_us < self.min_backoff_us:
            raise ValueError("local_cap_us must be >= min_backoff_us")
        if self.remote_cap_us < self.local_cap_us:
            raise ValueError("remote_cap_us must be >= local_cap_us")
        alloc = LayoutAllocator(base=self.base_offset)
        object.__setattr__(self, "owner_offset", alloc.field("alock_owner"))
        object.__setattr__(self, "tail_offset", alloc.field("alock_tail"))
        object.__setattr__(self, "next_offset", alloc.field("alock_next"))
        object.__setattr__(self, "status_offset", alloc.field("alock_status"))

    @property
    def num_processes(self) -> int:
        return self.machine.num_processes

    @property
    def window_words(self) -> int:
        return self.status_offset + 1

    def is_local(self, rank: int) -> bool:
        """Whether ``rank`` takes the fast path (same node as the home rank)."""
        return self.machine.same_node(rank, self.home_rank)

    def init_window(self, rank: int) -> Mapping[int, int]:
        window = {self.next_offset: NULL_RANK, self.status_offset: _WAIT}
        if rank == self.home_rank:
            window[self.owner_offset] = NULL_RANK
            window[self.tail_offset] = NULL_RANK
        return window

    def make(self, ctx: ProcessContext) -> "ALockHandle":
        return ALockHandle(self, ctx)


class ALockHandle(LockHandle):
    """Per-process ALock handle: CAS fast path or MCS slow path by locality."""

    def __init__(self, spec: ALockSpec, ctx: ProcessContext):
        if ctx.nranks != spec.machine.num_processes:
            raise ValueError("lock spec and runtime disagree on the number of ranks")
        self.spec = spec
        self.ctx = ctx
        self._local = spec.is_local(ctx.rank)
        #: Owner-word CAS attempts of the most recent acquire (for analysis).
        self.last_attempts = 0

    def _claim_owner(self, cap_us: float) -> Steps:
        """Spin-CAS the owner word with bounded exponential backoff."""
        ctx = self.ctx
        spec = self.spec
        backoff = spec.min_backoff_us
        attempts = 0
        while True:
            attempts += 1
            prev = yield (CAS, ctx.rank, NULL_RANK, spec.home_rank, spec.owner_offset)
            yield (FLUSH, spec.home_rank)
            if prev == NULL_RANK:
                self.last_attempts = attempts
                return
            yield (COMPUTE, (0.5 + 0.5 * ctx.rng.random()) * backoff)  # = rng.uniform(0.5, 1.0)
            backoff = min(backoff * 2.0, cap_us)

    def acquire_steps(self) -> Steps:
        spec = self.spec
        me = self.ctx.rank
        if self._local:
            yield from self._claim_owner(spec.local_cap_us)
            return
        # Remote slow path: MCS enqueue, then only the head claims the owner.
        yield (PUT, NULL_RANK, me, spec.next_offset)
        yield (PUT, _WAIT, me, spec.status_offset)
        yield (FLUSH, me)
        pred = yield (FAO, me, spec.home_rank, spec.tail_offset, AtomicOp.REPLACE)
        yield (FLUSH, spec.home_rank)
        if pred != NULL_RANK:
            yield (PUT, me, pred, spec.next_offset)
            yield (FLUSH, pred)
            yield (SPIN_WHILE, me, spec.status_offset, lambda s: s == _WAIT)
        yield from self._claim_owner(spec.remote_cap_us)

    def release_steps(self) -> Steps:
        spec = self.spec
        me = self.ctx.rank
        yield (PUT, NULL_RANK, spec.home_rank, spec.owner_offset)
        yield (FLUSH, spec.home_rank)
        if self._local:
            return
        # Hand the remote-queue headship to the successor (plain MCS exit).
        succ = yield (GET, me, spec.next_offset)
        yield (FLUSH, me)
        if succ == NULL_RANK:
            curr = yield (CAS, NULL_RANK, me, spec.home_rank, spec.tail_offset)
            yield (FLUSH, spec.home_rank)
            if curr == me:
                return
            succ = yield (SPIN_WHILE, me, spec.next_offset, lambda nxt: nxt == NULL_RANK)
        yield (PUT, _HEAD, succ, spec.status_offset)
        yield (FLUSH, succ)

    # -- inspection --------------------------------------------------------- #

    def holder(self) -> int:
        """Rank currently holding the lock (``NULL_RANK`` when free)."""
        ctx = self.ctx
        spec = self.spec
        value = ctx.get(spec.home_rank, spec.owner_offset)
        ctx.flush(spec.home_rank)
        return value


# --------------------------------------------------------------------------- #
# Registry entry (see repro.api).
# --------------------------------------------------------------------------- #

@register_scheme(
    "alock",
    category="related-mcs",
    params=(
        ParamSpec("home_rank", int, 0, "rank hosting the owner word and remote tail", tunable=False),
        ParamSpec("local_cap_us", float, DEFAULT_LOCAL_CAP_US, "fast-path CAS backoff cap for node-local ranks [us]"),
        ParamSpec("remote_cap_us", float, DEFAULT_REMOTE_CAP_US, "owner-word backoff cap for the remote queue head [us]"),
        ParamSpec("min_backoff_us", float, DEFAULT_MIN_BACKOFF_US, "initial backoff; doubles up to the cap [us]"),
    ),
    help="asymmetric local/remote lock: local CAS fast path + remote MCS queue (ALock, arxiv 2404.17980)",
)
def _build_alock(
    machine: Machine,
    home_rank: int = 0,
    local_cap_us: float = DEFAULT_LOCAL_CAP_US,
    remote_cap_us: float = DEFAULT_REMOTE_CAP_US,
    min_backoff_us: float = DEFAULT_MIN_BACKOFF_US,
) -> ALockSpec:
    return ALockSpec(
        machine,
        home_rank=int(home_rank),
        local_cap_us=float(local_cap_us),
        remote_cap_us=float(remote_cap_us),
        min_backoff_us=float(min_backoff_us),
    )


# The descriptor queue has no repair walk and no leases: a dead remote waiter
# or holder strands the queue, and a dead local retrier merely stops CASing.
# Declaring the empty contract makes the non-recovery explicit in the
# registry (the fault sweep then reports "tolerated"/"expected-unavailable"
# honestly instead of implying an undeclared-but-working recovery path).
declare_recovery("alock", ())
