"""Lease-based timeout lock with epoch fencing (crash-recovering mutex).

The standard production answer to a crashed lock holder is a *lease*: the
holder owns the lock only until a deadline, and a waiter that observes the
deadline in the past may take the lock over ("Using RDMA for Lock
Management", arxiv 1507.03274, evaluates exactly this design point).  Two
hazards come with leases, and this scheme closes both:

* **Double grant.**  A waiter must never take over while the holder is alive
  and still inside its critical section.  The lease term (default 500 virtual
  microseconds) is chosen far above any critical-section length in this
  repository, so an unexpired lease implies a live holder — the recovery
  oracle (:class:`repro.verification.oracles.RecoveryOracleObserver`) checks
  the complement: no takeover before a crashed holder's lease expired.
* **Stale release.**  A holder whose lease expired (it was descheduled, or
  it is a zombie the detector gave up on) must not free the lock out from
  under the new owner.  The entire lock is ONE home-rank word packing
  ``(deadline, epoch, owner)``; release is a full-word CAS against the exact
  word the holder installed, so a takeover — which installs a new word with a
  later deadline and a bumped epoch — makes the stale release's CAS fail.
  The failed CAS is the *fence*: the stale holder writes nothing and reports
  the fenced release through the observer hook.

ABA safety: deadlines are integral microseconds computed from the acquiring
rank's clock, and clocks only move forward, so no two holds of the same lock
ever install the same word — a full-word CAS can never be fooled by a
recycled value.

Waiters poll with exponential back-off instead of parking on the lock word:
a parked waiter is only woken by a write, and a crashed holder never writes.
Polling bounded by ``patience_us`` turns an unrecoverable situation into a
:class:`repro.fault.LockTimeout` instead of a hang.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Tuple

from repro.api.registry import ParamSpec, register_scheme
from repro.core.layout import LayoutAllocator
from repro.core.lock_base import LockHandle, LockSpec
from repro.fault.plan import FAULT_SCENARIOS, LockTimeout, declare_recovery
from repro.rma.runtime_base import (
    CAS,
    COMPUTE,
    FLUSH,
    GET,
    ProcessContext,
    Steps,
    observer_hook,
)

__all__ = ["LeaseLockSpec", "LeaseLockHandle"]

#: Bit layout of the single lock word: owner+1 in the low bits, the fencing
#: epoch above it, the lease deadline (integral microseconds) on top.
_OWNER_BITS = 10
_EPOCH_BITS = 28
_EPOCH_SHIFT = _OWNER_BITS
_DEADLINE_SHIFT = _OWNER_BITS + _EPOCH_BITS
_OWNER_MASK = (1 << _OWNER_BITS) - 1
_EPOCH_MASK = (1 << _EPOCH_BITS) - 1

#: Poll back-off bounds in virtual microseconds.
_BACKOFF_MIN_US = 2.0
_BACKOFF_MAX_US = 32.0

#: Default lease term: far above every critical-section length used by the
#: benchmarks/tests, so an unexpired lease implies a live holder.
DEFAULT_LEASE_US = 500.0

#: Default patience: how long a waiter polls before giving up with
#: LockTimeout.  Generous — many leases — so it only fires when the lock is
#: truly unrecoverable.
DEFAULT_PATIENCE_US = 50_000.0


def _pack(deadline_us: int, epoch: int, rank: int) -> int:
    return (deadline_us << _DEADLINE_SHIFT) | ((epoch & _EPOCH_MASK) << _EPOCH_SHIFT) | (rank + 1)


def _unpack(word: int) -> Tuple[int, int, int]:
    """(deadline_us, epoch, owner_rank) of a non-zero lock word."""
    return (
        word >> _DEADLINE_SHIFT,
        (word >> _EPOCH_SHIFT) & _EPOCH_MASK,
        (word & _OWNER_MASK) - 1,
    )


@dataclass(frozen=True)
class LeaseLockSpec(LockSpec):
    """A single-word lease lock on ``home_rank``.

    Args:
        num_processes: Number of ranks sharing the lock.
        home_rank: Rank whose window holds the lock word.
        lease_us: Lease term granted to each holder (virtual microseconds).
        patience_us: Polling bound before acquire raises LockTimeout.
        base_offset: First window word used by the lock.
    """

    num_processes: int
    home_rank: int = 0
    lease_us: float = DEFAULT_LEASE_US
    patience_us: float = DEFAULT_PATIENCE_US
    base_offset: int = 0
    lock_offset: int = field(init=False, default=0)

    def __post_init__(self) -> None:
        if self.num_processes < 1:
            raise ValueError("num_processes must be >= 1")
        if self.num_processes > _OWNER_MASK - 1:
            raise ValueError(f"lease lock supports at most {_OWNER_MASK - 1} ranks")
        if not 0 <= self.home_rank < self.num_processes:
            raise ValueError(f"home_rank {self.home_rank} out of range")
        if self.lease_us <= 0:
            raise ValueError("lease_us must be positive")
        if self.patience_us <= 0:
            raise ValueError("patience_us must be positive")
        alloc = LayoutAllocator(base=self.base_offset)
        object.__setattr__(self, "lock_offset", alloc.field("lease_lock"))

    @property
    def window_words(self) -> int:
        return self.lock_offset + 1

    def init_window(self, rank: int) -> Mapping[int, int]:
        return {self.lock_offset: 0} if rank == self.home_rank else {}

    def make(self, ctx: ProcessContext) -> "LeaseLockHandle":
        return LeaseLockHandle(self, ctx)


class LeaseLockHandle(LockHandle):
    """Poll/CAS acquire with lease takeover; full-word CAS release with fencing."""

    def __init__(self, spec: LeaseLockSpec, ctx: ProcessContext):
        if ctx.nranks != spec.num_processes:
            raise ValueError("lock spec and runtime disagree on the number of ranks")
        self.spec = spec
        self.ctx = ctx
        #: The exact word this handle installed on acquire (0 = not holding).
        self._held_word = 0

    def _deadline(self, now: float) -> int:
        # Integral, strictly after ``now`` even when now is integral itself;
        # deadlines grow monotonically because rank clocks only move forward.
        return int(now + self.spec.lease_us) + 1

    def _announce_lease(self, deadline_us: int) -> None:
        # Let recovery oracles judge takeover legality against the exact
        # deadline we installed, instead of reconstructing it from timestamps.
        on_lease = observer_hook(self.ctx.observer, "on_lease")
        if on_lease is not None:
            on_lease(self.ctx.rank, float(deadline_us))

    def acquire_steps(self) -> Steps:
        ctx = self.ctx
        spec = self.spec
        home = spec.home_rank
        off = spec.lock_offset
        give_up_at = ctx.now() + spec.patience_us
        backoff = _BACKOFF_MIN_US
        while True:
            word = yield (GET, home, off)
            yield (FLUSH, home)
            now = ctx.now()
            if word == 0:
                deadline = self._deadline(now)
                new = _pack(deadline, 0, ctx.rank)
                prev = yield (CAS, new, 0, home, off)
                yield (FLUSH, home)
                if prev == 0:
                    self._held_word = new
                    self._announce_lease(deadline)
                    return
            else:
                deadline, epoch, _owner = _unpack(word)
                if now >= deadline:
                    # The lease expired: the holder crashed (or lost the
                    # ability to release in time).  Take over with a bumped
                    # epoch and a fresh deadline; the CAS loses harmlessly if
                    # another waiter (or a late release) got there first.
                    deadline = self._deadline(now)
                    new = _pack(deadline, epoch + 1, ctx.rank)
                    prev = yield (CAS, new, word, home, off)
                    yield (FLUSH, home)
                    if prev == word:
                        self._held_word = new
                        self._announce_lease(deadline)
                        return
            if ctx.now() >= give_up_at:
                raise LockTimeout(
                    f"rank {ctx.rank} gave up on the lease lock after "
                    f"{spec.patience_us:g}us of polling"
                )
            yield (COMPUTE, backoff)
            backoff = min(backoff * 2.0, _BACKOFF_MAX_US)

    def release_steps(self) -> Steps:
        ctx = self.ctx
        spec = self.spec
        word = self._held_word
        self._held_word = 0
        prev = yield (CAS, 0, word, spec.home_rank, spec.lock_offset)
        yield (FLUSH, spec.home_rank)
        if prev != word:
            # Fenced: our lease expired and a waiter installed a new word
            # (later deadline, bumped epoch).  The lock now belongs to the
            # new holder — write nothing, just report the rejection.
            on_fenced = observer_hook(ctx.observer, "on_fenced_release")
            if on_fenced is not None:
                on_fenced(ctx.rank)


@register_scheme(
    "lease-lock",
    category="fault",
    params=(
        ParamSpec("home_rank", int, 0, "rank holding the lock word", tunable=False),
        ParamSpec("lease_us", float, DEFAULT_LEASE_US, "lease term granted per hold [us]"),
        ParamSpec("patience_us", float, DEFAULT_PATIENCE_US, "polling bound before LockTimeout [us]"),
    ),
    help="single-word lease lock with expiry takeover and epoch-fenced release",
)
def _build_lease_lock(machine, home_rank=0, lease_us=DEFAULT_LEASE_US, patience_us=DEFAULT_PATIENCE_US) -> LeaseLockSpec:
    return LeaseLockSpec(
        num_processes=machine.num_processes,
        home_rank=int(home_rank),
        lease_us=float(lease_us),
        patience_us=float(patience_us),
    )


# The lease mechanism recovers from every sweep scenario: an expired lease of
# a dead holder is taken over (holder-crash / restart), and dead waiters were
# never queued anywhere — they simply stop polling (waiter-crash).
declare_recovery("lease-lock", FAULT_SCENARIOS, lease_us=DEFAULT_LEASE_US)
