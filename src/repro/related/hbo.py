"""Hierarchical backoff lock (Radovic & Hagersten, HPCA'03).

The HBO lock is a test-and-set lock whose lock word stores the *rank of the
current holder* instead of a plain flag.  A waiter that fails to acquire the
lock reads the holder's rank and backs off for a time drawn from a window
whose cap depends on the topological distance to the holder: a short cap when
the holder runs on the same compute node, a long cap otherwise.  Node-local
waiters therefore retry more often and statistically win the lock more often,
which keeps the lock inside one node for a while — the same locality effect
the paper's ``T_L,i`` thresholds provide deterministically (Section 7
discusses the scheme and its starvation risk).

The waiters deliberately do **not** park on the lock word between retries:
the whole point of the algorithm is that the *timing* of the retries differs
between local and remote waiters, which a wake-all-on-release scheme would
erase.  Backoff caps are expressed in microseconds of (virtual) time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

from repro.api.registry import ParamSpec, register_scheme
from repro.core.constants import NULL_RANK
from repro.core.layout import LayoutAllocator
from repro.core.lock_base import LockHandle, LockSpec
from repro.rma.runtime_base import (
    CAS,
    COMPUTE,
    FLUSH,
    PUT,
    ProcessContext,
    Steps,
)
from repro.topology.machine import Machine

__all__ = ["HBOLockSpec", "HBOLockHandle"]

#: Default backoff caps (µs).  The remote cap is an order of magnitude larger
#: than the local cap, mirroring the intra-/inter-node latency ratio the
#: original paper exploits.
DEFAULT_LOCAL_CAP_US = 2.0
DEFAULT_REMOTE_CAP_US = 20.0
DEFAULT_MIN_BACKOFF_US = 0.3


@dataclass(frozen=True)
class HBOLockSpec(LockSpec):
    """A hierarchical backoff lock on ``home_rank``.

    Args:
        machine: Machine hierarchy (used only to classify holder distance).
        home_rank: Rank hosting the single lock word.
        local_cap_us: Backoff cap when the observed holder is on the caller's node.
        remote_cap_us: Backoff cap when the holder is on a different node.
        min_backoff_us: Initial backoff; doubles (up to the cap) on every retry.
        base_offset: First window word used by this lock (one word is used).
    """

    machine: Machine
    home_rank: int = 0
    local_cap_us: float = DEFAULT_LOCAL_CAP_US
    remote_cap_us: float = DEFAULT_REMOTE_CAP_US
    min_backoff_us: float = DEFAULT_MIN_BACKOFF_US
    base_offset: int = 0
    lock_offset: int = field(init=False, default=0)

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
        object.__setattr__(self, "lock_offset", alloc.field("hbo_lock"))

    @property
    def window_words(self) -> int:
        return self.lock_offset + 1

    def init_window(self, rank: int) -> Mapping[int, int]:
        if rank != self.home_rank:
            return {}
        return {self.lock_offset: NULL_RANK}

    def make(self, ctx: ProcessContext) -> "HBOLockHandle":
        return HBOLockHandle(self, ctx)


class HBOLockHandle(LockHandle):
    """Per-process HBO handle: CAS the holder rank, back off by holder distance."""

    def __init__(self, spec: HBOLockSpec, ctx: ProcessContext):
        if ctx.nranks != spec.machine.num_processes:
            raise ValueError("lock spec and runtime disagree on the number of ranks")
        self.spec = spec
        self.ctx = ctx
        #: Number of CAS attempts of the most recent acquire (for tests/analysis).
        self.last_attempts = 0

    def _backoff_cap(self, holder: int) -> float:
        """Backoff cap for the observed ``holder`` (short when node-local)."""
        spec = self.spec
        if holder == NULL_RANK:
            return spec.local_cap_us
        if spec.machine.same_node(self.ctx.rank, holder):
            return spec.local_cap_us
        return spec.remote_cap_us

    def acquire_steps(self) -> Steps:
        ctx = self.ctx
        spec = self.spec
        backoff = spec.min_backoff_us
        attempts = 0
        while True:
            attempts += 1
            prev = yield (CAS, ctx.rank, NULL_RANK, spec.home_rank, spec.lock_offset)
            yield (FLUSH, spec.home_rank)
            if prev == NULL_RANK:
                self.last_attempts = attempts
                return
            cap = self._backoff_cap(prev)
            backoff = min(backoff * 2.0, cap)
            # Randomize within the current window to avoid lock-step retries.
            yield (COMPUTE, (0.5 + 0.5 * ctx.rng.random()) * backoff)  # = rng.uniform(0.5, 1.0)

    def release_steps(self) -> Steps:
        spec = self.spec
        yield (PUT, NULL_RANK, spec.home_rank, spec.lock_offset)
        yield (FLUSH, spec.home_rank)


# --------------------------------------------------------------------------- #
# Registry entry (see repro.api).
# --------------------------------------------------------------------------- #

@register_scheme(
    "hbo",
    category="related-mcs",
    params=(
        ParamSpec("local_cap_us", float, DEFAULT_LOCAL_CAP_US, "backoff cap when the holder is node-local [us]"),
        ParamSpec("remote_cap_us", float, DEFAULT_REMOTE_CAP_US, "backoff cap when the holder is remote [us]"),
        ParamSpec("min_backoff_us", float, DEFAULT_MIN_BACKOFF_US, "initial backoff; doubles up to the cap [us]"),
    ),
    help="hierarchical backoff lock (Radovic & Hagersten, HPCA'03)",
)
def _build_hbo(
    machine: Machine,
    local_cap_us: float = DEFAULT_LOCAL_CAP_US,
    remote_cap_us: float = DEFAULT_REMOTE_CAP_US,
    min_backoff_us: float = DEFAULT_MIN_BACKOFF_US,
) -> HBOLockSpec:
    return HBOLockSpec(
        machine,
        local_cap_us=local_cap_us,
        remote_cap_us=remote_cap_us,
        min_backoff_us=min_backoff_us,
    )
