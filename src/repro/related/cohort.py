"""Lock cohorting (Dice, Marathe & Shavit, PPoPP'12) over RMA.

A cohort lock composes two levels of locking: a *local* lock per compute node
and a single *global* lock among nodes.  A process first acquires its node's
local lock; if its node already owns the global lock (because the previous
holder was a node-mate that passed ownership on), the process enters the
critical section immediately, otherwise it acquires the global lock on behalf
of its node.  On release, the holder prefers to hand both the local lock and
the implicit global ownership to a waiting node-mate, up to
``max_local_passes`` consecutive times — the same locality/fairness trade-off
the paper's ``T_L,i`` thresholds implement inside the distributed tree
(Section 2.3.2 cites this family as the NUMA-aware state of the art that
RMA-MCS generalizes to distributed memory and to more than two levels).

This implementation uses FIFO ticket locks at both levels (the partitioned
"C-TKT-TKT" instantiation), which keeps every word a plain 64-bit counter and
maps directly onto RMA fetch-and-add:

* per node ``j`` (hosted on the node's first rank): ``LOCAL_NEXT``,
  ``LOCAL_SERVING``, ``OWNED`` (does this node hold the global lock?) and
  ``PASSES`` (consecutive local hand-offs since the global lock was acquired);
* globally (hosted on ``home_rank``): ``GLOBAL_NEXT`` and ``GLOBAL_SERVING``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

from repro.api.registry import ParamSpec, register_scheme
from repro.core.layout import LayoutAllocator
from repro.core.lock_base import LockHandle, LockSpec
from repro.related.ticket import take_ticket
from repro.rma.ops import AtomicOp
from repro.rma.runtime_base import ACCUMULATE, FLUSH, GET, PUT, ProcessContext, Steps
from repro.topology.machine import Machine

__all__ = ["CohortTicketLockSpec", "CohortTicketLockHandle", "leaf_threshold_from_config"]

#: Default bound on consecutive intra-node hand-offs before the global lock
#: must be released (the cohort literature calls this the "may-pass-local"
#: bound; 16-64 is the usual range for NUMA machines).
DEFAULT_MAX_LOCAL_PASSES = 16


@dataclass(frozen=True)
class CohortTicketLockSpec(LockSpec):
    """A two-level cohort lock (ticket local locks, ticket global lock).

    Args:
        machine: Machine hierarchy; the cohort boundary is the leaf level
            (compute nodes).
        max_local_passes: Maximum number of consecutive intra-node hand-offs
            before the node must release the global lock.
        home_rank: Rank hosting the global ticket words.
        base_offset: First window word used by this lock (six words are used).
    """

    machine: Machine
    max_local_passes: int = DEFAULT_MAX_LOCAL_PASSES
    home_rank: int = 0
    base_offset: int = 0
    global_next_offset: int = field(init=False, default=0)
    global_serving_offset: int = field(init=False, default=0)
    local_next_offset: int = field(init=False, default=0)
    local_serving_offset: int = field(init=False, default=0)
    owned_offset: int = field(init=False, default=0)
    passes_offset: int = field(init=False, default=0)

    def __post_init__(self) -> None:
        if self.max_local_passes < 1:
            raise ValueError("max_local_passes must be >= 1")
        if not 0 <= self.home_rank < self.machine.num_processes:
            raise ValueError(f"home_rank {self.home_rank} out of range")
        alloc = LayoutAllocator(base=self.base_offset)
        object.__setattr__(self, "global_next_offset", alloc.field("cohort_global_next"))
        object.__setattr__(self, "global_serving_offset", alloc.field("cohort_global_serving"))
        object.__setattr__(self, "local_next_offset", alloc.field("cohort_local_next"))
        object.__setattr__(self, "local_serving_offset", alloc.field("cohort_local_serving"))
        object.__setattr__(self, "owned_offset", alloc.field("cohort_owned"))
        object.__setattr__(self, "passes_offset", alloc.field("cohort_passes"))

    @property
    def window_words(self) -> int:
        return self.passes_offset + 1

    def leader_of(self, rank: int) -> int:
        """Rank hosting the local (per-node) cohort words used by ``rank``."""
        machine = self.machine
        leaf = machine.n_levels
        return machine.first_rank_of_element(leaf, machine.element_of(rank, leaf))

    def init_window(self, rank: int) -> Mapping[int, int]:
        values = {}
        if rank == self.home_rank:
            values[self.global_next_offset] = 0
            values[self.global_serving_offset] = 0
        if rank == self.leader_of(rank):
            values[self.local_next_offset] = 0
            values[self.local_serving_offset] = 0
            values[self.owned_offset] = 0
            values[self.passes_offset] = 0
        return values

    def make(self, ctx: ProcessContext) -> "CohortTicketLockHandle":
        return CohortTicketLockHandle(self, ctx)


class CohortTicketLockHandle(LockHandle):
    """Per-process cohort handle: local ticket, then global ticket unless owned."""

    def __init__(self, spec: CohortTicketLockSpec, ctx: ProcessContext):
        if ctx.nranks != spec.machine.num_processes:
            raise ValueError("lock spec and runtime disagree on the number of ranks")
        self.spec = spec
        self.ctx = ctx
        self._leader = spec.leader_of(ctx.rank)
        self._local_ticket: int | None = None
        #: True when the most recent acquire obtained the global lock itself
        #: rather than inheriting it from a node-mate (for tests/analysis).
        self.last_acquired_global = False

    # ------------------------------------------------------------------ #
    # Acquire
    # ------------------------------------------------------------------ #

    def acquire_steps(self) -> Steps:
        spec = self.spec
        leader = self._leader
        # Local ticket lock: one process per node proceeds past this point.
        self._local_ticket = yield from take_ticket(leader, spec.local_next_offset, spec.local_serving_offset)
        # If a node-mate passed the global lock along with the local one we are done.
        owned = yield (GET, leader, spec.owned_offset)
        yield (FLUSH, leader)
        if owned != 0:
            self.last_acquired_global = False
            return
        # Otherwise acquire the global ticket lock on behalf of the node.
        yield from take_ticket(spec.home_rank, spec.global_next_offset, spec.global_serving_offset)
        yield (PUT, 1, leader, spec.owned_offset)
        yield (PUT, 0, leader, spec.passes_offset)
        yield (FLUSH, leader)
        self.last_acquired_global = True

    # ------------------------------------------------------------------ #
    # Release
    # ------------------------------------------------------------------ #

    def release_steps(self) -> Steps:
        spec = self.spec
        leader = self._leader
        if self._local_ticket is None:
            raise RuntimeError("release() without a matching acquire()")
        my_ticket = self._local_ticket
        self._local_ticket = None

        next_ticket = yield (GET, leader, spec.local_next_offset)
        passes = yield (GET, leader, spec.passes_offset)
        yield (FLUSH, leader)
        successor_waiting = next_ticket > my_ticket + 1
        if successor_waiting and passes < spec.max_local_passes:
            # Pass both the local lock and the global ownership to a node-mate.
            yield (ACCUMULATE, 1, leader, spec.passes_offset, AtomicOp.SUM)
            yield (ACCUMULATE, 1, leader, spec.local_serving_offset, AtomicOp.SUM)
            yield (FLUSH, leader)
            return
        # Give the global lock back (clear ownership before letting the next
        # node-mate in, so it goes through the global queue itself).
        yield (PUT, 0, leader, spec.owned_offset)
        yield (FLUSH, leader)
        yield (ACCUMULATE, 1, spec.home_rank, spec.global_serving_offset, AtomicOp.SUM)
        yield (FLUSH, spec.home_rank)
        yield (ACCUMULATE, 1, leader, spec.local_serving_offset, AtomicOp.SUM)
        yield (FLUSH, leader)


# --------------------------------------------------------------------------- #
# Registry entry (see repro.api).
# --------------------------------------------------------------------------- #

def leaf_threshold_from_config(config, default: int = DEFAULT_MAX_LOCAL_PASSES) -> int:
    """May-pass-local bound from a benchmark config's leaf-level ``t_l``.

    The cohort-style locks reuse the leaf-level locality threshold as their
    may-pass-local bound so that a sweep over ``t_l`` exercises the same knob
    everywhere (Sections 2.3 and 7).
    """
    t_l = getattr(config, "t_l", None)
    if not t_l:
        return default
    return max(1, int(list(t_l)[-1]))


@register_scheme(
    "cohort",
    category="related-mcs",
    params=(
        ParamSpec(
            "max_local_passes", int, DEFAULT_MAX_LOCAL_PASSES,
            "consecutive intra-node hand-offs before the global lock is released",
            from_config=leaf_threshold_from_config,
        ),
    ),
    help="two-level cohort lock, C-TKT-TKT instantiation (Dice, Marathe & Shavit)",
)
def _build_cohort(machine: Machine, max_local_passes: int = DEFAULT_MAX_LOCAL_PASSES) -> CohortTicketLockSpec:
    return CohortTicketLockSpec(machine, max_local_passes=max_local_passes)
