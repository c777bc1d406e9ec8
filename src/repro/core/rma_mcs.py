"""RMA-MCS: the topology-aware distributed MCS lock (Section 3.5).

RMA-MCS is the writer machinery of RMA-RW without the distributed counter:
a distributed tree (DT) of distributed queues (DQs), one DQ per machine
element at every level.  A process acquires the global lock by enqueueing at
the leaf-level DQ of its compute node; if the lock is currently being passed
around inside its element it receives it directly (a *shortcut*), otherwise
it climbs the tree, acquiring the DQ of every level up to the root.

The per-level locality thresholds ``T_L,i`` bound how many times the lock may
be passed consecutively inside one element of level ``i`` before it must be
handed to a different element — the fairness-versus-locality knob of the
paper's parameter space.  Level 1 (the whole machine) has no parent, so its
threshold is not applicable for RMA-MCS.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Optional, Sequence, Tuple

from repro.api.registry import ParamSpec, register_scheme
from repro.core.constants import NULL_RANK, STATUS_ACQUIRE_PARENT, STATUS_WAIT
from repro.core.layout import LayoutAllocator
from repro.core.lock_base import LockHandle, LockSpec
from repro.core.tree import UNBOUNDED_THRESHOLD, TreeLayout, normalize_locality_thresholds
from repro.rma.runtime_base import FLUSH, PUT, SPIN_WHILE, ProcessContext, Steps
from repro.topology.machine import Machine

__all__ = ["RMAMCSLockSpec", "RMAMCSLockHandle"]


@dataclass(frozen=True)
class RMAMCSLockSpec(LockSpec):
    """Shared description of one RMA-MCS lock instance.

    Args:
        machine: The machine hierarchy the lock is aware of.
        t_l: Per-level locality thresholds ``T_L,i``.  Accepts a sequence of
            length ``N`` or ``N - 1`` (levels ``2..N``) or a ``{level: value}``
            mapping; the level-1 threshold is ignored (there is no parent to
            hand the lock to), matching Section 3.5.
        base_offset: First window word used by the lock.
    """

    machine: Machine
    t_l: Optional[Sequence[int]] = None
    base_offset: int = 0
    layout: TreeLayout = field(init=False, default=None)  # type: ignore[assignment]
    thresholds: Tuple[int, ...] = field(init=False, default=())

    def __post_init__(self) -> None:
        alloc = LayoutAllocator(base=self.base_offset)
        layout = TreeLayout.allocate(self.machine, alloc)
        thresholds = list(normalize_locality_thresholds(self.machine, self.t_l))
        # Level 1 has no parent: never force a hand-off to a higher level.
        thresholds[0] = UNBOUNDED_THRESHOLD
        object.__setattr__(self, "layout", layout)
        object.__setattr__(self, "thresholds", tuple(thresholds))

    @property
    def window_words(self) -> int:
        return self.layout.max_offset + 1

    def locality_threshold(self, level: int) -> int:
        """``T_L,level`` as used by the release protocol."""
        return self.thresholds[level - 1]

    def init_window(self, rank: int) -> Mapping[int, int]:
        return self.layout.init_window(rank)

    def make(self, ctx: ProcessContext) -> "RMAMCSLockHandle":
        return RMAMCSLockHandle(self, ctx)


class RMAMCSLockHandle(LockHandle):
    """Per-process RMA-MCS handle implementing Listings 4 and 5 for all levels."""

    def __init__(self, spec: RMAMCSLockSpec, ctx: ProcessContext):
        if ctx.nranks != spec.machine.num_processes:
            raise ValueError("lock spec and runtime disagree on the number of ranks")
        self.spec = spec
        self.ctx = ctx
        self._n = spec.machine.n_levels
        self._queue_nodes = spec.layout.queue_nodes(ctx.rank)

    # ------------------------------------------------------------------ #
    # Acquire
    # ------------------------------------------------------------------ #

    def acquire_steps(self) -> Steps:
        """Acquire the global lock, starting at the leaf level of the tree."""
        return self._acquire_level(self._n)

    def _acquire_level(self, level: int) -> Steps:
        """Listing 4 generalized to every level (no readers to synchronize with)."""
        q = self._queue_nodes[level - 1]

        yield q.clear_next
        yield q.set_wait
        yield q.flush_node
        # Enter the DQ of this level within our machine element.
        pred = yield q.enqueue
        yield q.flush_tail
        if pred != NULL_RANK:
            yield (PUT, q.node, pred, q.next_off)
            yield (FLUSH, pred)
            status = yield (SPIN_WHILE, q.node, q.status_off, lambda s: s == STATUS_WAIT)
            if status != STATUS_ACQUIRE_PARENT:
                # The lock was passed within this element: we own the global lock.
                return
        # No predecessor, or the predecessor released this level to its parent:
        # start counting passings afresh and acquire the next level up.
        yield q.set_start
        yield q.flush_node
        if level > 1:
            yield from self._acquire_level(level - 1)
        # At level 1 an empty queue (or an ACQUIRE_PARENT hand-over) means the
        # global lock is ours.

    # ------------------------------------------------------------------ #
    # Release
    # ------------------------------------------------------------------ #

    def release_steps(self) -> Steps:
        """Release the global lock, starting at the leaf level of the tree."""
        return self._release_level(self._n)

    def _release_level(self, level: int) -> Steps:
        """Listing 5 generalized to every level."""
        spec = self.spec
        q = self._queue_nodes[level - 1]

        succ = yield q.get_next
        status = yield q.get_status
        yield q.flush_node
        if succ != NULL_RANK and status < spec.locality_threshold(level):
            # Pass the lock within this machine element together with the
            # number of consecutive passings it has seen.
            yield (PUT, status + 1, succ, q.status_off)
            yield (FLUSH, succ)
            return

        # Either nobody is known to wait here or the locality threshold was
        # reached: release the parent level first (if any).
        if level > 1:
            yield from self._release_level(level - 1)

        if succ == NULL_RANK:
            # Check whether some process has just enqueued itself.
            curr = yield q.dequeue
            yield q.flush_tail
            if curr == q.node:
                return
            succ = yield (SPIN_WHILE, q.node, q.next_off, lambda nxt: nxt == NULL_RANK)

        if level > 1:
            # We no longer hold the parent level: the successor must acquire it.
            yield (PUT, STATUS_ACQUIRE_PARENT, succ, q.status_off)
        else:
            # Level 1 has no parent; the lock itself is handed to the successor.
            yield (PUT, status + 1, succ, q.status_off)
        yield (FLUSH, succ)


# --------------------------------------------------------------------------- #
# Registry entry (see repro.api).
# --------------------------------------------------------------------------- #

@register_scheme(
    "rma-mcs",
    category="mcs",
    params=(
        ParamSpec(
            "t_l", int, None,
            "per-level locality thresholds T_L,i (max consecutive passings per element)",
            sequence=True,
        ),
    ),
    help="topology-aware distributed MCS lock: a tree of queues (Section 3.5)",
)
def _build_rma_mcs(machine: Machine, t_l=None) -> RMAMCSLockSpec:
    return RMAMCSLockSpec(machine, t_l=t_l)
