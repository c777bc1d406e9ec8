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
from repro.core.constants import (
    ACQUIRE_START,
    NULL_RANK,
    STATUS_ACQUIRE_PARENT,
    STATUS_WAIT,
)
from repro.core.layout import LayoutAllocator
from repro.core.lock_base import LockHandle, LockSpec
from repro.core.tree import UNBOUNDED_THRESHOLD, TreeLayout, normalize_locality_thresholds
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
        self._layout = spec.layout
        self._n = spec.machine.n_levels
        # Per-(rank, level) layout constants, resolved once instead of walking
        # the machine hierarchy on every acquire/release: (node, tail_host,
        # next_off, status_off, tail_off), indexed by level - 1.
        layout = spec.layout
        self._level_consts = tuple(
            (
                layout.queue_node_rank(ctx.rank, level),
                layout.tail_host_rank(ctx.rank, level),
                layout.next_offset(level),
                layout.status_offset(level),
                layout.tail_offset(level),
            )
            for level in range(1, self._n + 1)
        )

    # ------------------------------------------------------------------ #
    # Acquire
    # ------------------------------------------------------------------ #

    def acquire_steps(self) -> Steps:
        """Acquire the global lock, starting at the leaf level of the tree."""
        return self._acquire_level(self._n)

    def _acquire_level(self, level: int) -> Steps:
        """Listing 4 generalized to every level (no readers to synchronize with)."""
        node, tail_host, next_off, status_off, tail_off = self._level_consts[level - 1]

        yield (PUT, NULL_RANK, node, next_off)
        yield (PUT, STATUS_WAIT, node, status_off)
        yield (FLUSH, node)
        # Enter the DQ of this level within our machine element.
        pred = yield (FAO, node, tail_host, tail_off, AtomicOp.REPLACE)
        yield (FLUSH, tail_host)
        if pred != NULL_RANK:
            yield (PUT, node, pred, next_off)
            yield (FLUSH, pred)
            status = yield (SPIN_WHILE, node, status_off, lambda s: s == STATUS_WAIT)
            if status != STATUS_ACQUIRE_PARENT:
                # The lock was passed within this element: we own the global lock.
                return
        # No predecessor, or the predecessor released this level to its parent:
        # start counting passings afresh and acquire the next level up.
        yield (PUT, ACQUIRE_START, node, status_off)
        yield (FLUSH, node)
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
        node, tail_host, next_off, status_off, tail_off = self._level_consts[level - 1]

        succ = yield (GET, node, next_off)
        status = yield (GET, node, status_off)
        yield (FLUSH, node)
        if succ != NULL_RANK and status < spec.locality_threshold(level):
            # Pass the lock within this machine element together with the
            # number of consecutive passings it has seen.
            yield (PUT, status + 1, succ, status_off)
            yield (FLUSH, succ)
            return

        # Either nobody is known to wait here or the locality threshold was
        # reached: release the parent level first (if any).
        if level > 1:
            yield from self._release_level(level - 1)

        if succ == NULL_RANK:
            # Check whether some process has just enqueued itself.
            curr = yield (CAS, NULL_RANK, node, tail_host, tail_off)
            yield (FLUSH, tail_host)
            if curr == node:
                return
            succ = yield (SPIN_WHILE, node, next_off, lambda nxt: nxt == NULL_RANK)

        if level > 1:
            # We no longer hold the parent level: the successor must acquire it.
            yield (PUT, STATUS_ACQUIRE_PARENT, succ, status_off)
        else:
            # Level 1 has no parent; the lock itself is handed to the successor.
            yield (PUT, status + 1, succ, status_off)
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
