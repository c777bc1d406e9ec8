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

The handle is :class:`~repro.core.tree.TreeWalk` as it is: Listings 4/5 at
every level, each level's queue run by D-MCS's join and close
(:class:`~repro.core.dmcs.QueueNode`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Optional, Sequence, Tuple

from repro.api.registry import ParamSpec, register_scheme
from repro.core.layout import LayoutAllocator
from repro.core.lock_base import LockSpec
from repro.core.tree import UNBOUNDED_THRESHOLD, TreeLayout, TreeWalk, normalize_locality_thresholds
from repro.rma.runtime_base import ProcessContext
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


class RMAMCSLockHandle(TreeWalk):
    """Per-process RMA-MCS handle implementing Listings 4 and 5 for all levels."""


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
