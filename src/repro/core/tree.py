"""Distributed Tree of Queues (DT) — Section 3.2.3 — and the walk up it (Listings 4/5).

Both topology-aware locks (RMA-MCS and RMA-RW) organize their distributed
queues (DQs) into a tree that mirrors the machine hierarchy: one DQ per
machine element at every considered level, where the DQ at level ``i``
orders the level-``i+1`` elements (represented by their *climbing* writers)
competing for the level-``i`` lock, and the DQ at the leaf level ``N``
orders the processes of one compute node.

This module owns what both locks share:

* :class:`TreeLayout` — per-level ``NEXT``/``STATUS``/``TAIL`` window offsets
  and rank placement.  A process ``p``'s queue node at level ``i`` lives on
  ``p`` itself at the leaf level and, higher up, on the first rank of ``p``'s
  level-``i+1`` element, so the element's participation in the parent queue
  survives intra-element lock passing (the cohort/HMCS construction of
  Chabbi et al. that the paper extends to distributed memory).  The queue's
  tail lives on the first rank of ``p``'s level-``i`` element.
  :meth:`TreeLayout.queue_nodes` builds ``p``'s
  :class:`~repro.core.dmcs.QueueNode` at every level.
* :class:`TreeWalk` — Listings 4/5: join the DQ of each level with D-MCS's
  join / close, from the leaf up, until the lock is passed inside an element.
  RMA-MCS walks every level; RMA-RW walks levels ``N..2`` and plugs its root
  (Listings 7/8) in at level 1.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Dict, List, Mapping, Sequence, Tuple

from repro.core.constants import NULL_RANK, STATUS_ACQUIRE_PARENT, STATUS_WAIT
from repro.core.dmcs import QueueNode
from repro.core.layout import LayoutAllocator
from repro.core.lock_base import LockHandle
from repro.rma.runtime_base import ProcessContext, Steps
from repro.topology.machine import Machine

__all__ = ["TreeLayout", "TreeWalk", "normalize_locality_thresholds"]

#: Effectively-infinite locality threshold (used for levels with no threshold).
UNBOUNDED_THRESHOLD = 1 << 50


def normalize_locality_thresholds(machine: Machine, t_l: Sequence[int] | Mapping[int, int] | None) -> Tuple[int, ...]:
    """Normalize the per-level locality thresholds ``T_L,i`` to a tuple indexed by level.

    Accepts ``None`` (every level unbounded), a sequence of length ``N``
    (``t_l[0]`` is ``T_L,1``) or of length ``N - 1`` (levels ``2..N``; level 1
    defaults to unbounded), or a mapping ``{level: threshold}``.  Every
    threshold must be a positive integer.
    """
    n = machine.n_levels
    values: List[int] = [UNBOUNDED_THRESHOLD] * n
    if t_l is None:
        return tuple(values)
    if isinstance(t_l, Mapping):
        for level, value in t_l.items():
            if not 1 <= level <= n:
                raise ValueError(f"T_L level {level} out of range 1..{n}")
            values[level - 1] = int(value)
    else:
        seq = list(t_l)
        if len(seq) == n:
            values = [int(v) for v in seq]
        elif len(seq) == n - 1:
            values = [UNBOUNDED_THRESHOLD] + [int(v) for v in seq]
        else:
            raise ValueError(
                f"t_l must have {n} entries (levels 1..{n}) or {n - 1} entries (levels 2..{n}); got {len(seq)}"
            )
    for level, value in enumerate(values, start=1):
        if value < 1:
            raise ValueError(f"T_L,{level} must be >= 1, got {value}")
    return tuple(values)


@lru_cache(maxsize=8)
def _placements(machine: Machine) -> Tuple[Tuple[Tuple[int, int], ...], ...]:
    """``(node, tail_host)`` of every rank's queue node at every level
    (``[rank][level - 1]``): the first rank of its level-``i+1`` element
    (``rank`` itself at the leaf) and of its level-``i`` element.

    Placement depends on the machine alone, so every layout on ``machine`` —
    every entry of a lock table — shares one table, looked up once per layout.
    """
    sizes = [machine.ranks_per_element(level) for level in range(1, machine.n_levels + 1)]
    table = []
    for rank in range(machine.num_processes):
        firsts = [rank - rank % size for size in sizes]
        table.append(tuple(zip(firsts[1:] + [rank], firsts)))
    return tuple(table)


@dataclass(frozen=True)
class TreeLayout:
    """Window offsets and rank placement of the DT for a given machine."""

    machine: Machine
    next_offsets: Tuple[int, ...]
    status_offsets: Tuple[int, ...]
    tail_offsets: Tuple[int, ...]
    #: ``(node, tail_host)`` of every rank's queue node at every level, shared
    #: by every layout on the machine (:func:`_placements`).
    placements: Tuple[Tuple[Tuple[int, int], ...], ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "placements", _placements(self.machine))

    @classmethod
    def allocate(cls, machine: Machine, allocator: LayoutAllocator) -> "TreeLayout":
        """Reserve the per-level queue fields in ``allocator``."""
        nexts: List[int] = []
        statuses: List[int] = []
        tails: List[int] = []
        for level in range(1, machine.n_levels + 1):
            nexts.append(allocator.field(f"dq{level}_next"))
            statuses.append(allocator.field(f"dq{level}_status"))
            tails.append(allocator.field(f"dq{level}_tail"))
        return cls(
            machine=machine,
            next_offsets=tuple(nexts),
            status_offsets=tuple(statuses),
            tail_offsets=tuple(tails),
        )

    # -- offsets ------------------------------------------------------------ #

    def next_offset(self, level: int) -> int:
        return self.next_offsets[level - 1]

    def status_offset(self, level: int) -> int:
        return self.status_offsets[level - 1]

    def tail_offset(self, level: int) -> int:
        return self.tail_offsets[level - 1]

    @property
    def max_offset(self) -> int:
        return max(self.tail_offsets)

    # -- rank placement ------------------------------------------------------ #

    def queue_nodes(self, rank: int) -> Tuple[QueueNode, ...]:
        """``rank``'s queue node at every level (index ``level - 1``), built once per
        handle from the machine's placement table."""
        return tuple([
            QueueNode(node, host, nxt, status, tail, STATUS_WAIT)
            for (node, host), nxt, status, tail in zip(
                self.placements[rank], self.next_offsets, self.status_offsets, self.tail_offsets
            )
        ])

    def init_window(self, rank: int) -> Dict[int, int]:
        """Initial window values: every NEXT and TAIL starts as the null rank."""
        values: Dict[int, int] = {}
        machine = self.machine
        for level in range(1, machine.n_levels + 1):
            # Queue-node fields live on ranks that can represent an element;
            # initializing them everywhere is harmless and simpler.
            values[self.next_offset(level)] = NULL_RANK
            values[self.status_offset(level)] = 0
            values[self.tail_offset(level)] = NULL_RANK
        return values


class TreeWalk(LockHandle):
    """Listings 4/5: a writer's walk up the tree, one :class:`QueueNode` per level.

    A process joins the DQ of its leaf level; unless the lock is passed to it
    inside its element, it climbs and joins the parent level's DQ.  Release
    passes the lock inside the element while ``T_L,i`` allows, otherwise it
    releases the parent level first and tells the successor to climb.  Level
    1 is :meth:`_acquire_root` / :meth:`_release_root`: one more level of the
    walk here (RMA-MCS), Listings 7/8 in RMA-RW.
    """

    def __init__(self, spec, ctx: ProcessContext):
        if ctx.nranks != spec.machine.num_processes:
            raise ValueError("lock spec and runtime disagree on the number of ranks")
        self.spec = spec
        self.ctx = ctx
        self._n = spec.machine.n_levels
        self._queue_nodes = spec.layout.queue_nodes(ctx.rank)

    def acquire_steps(self) -> Steps:
        """Acquire the global lock, starting at the leaf level of the tree."""
        return self._acquire_level(self._n) if self._n > 1 else self._acquire_root()

    def release_steps(self) -> Steps:
        """Release the global lock, starting at the leaf level of the tree."""
        return self._release_level(self._n) if self._n > 1 else self._release_root()

    def _acquire_level(self, level: int) -> Steps:
        """Listing 4: acquire the DQ at ``level`` and climb unless the lock was
        passed inside this machine element."""
        q = self._queue_nodes[level - 1]
        status = yield from q.join()
        if status is not None and status != STATUS_ACQUIRE_PARENT:
            # The lock was passed within this element: we own the global lock.
            return
        # No predecessor, or the predecessor released this level to its parent:
        # start counting passings afresh and acquire the next level up.
        yield q.set_start
        yield q.flush_node
        if level > 1:
            yield from self._acquire_level(level - 1) if level > 2 else self._acquire_root()

    def _release_level(self, level: int) -> Steps:
        """Listing 5: release the DQ at ``level``."""
        q = self._queue_nodes[level - 1]
        succ = yield q.get_next
        status = yield q.get_status
        yield q.flush_node
        if level == 1 or (succ != NULL_RANK and status < self.spec.locality_threshold(level)):
            # Pass the lock within this machine element together with the number
            # of consecutive passings it has seen.  Level 1 has no parent to
            # release first: its queue is handed on (or closed) the same way.
            yield from q.close(succ, status + 1)
            return
        # Nobody is known to wait here or the locality threshold was reached:
        # release the parent level first; the successor must acquire it.
        yield from self._release_level(level - 1) if level > 2 else self._release_root()
        yield from q.close(succ, STATUS_ACQUIRE_PARENT)

    def _acquire_root(self) -> Steps:
        """Level 1, the step RMA-RW overrides with Listing 7: here one more level."""
        return self._acquire_level(1)

    def _release_root(self) -> Steps:
        """Level 1, the step RMA-RW overrides with Listing 8: here one more level."""
        return self._release_level(1)
