"""Distributed Tree of Queues (DT) layout — Section 3.2.3.

Both topology-aware locks (RMA-MCS and RMA-RW) organize their distributed
queues (DQs) into a tree that mirrors the machine hierarchy: one DQ per
machine element at every considered level, where the DQ at level ``i``
orders the level-``i+1`` elements (represented by their *climbing* writers)
competing for the level-``i`` lock, and the DQ at the leaf level ``N``
orders the processes of one compute node.

This module owns the window layout and rank placement shared by both locks:

* per-level ``NEXT``/``STATUS``/``TAIL`` window offsets,
* ``queue_node_rank(p, i)`` — the rank hosting the queue node that process
  ``p`` uses at level ``i``.  At the leaf level that is ``p`` itself; at
  higher levels it is the first rank of ``p``'s level-``i+1`` element, so the
  element's participation in the parent queue survives intra-element lock
  passing (the cohort/HMCS construction of Chabbi et al. that the paper
  extends to distributed memory).
* ``tail_host_rank(p, i)`` — ``tail_rank[i, e(p, i)]``, the rank hosting the
  tail pointer of the DQ that ``p``'s element belongs to at level ``i``.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, List, Mapping, Sequence, Tuple

from repro.core.constants import ACQUIRE_START, NULL_RANK, STATUS_WAIT
from repro.core.layout import LayoutAllocator
from repro.rma.ops import AtomicOp
from repro.rma.runtime_base import CAS, FAO, FLUSH, GET, PUT
from repro.topology.machine import Machine

__all__ = ["QueueNode", "TreeLayout", "normalize_locality_thresholds"]

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


def _queue_node_rank(machine: Machine, rank: int, level: int) -> int:
    if level == machine.n_levels:
        return rank
    child_level = level + 1
    return machine.first_rank_of_element(child_level, machine.element_of(rank, child_level))


def _tail_host_rank(machine: Machine, rank: int, level: int) -> int:
    return machine.first_rank_of_element(level, machine.element_of(rank, level))


@lru_cache(maxsize=1 << 12)
def _placement(machine: Machine, rank: int) -> Tuple[Tuple[int, int], ...]:
    """``(queue_node_rank, tail_host_rank)`` of ``rank`` at every level.

    Placement depends on the machine alone, so every layout on ``machine`` —
    every entry of a lock table — shares one resolution per rank.
    """
    return tuple(
        (_queue_node_rank(machine, rank, level), _tail_host_rank(machine, rank, level))
        for level in range(1, machine.n_levels + 1)
    )


#: One process's queue node at one level: where its fields live (``node`` is
#: ``queue_node_rank``, ``tail_host`` ``tail_host_rank``) and the requests on them
#: that never change, built once per handle (see :meth:`TreeLayout.queue_nodes`).
QueueNode = namedtuple(
    "QueueNode",
    "node tail_host next_off status_off tail_off clear_next set_wait set_start "
    "get_next get_status flush_node enqueue dequeue flush_tail",
)


@dataclass(frozen=True)
class TreeLayout:
    """Window offsets and rank placement of the DT for a given machine."""

    machine: Machine
    next_offsets: Tuple[int, ...]
    status_offsets: Tuple[int, ...]
    tail_offsets: Tuple[int, ...]

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

    def queue_node_rank(self, rank: int, level: int) -> int:
        """Rank hosting the level-``level`` queue node used on behalf of ``rank``."""
        return _queue_node_rank(self.machine, rank, level)

    def tail_host_rank(self, rank: int, level: int) -> int:
        """``tail_rank[level, e(rank, level)]``: host of the relevant DQ tail pointer."""
        return _tail_host_rank(self.machine, rank, level)

    def queue_nodes(self, rank: int) -> Tuple[QueueNode, ...]:
        """``rank``'s queue node at every level (index ``level - 1``), built once per
        handle from the placement resolved once per (machine, rank)."""
        nodes = []
        for level, (node, host) in enumerate(_placement(self.machine, rank), start=1):
            nxt, status, tail = self.next_offset(level), self.status_offset(level), self.tail_offset(level)
            nodes.append(QueueNode(
                node, host, nxt, status, tail,
                (PUT, NULL_RANK, node, nxt), (PUT, STATUS_WAIT, node, status), (PUT, ACQUIRE_START, node, status),
                (GET, node, nxt), (GET, node, status), (FLUSH, node),
                (FAO, node, host, tail, AtomicOp.REPLACE), (CAS, NULL_RANK, node, host, tail), (FLUSH, host),
            ))
        return tuple(nodes)

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
