"""Process-to-structure mappings used by the locks.

The paper parameterizes its data structures with two mappings (Table 2):

* ``c(p)``   — the rank hosting the physical counter a reader ``p`` uses
  (Section 3.2.1).  The hardware-oblivious rule places one counter every
  ``T_DC``-th rank; the topology-aware rule places one counter on the first
  rank of every ``k``-th node.
* ``tail_rank[i, j]`` — the rank hosting the queue-tail pointer of the DQ of
  element ``j`` at level ``i`` (Section 3.2.2).  We place it on the first
  rank of the element.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

__all__ = ["CounterPlacement", "counter_rank", "counter_ranks"]


def counter_rank(rank: int, t_dc: int, num_processes: int) -> int:
    """Hardware-oblivious ``c(p)``: the counter owner for ``rank`` given ``T_DC``.

    One physical counter lives on every ``T_DC``-th rank; rank ``p`` uses the
    counter of the group it belongs to (``floor(p / T_DC) * T_DC``).
    """
    if t_dc < 1:
        raise ValueError(f"T_DC must be >= 1, got {t_dc}")
    if not 0 <= rank < num_processes:
        raise ValueError(f"rank {rank} out of range 0..{num_processes - 1}")
    return (rank // t_dc) * t_dc


def counter_ranks(t_dc: int, num_processes: int) -> List[int]:
    """All ranks hosting a physical counter for a given ``T_DC``."""
    if t_dc < 1:
        raise ValueError(f"T_DC must be >= 1, got {t_dc}")
    return list(range(0, num_processes, t_dc))


@dataclass(frozen=True)
class CounterPlacement:
    """Concrete placement of the distributed counter's physical counters.

    ``T_DC`` is expressed in ranks (as in the paper's formula
    ``c(p) = ceil(p / T_DC)``); ``T_DC`` equal to the ranks per node puts one
    counter on the first rank of every compute node, which is the setting the
    paper recommends in Section 6 ("one counter per compute node").
    """

    t_dc: int
    num_processes: int

    def __post_init__(self) -> None:
        if self.t_dc < 1:
            raise ValueError(f"T_DC must be >= 1, got {self.t_dc}")
        if self.num_processes < 1:
            raise ValueError("num_processes must be >= 1")

    def owner(self, rank: int) -> int:
        """``c(p)`` for this placement."""
        return counter_rank(rank, self.t_dc, self.num_processes)

    def owners(self) -> List[int]:
        """All counter-hosting ranks."""
        return counter_ranks(self.t_dc, self.num_processes)

    @property
    def num_counters(self) -> int:
        return len(self.owners())
