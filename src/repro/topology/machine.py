"""Machine hierarchy model.

The paper (Section 2, Table 1) describes the target machine as an ``N``-level
hierarchy: level 1 is the whole machine, level ``N`` is the finest considered
element (typically a compute node) and the processes run inside level-``N``
elements.  Each element of level ``i`` contains a fixed number of level
``i+1`` elements (regular fan-out), which is also the structure the paper's
SPIN models use (Section 4.4).

This module provides :class:`Machine`, the single source of truth for

* ``N`` and the number of elements per level (``N_i``),
* the mapping ``e(p, i)`` from a process to its home element at level ``i``,
* the set of ranks contained in an element and the element's first rank
  (used to place ``tail_rank[i, j]`` and physical counters),
* the *common level* of two ranks — the deepest level at which they share an
  element — which drives the latency model.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import index
from typing import List, Tuple

__all__ = ["Machine", "MachineLevel"]


@dataclass(frozen=True)
class MachineLevel:
    """Description of a single hierarchy level.

    Attributes:
        name: Human-readable level name (``"machine"``, ``"rack"``, ``"node"``).
        index: 1-based level index; 1 is the root (whole machine).
        num_elements: Total number of elements at this level across the machine.
        ranks_per_element: Number of processes hosted inside one element.
    """

    name: str
    index: int
    num_elements: int
    ranks_per_element: int


@dataclass(frozen=True)
class Machine:
    """A regular ``N``-level machine hierarchy.

    ``fanouts[k]`` is the number of child elements each level-``(k+1)``
    element contains, so ``fanouts`` has ``N - 1`` entries and level ``N``
    has ``prod(fanouts)`` elements.  Every leaf (level-``N``) element hosts
    ``procs_per_leaf`` consecutive ranks; ranks are numbered ``0 .. P-1``.

    Use the constructors :meth:`single_node` and :meth:`cluster` for the
    common shapes used in the paper's evaluation.
    """

    fanouts: Tuple[int, ...]
    procs_per_leaf: int
    level_names: Tuple[str, ...] = field(default=())

    def __post_init__(self) -> None:
        # Lists and numpy integers are accepted and stored as plain tuples of
        # int, so equal shapes compare and hash equal however they were built.
        fanouts = tuple(index(f) for f in self.fanouts)
        procs_per_leaf = index(self.procs_per_leaf)
        names = tuple(self.level_names)
        if procs_per_leaf < 1:
            raise ValueError(f"procs_per_leaf must be >= 1, got {procs_per_leaf}")
        counts = [1]
        for f in fanouts:
            if f < 1:
                raise ValueError(f"every fan-out must be >= 1, got {fanouts}")
            counts.append(counts[-1] * f)
        if not names:
            names = self._default_names(len(counts))
        if len(names) != len(counts):
            raise ValueError(f"expected {len(counts)} level names, got {len(names)}")
        num_processes = counts[-1] * procs_per_leaf
        # Every query below is a look-up in these tables.  They are attached
        # via object.__setattr__ because the dataclass is frozen, are rebuilt
        # from the fields by ``dataclasses.replace`` and deliberately do not
        # participate in equality, hashing or ``repr``.
        for name, value in (
            ("fanouts", fanouts),
            ("procs_per_leaf", procs_per_leaf),
            ("level_names", names),
            ("_num_processes", num_processes),
            ("_counts", tuple(counts)),  # N_i, indexed by level - 1
            ("_sizes", tuple(num_processes // c for c in counts)),  # ranks per element
        ):
            object.__setattr__(self, name, value)

    # ------------------------------------------------------------------ #
    # Constructors
    # ------------------------------------------------------------------ #

    @staticmethod
    def _default_names(n_levels: int) -> Tuple[str, ...]:
        presets = {
            1: ("machine",),
            2: ("machine", "node"),
            3: ("machine", "rack", "node"),
            4: ("machine", "cabinet", "rack", "node"),
        }
        if n_levels in presets:
            return presets[n_levels]
        return tuple(f"level{i}" for i in range(1, n_levels + 1))

    @classmethod
    def single_node(cls, procs: int) -> "Machine":
        """A one-level machine: all ranks inside a single shared element."""
        return cls(fanouts=(), procs_per_leaf=procs)

    @classmethod
    def cluster(cls, nodes: int, procs_per_node: int) -> "Machine":
        """The paper's evaluation topology (``N = 2``): machine -> compute nodes."""
        return cls(fanouts=(nodes,), procs_per_leaf=procs_per_node)

    # ------------------------------------------------------------------ #
    # Shape queries
    # ------------------------------------------------------------------ #

    @property
    def n_levels(self) -> int:
        """``N``: number of hierarchy levels (level 1 = whole machine)."""
        return len(self._counts)

    @property
    def num_processes(self) -> int:
        """``P``: total number of processes."""
        return self._num_processes

    def num_elements(self, level: int) -> int:
        """``N_i``: number of elements at ``level`` (1-based)."""
        self._check_level(level)
        return self._counts[level - 1]

    def ranks_per_element(self, level: int) -> int:
        """Number of ranks hosted by one element of ``level``."""
        self._check_level(level)
        return self._sizes[level - 1]

    def levels(self) -> List[MachineLevel]:
        """Return descriptions of all levels, root first."""
        return [
            MachineLevel(name=name, index=i, num_elements=count, ranks_per_element=size)
            for i, (name, count, size) in enumerate(
                zip(self.level_names, self._counts, self._sizes), start=1
            )
        ]

    # ------------------------------------------------------------------ #
    # Rank <-> element mappings
    # ------------------------------------------------------------------ #

    def element_of(self, rank: int, level: int) -> int:
        """``e(p, i)``: 0-based index of the level-``level`` element hosting ``rank``."""
        self._check_rank(rank)
        self._check_level(level)
        return rank // self._sizes[level - 1]

    def ranks_in_element(self, level: int, element: int) -> range:
        """All ranks hosted by ``element`` (0-based) of ``level``."""
        self._check_level(level)
        n = self._counts[level - 1]
        if not 0 <= element < n:
            raise ValueError(f"element {element} out of range for level {level} (has {n})")
        size = self._sizes[level - 1]
        return range(element * size, (element + 1) * size)

    def first_rank_of_element(self, level: int, element: int) -> int:
        """Lowest rank inside an element; hosts that element's queue tail pointer."""
        return self.ranks_in_element(level, element).start

    def node_of(self, rank: int) -> int:
        """Index of the leaf (level ``N``) element hosting ``rank``."""
        self._check_rank(rank)
        return rank // self._sizes[-1]

    def common_level(self, a: int, b: int) -> int:
        """Deepest level at which ranks ``a`` and ``b`` share an element.

        Returns ``N + 1`` when ``a == b`` (the ranks are the same process),
        ``N`` when they share a leaf element (same compute node), and ``1``
        when they only share the whole machine.
        """
        self._check_rank(a)
        self._check_rank(b)
        sizes = self._sizes
        level = len(sizes)
        if a == b:
            return level + 1
        while a // sizes[level - 1] != b // sizes[level - 1]:  # level 1 is always shared
            level -= 1
        return level

    def same_node(self, a: int, b: int) -> bool:
        """True when both ranks live on the same leaf element."""
        self._check_rank(a)
        self._check_rank(b)
        return a // self._sizes[-1] == b // self._sizes[-1]

    # ------------------------------------------------------------------ #
    # Validation helpers
    # ------------------------------------------------------------------ #

    def _check_level(self, level: int) -> None:
        if not 1 <= level <= len(self._counts):
            raise ValueError(f"level {level} out of range 1..{len(self._counts)}")

    def _check_rank(self, rank: int) -> None:
        if not 0 <= rank < self._num_processes:
            raise ValueError(f"rank {rank} out of range 0..{self._num_processes - 1}")

    def describe(self) -> str:
        """One-line human-readable description of the hierarchy."""
        parts = [
            f"{lvl.name}[{lvl.num_elements}x{lvl.ranks_per_element} ranks]"
            for lvl in self.levels()
        ]
        return " > ".join(parts) + f" (P={self.num_processes})"
