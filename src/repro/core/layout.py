"""Window layout allocation.

All locking structures live in a single RMA window per rank (the paper groups
them in MPI allocated windows to reduce the memory footprint, Section 5
"Implementation Details").  Different specs — a lock, the distributed counter,
a hashtable, benchmark scratch words — therefore need non-overlapping offset
ranges inside that window.  :class:`LayoutAllocator` hands out named,
contiguous regions and rejects a name allocated twice.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

__all__ = ["LayoutAllocator", "Region"]


@dataclass(frozen=True)
class Region:
    """A named contiguous range of window words."""

    name: str
    start: int
    length: int


@dataclass
class LayoutAllocator:
    """Sequentially allocates named regions of a per-rank window."""

    base: int = 0
    _cursor: int = field(init=False)
    _regions: Dict[str, Region] = field(init=False, default_factory=dict)

    def __post_init__(self) -> None:
        if self.base < 0:
            raise ValueError("base offset must be non-negative")
        self._cursor = self.base

    def allocate(self, name: str, length: int = 1) -> Region:
        """Reserve ``length`` words under ``name`` and return the region."""
        if length < 1:
            raise ValueError(f"region length must be >= 1, got {length}")
        if name in self._regions:
            raise ValueError(f"region {name!r} already allocated")
        region = Region(name=name, start=self._cursor, length=length)
        self._regions[name] = region
        self._cursor += length
        return region

    def field(self, name: str) -> int:
        """Shortcut: allocate a single word and return its absolute offset."""
        return self.allocate(name, 1).start

    @property
    def total_words(self) -> int:
        """Number of window words consumed so far (including the base offset)."""
        return self._cursor
