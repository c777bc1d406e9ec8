"""Distributed hashtable (DHT) — the case study of Section 5.3.

The DHT stores 64-bit integer key/value pairs and consists of *local
volumes*, one per process, each managed by (and stored in the window of) its
owning rank.  A local volume is made of

* a fixed-size **table** of buckets (open addressing by hash),
* an **overflow heap** holding elements appended after hash collisions,
* a **next-free pointer** into the overflow heap.

Every element occupies three window words: ``key``, ``value`` and ``next``
(the index of the next element in the bucket's chain, or a null sentinel).

Inserts use CAS to claim an empty bucket; on a collision the losing process
claims an overflow slot by atomically incrementing the next-free pointer and
then links the new element at the end of the bucket chain with a second CAS,
exactly as described in the paper.  Flushes are issued to keep the remote
memory consistent.  Lookups traverse the chain with Gets.  Both are written
once, as step generators (``insert_steps`` / ``lookup_steps``, see "Step
programs" in :mod:`repro.rma.runtime_base`); ``insert`` / ``lookup`` are
their blocking forms, derived as :mod:`repro.core.lock_base` derives a lock's.

Synchronization policy is orthogonal: the DHT can run in ``foMPI-A`` mode
(no lock; every access relies on the CAS/FAO protocol alone), or each
operation can be bracketed by a reader-writer lock (``foMPI-RW``/``RMA-RW``),
which is what the Figure 6 benchmark compares.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Optional, Tuple

from repro.core.layout import LayoutAllocator
from repro.core.lock_base import blocking_form
from repro.rma.ops import AtomicOp
from repro.rma.runtime_base import CAS, FAO, FLUSH, GET, PUT, ProcessContext, Steps

__all__ = ["DHTSpec", "DHTHandle", "DHTFullError"]

#: Sentinel for "no element" in bucket heads and chain links.
_EMPTY = -1

#: Sentinel key meaning "slot not yet claimed".
_NO_KEY = -(1 << 62)

#: Words per stored element: key, value, next-link.
_ELEM_WORDS = 3


class DHTFullError(RuntimeError):
    """Raised when a local volume's overflow heap is exhausted."""


@dataclass(frozen=True)
class DHTSpec:
    """Shared description of the distributed hashtable layout.

    Args:
        num_processes: Number of ranks, each owning one local volume.
        table_size: Number of hash buckets per local volume.
        heap_size: Number of overflow elements per local volume.
        base_offset: First window word used by the DHT in every rank's window.
    """

    num_processes: int
    table_size: int = 64
    heap_size: int = 256
    base_offset: int = 0
    bucket_base: int = field(init=False, default=0)
    heap_base: int = field(init=False, default=0)
    next_free_offset: int = field(init=False, default=0)

    def __post_init__(self) -> None:
        if self.num_processes < 1:
            raise ValueError("num_processes must be >= 1")
        if self.table_size < 1:
            raise ValueError("table_size must be >= 1")
        if self.heap_size < 1:
            raise ValueError("heap_size must be >= 1")
        alloc = LayoutAllocator(base=self.base_offset)
        next_free = alloc.field("dht_next_free")
        buckets = alloc.allocate("dht_buckets", self.table_size)
        heap = alloc.allocate("dht_heap", self.heap_size * _ELEM_WORDS)
        object.__setattr__(self, "next_free_offset", next_free)
        object.__setattr__(self, "bucket_base", buckets.start)
        object.__setattr__(self, "heap_base", heap.start)

    # -- layout helpers ------------------------------------------------------ #

    @property
    def window_words(self) -> int:
        return self.heap_base + self.heap_size * _ELEM_WORDS

    def bucket_offset(self, bucket: int) -> int:
        """Window offset of the head index of ``bucket``."""
        if not 0 <= bucket < self.table_size:
            raise IndexError(f"bucket {bucket} out of range 0..{self.table_size - 1}")
        return self.bucket_base + bucket

    def element_offsets(self, index: int) -> Tuple[int, int, int]:
        """Window offsets of the ``(key, value, next)`` words of heap element ``index``."""
        if not 0 <= index < self.heap_size:
            raise IndexError(f"heap index {index} out of range 0..{self.heap_size - 1}")
        base = self.heap_base + index * _ELEM_WORDS
        return base, base + 1, base + 2

    def home_rank(self, key: int) -> int:
        """Rank whose local volume stores ``key``."""
        return self._mix(key) % self.num_processes

    def bucket_of(self, key: int) -> int:
        """Bucket index of ``key`` inside its local volume."""
        return (self._mix(key) // self.num_processes) % self.table_size

    @staticmethod
    def _mix(key: int) -> int:
        """A cheap 64-bit integer hash (splitmix64 finalizer)."""
        z = (int(key) + 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
        return (z ^ (z >> 31)) & 0x7FFFFFFFFFFFFFFF

    def init_window(self, rank: int) -> Mapping[int, int]:
        """Empty volume: all buckets empty, all heap slots unclaimed."""
        values = {self.next_free_offset: 0}
        for b in range(self.table_size):
            values[self.bucket_offset(b)] = _EMPTY
        for i in range(self.heap_size):
            key_off, _value_off, next_off = self.element_offsets(i)
            values[key_off] = _NO_KEY
            values[next_off] = _EMPTY
        return values

    def make(self, ctx: ProcessContext) -> "DHTHandle":
        return DHTHandle(self, ctx)


class DHTHandle:
    """Per-process operations on the distributed hashtable."""

    def __init__(self, spec: DHTSpec, ctx: ProcessContext):
        if ctx.nranks != spec.num_processes:
            raise ValueError("DHT spec and runtime disagree on the number of ranks")
        self.spec = spec
        self.ctx = ctx

    # ------------------------------------------------------------------ #
    # Insert
    # ------------------------------------------------------------------ #

    def insert_steps(self, key: int, value: int, target_rank: Optional[int] = None) -> Steps:
        """Insert ``key -> value``; returns False when the key already exists.

        ``target_rank`` overrides the home rank (the Figure 6 benchmark directs
        every operation at one selected victim volume).
        """
        spec = self.spec
        rank = spec.home_rank(key) if target_rank is None else target_rank
        bucket_off = spec.bucket_offset(spec.bucket_of(key))

        # Claim a heap slot for the new element up-front (the common case needs
        # it; an unused slot on a duplicate key is wasted but harmless, which is
        # how fixed-array RMA hashtables typically behave).
        slot = yield (FAO, 1, rank, spec.next_free_offset, AtomicOp.SUM)
        yield (FLUSH, rank)
        if slot >= spec.heap_size:
            raise DHTFullError(
                f"local volume of rank {rank} is full ({spec.heap_size} overflow slots)"
            )
        key_off, value_off, next_off = spec.element_offsets(slot)
        yield (PUT, key, rank, key_off)
        yield (PUT, value, rank, value_off)
        yield (PUT, _EMPTY, rank, next_off)
        yield (FLUSH, rank)

        # Try to become the head of the bucket.
        prev_head = yield (CAS, slot, _EMPTY, rank, bucket_off)
        yield (FLUSH, rank)
        if prev_head == _EMPTY:
            return True

        # Collision: walk the chain; append at the tail unless the key exists.
        current = prev_head
        while True:
            cur_key_off, _cur_val_off, cur_next_off = spec.element_offsets(current)
            existing_key = yield (GET, rank, cur_key_off)
            yield (FLUSH, rank)
            if existing_key == key:
                return False
            prev_next = yield (CAS, slot, _EMPTY, rank, cur_next_off)
            yield (FLUSH, rank)
            if prev_next == _EMPTY:
                return True
            current = prev_next

    # ------------------------------------------------------------------ #
    # Lookup
    # ------------------------------------------------------------------ #

    def lookup_steps(self, key: int, target_rank: Optional[int] = None) -> Steps:
        """Return the value stored under ``key`` or ``None`` when absent."""
        spec = self.spec
        rank = spec.home_rank(key) if target_rank is None else target_rank
        bucket_off = spec.bucket_offset(spec.bucket_of(key))

        current = yield (GET, rank, bucket_off)
        yield (FLUSH, rank)
        while current != _EMPTY:
            key_off, value_off, next_off = spec.element_offsets(current)
            stored_key = yield (GET, rank, key_off)
            stored_value = yield (GET, rank, value_off)
            nxt = yield (GET, rank, next_off)
            yield (FLUSH, rank)
            if stored_key == key:
                return stored_value
            current = nxt
        return None

    insert = blocking_form("insert_steps")
    lookup = blocking_form("lookup_steps")
