"""The lock-table service layer: many lock instances behind one spec.

A lock service does not guard one critical section — it guards a *table* of
them (one per key, vertex, bucket, ...).  :func:`build_lock_table` turns any
registered ``@register_scheme`` lock into such a table:

* **Replicated tables** (:class:`LockTableSpec`) — for every harness-capable
  scheme the table is a *template*: the builder's spec, the slab stride and
  the home rotation.  Entry ``i``'s spec is that spec re-based at offset
  ``i * stride`` (every built-in spec is a frozen dataclass with a
  ``base_offset`` field, so ``dataclasses.replace`` re-runs the layout
  allocator), derived the first time entry ``i`` is touched and memoized —
  a run pays one ``replace`` per entry its ranks use, not one per entry of
  the table.  Specs with a ``home_rank``/``tail_rank`` field get their home
  rotated round-robin across ranks, so the table's hot spots are
  distributed the way a real lock service would shard them.
* **Striped tables** (:class:`StripedLockTableSpec`) — the DHT's per-volume
  striped lock (``striped-rw``) already *is* a lock table with one stripe per
  rank; the adapter folds the ``num_locks`` key space onto the ``P`` stripes
  (``key % P``) and binds a plain RW facade per accessed entry, reusing
  :class:`~repro.dht.striped_lock.StripeBoundRWLockHandle`.

Every table entry is a :class:`TableEntry` — a mutable *scheme slot*, also
created on first touch, holding
the entry's placed spec, its slab geometry (``base_offset``/``stride``) and a
version counter.  ``entry.swap_spec(new_spec)`` re-places a different lock
scheme (or the same scheme with different thresholds) into the entry's slab;
handles notice the version bump and lazily rebuild, which is how the adaptive
control plane (:mod:`repro.control`) switches schemes per entry at traffic
phase boundaries.  A swap is only safe at a drain point (no in-flight
holders) and the entry's window words must be re-initialized for the new
scheme — the open-loop client's crossing
(:func:`repro.traffic.scenarios.make_open_loop_program`) performs both as a
collective, bit-reproducible virtual-time event.

Both table specs follow the ordinary :class:`~repro.core.lock_base.LockSpec`
surface (``window_words``/``init_window``/``make``), so the benchmark
harness, the runtimes and ``Cluster.session`` treat a whole table exactly
like a single lock.  Entry specs, slots and handles are all created lazily
per accessed entry — under Zipf skew most of a 1024-entry table is never
touched by a given rank, and at P=64 a whole ``traffic-zipf`` point touches
about a third of it.
"""

from __future__ import annotations

import collections.abc
import dataclasses
from dataclasses import dataclass, field
from typing import Any, Dict, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.api.registry import get_scheme
from repro.core.lock_base import LockHandle, LockSpec
from repro.dht.striped_lock import StripeBoundRWLockHandle, StripedRWLockSpec
from repro.rma.runtime_base import ProcessContext
from repro.rma.window import WindowImage

__all__ = [
    "LockTableHandle",
    "LockTableSpec",
    "StripedLockTableSpec",
    "TableEntry",
    "as_lock_table",
    "build_lock_table",
]


class TableEntry:
    """One mutable scheme slot of a lock table.

    The entry owns a fixed slab of the table's window —
    ``[base_offset, base_offset + stride)`` — and the spec currently placed
    in it.  ``swap_spec`` installs a different base spec (re-based into the
    slab, homes rotated like :func:`build_lock_table` does at construction)
    and bumps ``version``, which invalidates every lazily-built handle.

    Installs are idempotent per target version: during a collective swap all
    ranks call ``swap_spec`` with the same planned version and only the first
    call mutates the slot, so the crossing needs no designated leader.
    """

    __slots__ = (
        "index",
        "base_offset",
        "stride",
        "nranks",
        "spec",
        "rw",
        "scheme",
        "version",
        "swappable",
        "_initial",
    )

    def __init__(
        self,
        index: int,
        base_offset: int,
        stride: int,
        spec: LockSpec,
        rw: bool,
        scheme: str,
        *,
        nranks: Optional[int] = None,
        swappable: bool = True,
    ):
        self.index = int(index)
        self.base_offset = int(base_offset)
        self.stride = int(stride)
        self.nranks = nranks
        self.spec = spec
        self.rw = bool(rw)
        self.scheme = scheme
        self.version = 0
        self.swappable = swappable
        self._initial = (spec, self.rw, scheme)

    def place(
        self,
        new_spec: LockSpec,
        *,
        nranks: Optional[int] = None,
        home_rank: Optional[int] = None,
    ) -> LockSpec:
        """Re-base ``new_spec`` into this entry's slab (pure; no install).

        Replicates the construction-time placement exactly: entry 0 keeps the
        base spec untouched, later entries get ``base_offset`` moved to their
        slab and any ``home_rank``/``tail_rank`` rotated ``index % nranks``.
        ``home_rank`` overrides that default rotation — the topology-aware
        re-homing path (:mod:`repro.scale.rehome`) pins a hot entry's
        ``home_rank``/``tail_rank`` to the rank its traffic originates from
        instead of the round-robin shard.  Raises :class:`ValueError` when
        the spec cannot be re-based, has no home to move, or its footprint
        does not fit the slab.
        """
        if not self.swappable:
            raise ValueError(
                f"table entry {self.index} shares one striped window layout "
                f"and cannot swap its scheme slot"
            )
        if self.index == 0 and self.base_offset == 0 and home_rank is None:
            placed = new_spec
        else:
            if not dataclasses.is_dataclass(new_spec):
                raise ValueError(
                    f"cannot place a non-dataclass spec into table entry "
                    f"{self.index}; entries need re-basable specs (a frozen "
                    f"dataclass with a base_offset field)"
                )
            field_names = {f.name for f in dataclasses.fields(new_spec) if f.init}
            if "base_offset" not in field_names:
                raise ValueError(
                    f"spec {type(new_spec).__name__} has no base_offset field; "
                    f"its window layout cannot be re-based into table entry {self.index}"
                )
            overrides: Dict[str, Any] = {"base_offset": self.base_offset}
            ranks = self.nranks if nranks is None else int(nranks)
            if ranks:
                if "home_rank" in field_names:
                    overrides["home_rank"] = self.index % ranks
                if "tail_rank" in field_names:
                    overrides["tail_rank"] = self.index % ranks
            if home_rank is not None:
                if "home_rank" not in field_names and "tail_rank" not in field_names:
                    raise ValueError(
                        f"spec {type(new_spec).__name__} has neither a home_rank "
                        f"nor a tail_rank field; table entry {self.index} cannot "
                        f"be re-homed"
                    )
                if "home_rank" in field_names:
                    overrides["home_rank"] = int(home_rank)
                if "tail_rank" in field_names:
                    overrides["tail_rank"] = int(home_rank)
            placed = dataclasses.replace(new_spec, **overrides)
        if placed.window_words > self.base_offset + self.stride:
            raise ValueError(
                f"spec {type(new_spec).__name__} needs "
                f"{placed.window_words - self.base_offset} words but table entry "
                f"{self.index}'s slab holds {self.stride}; build the table with "
                f"a larger min_entry_words"
            )
        return placed

    def swap_spec(
        self,
        new_spec: LockSpec,
        *,
        rw: Optional[bool] = None,
        scheme: Optional[str] = None,
        nranks: Optional[int] = None,
        version: Optional[int] = None,
        home_rank: Optional[int] = None,
    ) -> Optional[LockSpec]:
        """Place ``new_spec`` into the slot and bump the entry version.

        ``version`` names the target version of a planned collective swap;
        when the entry already reached it (another rank installed first) the
        call is a no-op returning ``None``.  Without ``version`` the swap is
        unconditional (``version + 1``).  ``home_rank`` forwards to
        :meth:`place` (re-homing).  Returns the placed spec on install.
        """
        placed = self.place(new_spec, nranks=nranks, home_rank=home_rank)
        target = self.version + 1 if version is None else int(version)
        if target <= self.version:
            return None
        self.spec = placed
        if rw is not None:
            self.rw = bool(rw)
        if scheme is not None:
            self.scheme = scheme
        self.version = target
        return placed

    def reinstall(self, *, version: Optional[int] = None) -> Optional[LockSpec]:
        """Version-bump the entry without changing its placed spec.

        The elastic resize crossing (:mod:`repro.scale.elastic`) re-initializes
        a newly-activated entry's slab words and then calls this so every
        lazily-built handle (and any attached oracle observer) rebuilds
        against the pristine slab.  Same idempotence contract as
        :meth:`swap_spec`: with a target ``version``, only the first rank's
        call bumps the slot.
        """
        target = self.version + 1 if version is None else int(version)
        if target <= self.version:
            return None
        self.version = target
        return self.spec

    def reset(self) -> None:
        """Restore the construction-time spec (version back to 0)."""
        self.spec, self.rw, self.scheme = self._initial
        self.version = 0


class LockTableHandle:
    """Per-process view of a lock table: one lazily-built handle per entry.

    ``lock(index)`` returns the plain :class:`LockHandle` /
    :class:`~repro.core.lock_base.RWLockHandle` guarding table entry
    ``index``, rebuilt whenever the entry's scheme slot was swapped (the
    handle tracks each entry's :class:`TableEntry` version).  ``observe(
    observer, index)`` wraps that entry's handle with the live-oracle
    observer (:func:`repro.verification.oracles.observe_lock`) — per entry,
    because the oracles' invariants (mutual exclusion, bounded bypass) hold
    per lock, not across the whole table.  The observer survives swaps: a
    rebuilt handle is re-wrapped with the same observer, so oracle counters
    continue across the scheme change.
    """

    def __init__(self, table: "LockTableSpec | StripedLockTableSpec", ctx: ProcessContext):
        self.table = table
        self.ctx = ctx
        #: ``index -> (entry, entry version the handle was built for, handle)``.
        self._slots: Dict[int, Tuple[TableEntry, int, LockHandle]] = {}
        self._observers: Dict[int, Any] = {}

    def lock(self, index: int) -> LockHandle:
        """The handle guarding table entry ``index`` (built on first use)."""
        slot = self._slots.get(index)
        if slot is not None and slot[0].version == slot[1]:
            return slot[2]
        entry = self.table.entry(index)
        handle = self._build_entry(entry)
        observer = self._observers.get(index)
        if observer is not None:
            from repro.verification.oracles import observe_lock

            handle = observe_lock(handle, self.ctx, observer)
        self._slots[index] = (entry, entry.version, handle)
        return handle

    def _build_entry(self, entry: TableEntry) -> LockHandle:
        return entry.spec.make(self.ctx)

    def implements_steps(self) -> bool:
        """Whether the entry handles implement ``*_steps`` (all entries of a
        table are built from one scheme; entry 0 answers for them)."""
        return self.lock(0).implements_steps()

    def observe(self, observer: Any, index: int = 0) -> None:
        """Attach the run observer to entry ``index`` (the oracle target).

        The wrapper issues no RMA calls, so observed runs keep bit-identical
        fingerprints; index 0 is the natural target under Zipf popularity
        (the hottest, most contended entry).
        """
        self._observers[index] = observer
        self._slots.pop(index, None)
        self.lock(index)


class _DerivedSpecs(collections.abc.Sequence):
    """The entry specs of a table from :func:`build_lock_table`, derived on use.

    Entry 0 is the builder's spec as built; entry ``i`` is that spec with
    ``base_offset`` moved to ``i * stride`` and every ``rotated`` home field
    set to ``i % nranks`` — one ``dataclasses.replace``, made the first time
    index ``i`` is read and memoized.  The sequence holds no reference to its
    table: derived state must not form a cycle, or every table would outlive
    its run until the cyclic collector found it.
    """

    __slots__ = ("base", "stride", "rotated", "nranks", "_len", "_memo")

    def __init__(
        self, base: LockSpec, num_locks: int, stride: int, rotated: Tuple[str, ...], nranks: int
    ):
        self.base = base
        self.stride = stride
        self.rotated = rotated
        self.nranks = nranks
        self._len = num_locks
        self._memo: Dict[int, LockSpec] = {0: base}

    def __len__(self) -> int:
        return self._len

    def __getitem__(self, index: Any) -> Any:
        if isinstance(index, slice):
            return tuple(self[i] for i in range(*index.indices(self._len)))
        spec = self._memo.get(index)
        if spec is None:
            index = range(self._len)[index]  # a tuple's IndexError / TypeError
            spec = self._memo.get(index)
            if spec is None:
                homes = {name: index % self.nranks for name in self.rotated}
                spec = self._memo[index] = dataclasses.replace(
                    self.base, base_offset=index * self.stride, **homes
                )
        return spec

    def _key(self) -> tuple:
        return (self.base, self._len, self.stride, self.rotated, self.nranks)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, _DerivedSpecs):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        return (
            f"_DerivedSpecs(base={self.base!r}, num_locks={self._len}, "
            f"stride={self.stride}, rotated={self.rotated}, nranks={self.nranks})"
        )


@dataclass(frozen=True)
class LockTableSpec(LockSpec):
    """``num_locks`` independent instances of one scheme, stacked in the window.

    ``specs`` is the *construction-time* entry sequence (immutable; it feeds
    ``init_window`` and the window layout): a tuple for a hand-built
    ``LockTableSpec(specs=...)``, and for a table from
    :func:`build_lock_table` a template whose entry specs are derived on
    first read and memoized.  The live scheme slots are :class:`TableEntry`
    objects, created the first time ``entry(index)`` is asked for from
    ``specs[index]`` (one path for both kinds), which a run's crossings
    (adaptive swaps, elastic regrowth, re-homing) may mutate mid-run;
    ``reset_entries()`` restores the construction state.  Everything else on
    a table is derived from its construction state and memoized, so a table
    object may be reused across runs bit-identically as long as its slots
    are reset before a run reads them: the traffic scenarios hand out one
    shared table per configuration and reset it at hand-out, before the
    swap planner reads it, and the open-loop client resets it again at run
    start when it has crossings, so a program object can be run twice.  A
    run without crossings creates slots but never changes one.

    ``min_entry_words`` floors every entry's slab size so a swap can place a
    scheme with a larger window footprint than the construction scheme.
    ``nranks`` (the machine's process count) drives home/tail rotation of
    swapped-in specs; 0 leaves swapped specs unrotated.

    ``init_window`` of a table from :func:`build_lock_table` costs one
    ``spec.init_window(rank)`` per *group* of entries that differ only in
    ``base_offset`` (one group, or one per rotated home), not one per entry:
    the group's first entry is evaluated and its words are tiled over the
    group's slabs, whose bases follow from the stride.  That relies on the
    **rebasing convention** — ``replace(spec, base_offset=b).init_window(r)``
    is ``spec.init_window(r)`` with every offset moved by ``b``, all inside
    the entry's slab — which is checked against the group's last entry
    whenever a tile is built; the two are the only entry specs
    ``init_window`` derives.  Tiles are read-only
    :class:`~repro.rma.window.WindowImage` arrays, memoized by content: a
    table with one group returns the one shared image, a table with several
    returns their concatenation, and ``Window.load`` stores either with one
    fancy assignment.  A table that fails the check, and any hand-built
    ``LockTableSpec(specs=...)``, is initialized by merging every entry's
    init into a dict, conflicting offsets rejected.
    """

    specs: Sequence[LockSpec]
    rw: bool = False
    scheme: str = ""
    nranks: int = 0
    min_entry_words: int = 0
    _entries: Dict[int, TableEntry] = field(
        default_factory=dict, init=False, compare=False, repr=False
    )
    #: Recorded by :func:`build_lock_table`: index ranges of entries that
    #: differ only in ``base_offset``.  ``None``: no such structure is known.
    _tiling: Optional[Tuple[range, ...]] = field(
        default=None, init=False, compare=False, repr=False
    )
    _tiles: Dict[Any, WindowImage] = field(
        default_factory=dict, init=False, compare=False, repr=False
    )
    #: Each tile group's first ``init_window``, bound on the first tiled init.
    _group_inits: Optional[list] = field(
        default=None, init=False, compare=False, repr=False
    )

    def __post_init__(self) -> None:
        if not self.specs:
            raise ValueError("a lock table needs at least one entry")
        if not isinstance(self.specs, _DerivedSpecs):
            object.__setattr__(self, "specs", tuple(self.specs))

    @property
    def num_locks(self) -> int:
        return len(self.specs)

    def _slab(self, index: int) -> Tuple[int, int]:
        """``(base_offset, stride)`` of entry ``index``'s slab."""
        specs = self.specs
        if isinstance(specs, _DerivedSpecs):
            return index * specs.stride, specs.stride
        spec = specs[index]
        base = int(getattr(spec, "base_offset", 0))
        return base, max(spec.window_words - base, int(self.min_entry_words))

    @property
    def window_words(self) -> int:
        # Entries are stacked at increasing base offsets; the last entry's
        # slab end covers the whole table (== the construction specs' maximum
        # window_words whenever min_entry_words does not inflate the slabs).
        if isinstance(self.specs, _DerivedSpecs):
            return self.num_locks * self.specs.stride
        return max(sum(self._slab(index)) for index in range(self.num_locks))

    def init_window(self, rank: int) -> Mapping[int, int]:
        # Always the construction-time layout: runtimes initialize windows
        # before the run starts, when every entry is pristine.  Swapped-in
        # specs re-initialize their slab words explicitly at the swap point.
        if self._tiling is not None:
            tiled = self._tiled_init(rank)
            if tiled is not None:
                return tiled
        return LockSpec.merge_inits(*(spec.init_window(rank) for spec in self.specs))

    def _tiled_init(self, rank: int) -> Optional[WindowImage]:
        """``rank``'s init from one evaluation per tile group; ``None`` if not re-basable."""
        tiles = []
        memo = self._tiles
        inits = self._group_inits
        if inits is None:
            inits = [self.specs[group[0]].init_window for group in self._tiling]
            object.__setattr__(self, "_group_inits", inits)
        for group, init in zip(self._tiling, inits):
            template = init(rank)
            # Memoized by content, so ranks with equal inits share the tile.
            key = (group[0], tuple(template.items()))
            tile = memo.get(key)
            if tile is None:
                tile = self._tile(group, template, rank)
                if tile is None:
                    object.__setattr__(self, "_tiling", None)
                    return None
                memo[key] = tile
            tiles.append(tile)
        if len(tiles) == 1:
            return tiles[0]
        return WindowImage.concat(tiles)  # slabs are disjoint (checked in _tile)

    def _tile(
        self, group: range, template: Mapping[int, int], rank: int
    ) -> Optional[WindowImage]:
        """``template`` (the init of the group's first entry) repeated at every
        slab of ``group``; ``None`` when the rebasing convention does not hold
        between the group's first and last entry, or a word does not fit int64
        (the merge path leaves that to ``Window.load``'s error)."""
        try:
            offsets = np.fromiter(template.keys(), dtype=np.int64, count=len(template))
            words = np.fromiter(template.values(), dtype=np.int64, count=len(template))
        except OverflowError:
            return None
        if len(group) == 1:
            return WindowImage(offsets, words)
        base, stride = self._slab(group[0])
        if template and not (base <= min(template) and max(template) < base + stride):
            return None  # words outside the slab could collide with a neighbour's
        shifts = np.arange(0, len(group) * group.step * stride, group.step * stride, dtype=np.int64)
        reach = int(shifts[-1])
        witness = self.specs[group[-1]].init_window(rank)
        if witness != {offset + reach: value for offset, value in template.items()}:
            return None
        return WindowImage((shifts[:, None] + offsets).ravel(), np.tile(words, len(group)))

    def make(self, ctx: ProcessContext) -> LockTableHandle:
        return LockTableHandle(self, ctx)

    def entry(self, index: int) -> TableEntry:
        """The mutable scheme slot of table entry ``index`` (range-checked),
        created from ``specs[index]`` on first use."""
        entry = self._entries.get(index)
        if entry is None:
            if not 0 <= index < self.num_locks:
                raise ValueError(f"lock index {index} out of range 0..{self.num_locks - 1}")
            base, stride = self._slab(index)
            entry = self._entries[index] = TableEntry(
                index, base, stride, self.specs[index], self.rw, self.scheme,
                nranks=self.nranks or None,
            )
        return entry

    def reset_entries(self) -> None:
        """Restore every entry's construction-time scheme slot (an entry not
        yet created is pristine)."""
        for entry in self._entries.values():
            entry.reset()


@dataclass(frozen=True)
class StripedLockTableSpec(LockSpec):
    """A ``num_locks`` key space folded onto the striped per-volume RW lock.

    Entry ``k`` maps to stripe ``k % P`` — the DHT's striping machinery
    reused as a table: distinct keys on the same stripe share a lock word,
    exactly like hash-striped lock managers do.  Entries share one window
    layout, so their scheme slots are not swappable.
    """

    inner: StripedRWLockSpec
    num_locks: int
    rw: bool = True
    scheme: str = "striped-rw"

    def __post_init__(self) -> None:
        if self.num_locks < 1:
            raise ValueError("num_locks must be >= 1")
        object.__setattr__(self, "_entry_cache", {})

    @property
    def window_words(self) -> int:
        return self.inner.window_words

    def init_window(self, rank: int) -> Mapping[int, int]:
        return self.inner.init_window(rank)

    def make(self, ctx: ProcessContext) -> "_StripedTableHandle":
        return _StripedTableHandle(self, ctx)

    def entry(self, index: int) -> TableEntry:
        """The (swap-rejecting) scheme slot of entry ``index`` (range-checked)."""
        if not 0 <= index < self.num_locks:
            raise ValueError(f"lock index {index} out of range 0..{self.num_locks - 1}")
        cache: Dict[int, TableEntry] = self._entry_cache  # type: ignore[attr-defined]
        entry = cache.get(index)
        if entry is None:
            entry = cache[index] = TableEntry(
                index, 0, self.inner.window_words, self.inner, True, self.scheme,
                swappable=False,
            )
        return entry

    def reset_entries(self) -> None:
        """Striped entries are immutable; nothing to restore."""


class _StripedTableHandle(LockTableHandle):
    """Table handle whose entries are stripe-bound facades of one striped handle."""

    def __init__(self, table: StripedLockTableSpec, ctx: ProcessContext):
        super().__init__(table, ctx)
        self._striped = table.inner.make(ctx)

    def _build_entry(self, entry: TableEntry) -> LockHandle:
        # Entries share one striped handle per process; each entry binds a
        # plain RW facade to its stripe (key % P).
        return StripeBoundRWLockHandle(self._striped, entry.index % self.ctx.nranks)


def build_lock_table(
    machine: Any,
    scheme: str,
    num_locks: int,
    *,
    params: Optional[Mapping[str, Any]] = None,
    min_entry_words: int = 0,
) -> Tuple[LockSpec, bool]:
    """Build a ``num_locks``-entry lock table of ``scheme``; returns ``(spec, is_rw)``.

    Harness-capable schemes are replicated (:class:`LockTableSpec`) from a
    template — the built spec, the slab stride and the home rotation — whose
    entry specs are derived on first use, so building costs one scheme build
    whatever ``num_locks`` is; the striped per-volume lock becomes a
    :class:`StripedLockTableSpec`.  A
    third-party scheme joins tables automatically as long as its spec is a
    frozen dataclass with a ``base_offset`` field — the same layout
    convention every built-in lock follows.

    ``min_entry_words`` floors each entry's slab size so the adaptive control
    plane can later swap in schemes with larger window footprints (see
    :meth:`TableEntry.swap_spec`).
    """
    if num_locks < 1:
        raise ValueError("num_locks must be >= 1")
    info = get_scheme(scheme)
    if not info.harness:
        base = info.build(machine, **dict(params or {}))
        if isinstance(base, StripedRWLockSpec):
            return StripedLockTableSpec(inner=base, num_locks=num_locks), True
        raise ValueError(
            f"scheme {scheme!r} neither follows the plain lock-handle protocol "
            f"nor provides striped-table support; it cannot form a lock table"
        )
    base = info.build(machine, **dict(params or {}))
    nranks = machine.num_processes
    if num_locks == 1:
        return (
            LockTableSpec(
                specs=(base,), rw=info.rw, scheme=scheme, nranks=nranks,
                min_entry_words=min_entry_words,
            ),
            info.rw,
        )
    if not dataclasses.is_dataclass(base):
        raise ValueError(
            f"scheme {scheme!r} builds a non-dataclass spec; a lock table needs "
            f"re-basable specs (a frozen dataclass with a base_offset field)"
        )
    field_names = {f.name for f in dataclasses.fields(base) if f.init}
    if "base_offset" not in field_names:
        raise ValueError(
            f"scheme {scheme!r} has no base_offset field; its window layout "
            f"cannot be re-based into a lock table"
        )
    if getattr(base, "base_offset", 0) != 0:
        raise ValueError("lock tables require the base spec to start at base_offset 0")
    stride = max(base.window_words, int(min_entry_words))
    # Rotate centralized homes across ranks so the table is sharded the way a
    # real lock service would place it (distributed schemes such as rma-rw
    # have no home field and are inherently spread already).
    rotated = tuple(name for name in ("home_rank", "tail_rank") if name in field_names)
    table = LockTableSpec(
        specs=_DerivedSpecs(base, num_locks, stride, rotated, nranks),
        rw=info.rw, scheme=scheme, nranks=nranks, min_entry_words=min_entry_words,
    )
    # Record what init_window tiles over: entries given the same home differ
    # only in base_offset.
    groups = [range(num_locks)]
    if rotated:
        groups = [range(home, num_locks, nranks) for home in range(min(nranks, num_locks))]
        if any(getattr(base, name) != 0 for name in rotated):
            # Entry 0 is the builder's own spec, and its home was not rotated to 0.
            groups[0:1] = [range(0, 1), range(nranks, num_locks, nranks)]
    object.__setattr__(table, "_tiling", tuple(group for group in groups if group))
    return table, info.rw


def as_lock_table(spec: LockSpec, is_rw: bool) -> "LockTableSpec | StripedLockTableSpec":
    """Coerce ``spec`` to a table (a single lock becomes a 1-entry table).

    Lets the traffic rank program drive whatever spec the harness hands it:
    the scenario's ``spec_transform`` normally supplies a real table, but a
    caller routing a plain lock through a traffic benchmark (e.g.
    ``Cluster.bench(lock, "traffic-zipf")``) simply gets every key mapped to
    that one lock.
    """
    if isinstance(spec, (LockTableSpec, StripedLockTableSpec)):
        return spec
    return LockTableSpec(specs=(spec,), rw=is_rw, scheme=type(spec).__name__)
