"""Striped (per-volume) reader-writer locks for fine-grained synchronization.

The paper motivates the single-operation benchmark with "irregular parallel
workloads such as graph processing with vertices protected by fine locks"
(Section 5): instead of one global lock, the shared state is partitioned and
every partition carries its own small lock.  This module provides that
pattern for the distributed hashtable: one centralized reader-writer word per
*local volume*, hosted in the owning rank's window, so an operation on volume
``v`` only synchronizes with other operations on ``v``.

The per-volume lock itself is deliberately the simple centralized
reader-counter/writer-bit protocol (the foMPI-RW stand-in): with striping the
per-lock contention is already low, so the interesting comparison — exercised
by the DHT workload's ``striped-rw`` scheme and the fine-grained example — is
*structural*: global RMA-RW versus many small per-volume locks, under skewed
and uniform key distributions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

from repro.api.registry import register_scheme
from repro.core.layout import LayoutAllocator
from repro.core.lock_base import RWLockHandle, RWLockSpec, blocking_form
from repro.rma.ops import AtomicOp
from repro.rma.runtime_base import (
    ACCUMULATE,
    CAS,
    FAO,
    FLUSH,
    GET,
    SPIN_WHILE,
    ProcessContext,
    Steps,
)

__all__ = [
    "StripeBoundRWLockHandle",
    "StripeBoundRWLockSpec",
    "StripedRWLockHandle",
    "StripedRWLockSpec",
]

#: Writer bit of each per-volume lock word (far above any reader count).
_WRITER_BIT = 1 << 40


@dataclass(frozen=True)
class StripedRWLockSpec:
    """One reader-writer lock word per rank, at the same offset in every window.

    Args:
        num_processes: Total number of ranks (= number of stripes/volumes).
        base_offset: First window word used by the stripe (one word per rank).
    """

    num_processes: int
    base_offset: int = 0
    word_offset: int = field(init=False, default=0)

    def __post_init__(self) -> None:
        if self.num_processes < 1:
            raise ValueError("num_processes must be >= 1")
        alloc = LayoutAllocator(base=self.base_offset)
        object.__setattr__(self, "word_offset", alloc.field("striped_rw_word"))

    @property
    def window_words(self) -> int:
        return self.word_offset + 1

    @property
    def num_stripes(self) -> int:
        return self.num_processes

    def init_window(self, rank: int) -> Mapping[int, int]:
        return {self.word_offset: 0}

    def make(self, ctx: ProcessContext) -> "StripedRWLockHandle":
        return StripedRWLockHandle(self, ctx)


class StripedRWLockHandle:
    """Per-process handle: reader/writer access to any stripe by volume index."""

    def __init__(self, spec: StripedRWLockSpec, ctx: ProcessContext):
        if ctx.nranks != spec.num_processes:
            raise ValueError("lock spec and runtime disagree on the number of ranks")
        self.spec = spec
        self.ctx = ctx

    def _check_volume(self, volume: int) -> None:
        if not 0 <= volume < self.spec.num_processes:
            raise ValueError(
                f"volume {volume} out of range 0..{self.spec.num_processes - 1}"
            )

    # -- reader side ------------------------------------------------------- #

    def acquire_read_steps(self, volume: int) -> Steps:
        """Enter volume ``volume`` as a reader (shared access to that stripe)."""
        self._check_volume(volume)
        offset = self.spec.word_offset
        while True:
            prev = yield (FAO, 1, volume, offset, AtomicOp.SUM)
            yield (FLUSH, volume)
            if prev < _WRITER_BIT:
                return
            yield (ACCUMULATE, -1, volume, offset, AtomicOp.SUM)
            yield (FLUSH, volume)
            yield (SPIN_WHILE, volume, offset, lambda v: v >= _WRITER_BIT)

    def release_read_steps(self, volume: int) -> Steps:
        self._check_volume(volume)
        yield (ACCUMULATE, -1, volume, self.spec.word_offset, AtomicOp.SUM)
        yield (FLUSH, volume)

    # -- writer side ------------------------------------------------------- #

    def acquire_write_steps(self, volume: int) -> Steps:
        """Enter volume ``volume`` exclusively."""
        self._check_volume(volume)
        offset = self.spec.word_offset
        while True:
            current = yield (GET, volume, offset)
            yield (FLUSH, volume)
            if current >= _WRITER_BIT:
                yield (SPIN_WHILE, volume, offset, lambda v: v >= _WRITER_BIT)
                continue
            prev = yield (CAS, current + _WRITER_BIT, current, volume, offset)
            yield (FLUSH, volume)
            if prev == current:
                break
        # Wait for the readers already inside this stripe to drain.
        yield (SPIN_WHILE, volume, offset, lambda v: v != _WRITER_BIT)

    def release_write_steps(self, volume: int) -> Steps:
        self._check_volume(volume)
        yield (ACCUMULATE, -_WRITER_BIT, volume, self.spec.word_offset, AtomicOp.SUM)
        yield (FLUSH, volume)

    acquire_read = blocking_form("acquire_read_steps")
    release_read = blocking_form("release_read_steps")
    acquire_write = blocking_form("acquire_write_steps")
    release_write = blocking_form("release_write_steps")

    # -- convenience -------------------------------------------------------- #

    def reading(self, volume: int):
        """Context-manager form of the reader side for one stripe."""
        return _StripeGuard(self, volume, writer=False)

    def writing(self, volume: int):
        """Context-manager form of the writer side for one stripe."""
        return _StripeGuard(self, volume, writer=True)


class _StripeGuard:
    """Context manager binding one stripe of a :class:`StripedRWLockHandle`."""

    def __init__(self, handle: StripedRWLockHandle, volume: int, *, writer: bool):
        self.handle = handle
        self.volume = volume
        self.writer = writer

    def __enter__(self):
        if self.writer:
            self.handle.acquire_write(self.volume)
        else:
            self.handle.acquire_read(self.volume)
        return self

    def __exit__(self, exc_type, exc, tb):
        if self.writer:
            self.handle.release_write(self.volume)
        else:
            self.handle.release_read(self.volume)
        return False


# --------------------------------------------------------------------------- #
# Conformance adapter: the striped lock bound to a single stripe behaves as a
# plain reader-writer lock, which lets the conformance sweep (repro conform)
# drive the per-volume protocol through the standard harness program and check
# its safety oracles even though the native handle opts out of the harness.
# --------------------------------------------------------------------------- #

@dataclass(frozen=True)
class StripeBoundRWLockSpec(RWLockSpec):
    """A :class:`StripedRWLockSpec` with every handle pinned to one volume."""

    inner: StripedRWLockSpec
    volume: int = 0

    def __post_init__(self) -> None:
        if not 0 <= self.volume < self.inner.num_processes:
            raise ValueError(f"volume {self.volume} out of range")

    @property
    def window_words(self) -> int:
        return self.inner.window_words

    def init_window(self, rank: int) -> Mapping[int, int]:
        return self.inner.init_window(rank)

    def make(self, ctx: ProcessContext) -> "StripeBoundRWLockHandle":
        return StripeBoundRWLockHandle(self.inner.make(ctx), self.volume)


class StripeBoundRWLockHandle(RWLockHandle):
    """Plain RW-handle facade over one stripe of a striped handle.

    Shared by the conformance adapter below and the traffic engine's striped
    lock table (:mod:`repro.traffic.table`), which binds one of these per
    accessed table entry.
    """

    def __init__(self, inner: StripedRWLockHandle, volume: int):
        self.inner = inner
        self.ctx = inner.ctx
        self.volume = volume

    def acquire_read_steps(self) -> Steps:
        return self.inner.acquire_read_steps(self.volume)

    def release_read_steps(self) -> Steps:
        return self.inner.release_read_steps(self.volume)

    def acquire_write_steps(self) -> Steps:
        return self.inner.acquire_write_steps(self.volume)

    def release_write_steps(self) -> Steps:
        return self.inner.release_write_steps(self.volume)


# --------------------------------------------------------------------------- #
# Registry entry (see repro.api).  The striped lock's handle takes a volume
# argument, so it is not a plain LockHandle and opts out of the lock
# microbenchmark harness (harness=False); the DHT workload builds it through
# the registry like every other scheme.  The conformance adapter pins every
# handle to stripe 0 so the safety oracles still cover the protocol.
# --------------------------------------------------------------------------- #

def _striped_conformance_spec(machine) -> StripeBoundRWLockSpec:
    return StripeBoundRWLockSpec(
        inner=StripedRWLockSpec(num_processes=machine.num_processes), volume=0
    )


@register_scheme(
    "striped-rw",
    rw=True,
    category="dht",
    harness=False,
    conformance_adapter=_striped_conformance_spec,
    help="one centralized RW lock word per local volume (fine-grained striping)",
)
def _build_striped_rw(machine) -> StripedRWLockSpec:
    return StripedRWLockSpec(num_processes=machine.num_processes)
