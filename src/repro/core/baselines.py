"""Centralized baseline locks standing in for the foMPI locking schemes.

The paper compares against the locks shipped with foMPI, the scalable MPI-3
RMA implementation of Gerstenberger et al.:

* ``foMPI-Spin`` — a simple spin lock providing mutual exclusion.  Modeled
  here by :class:`FompiSpinLockSpec`: a single lock word on a home rank,
  acquired with CAS and test-and-test-and-set spinning plus exponential
  back-off.
* ``foMPI-RW`` — a reader-writer lock providing shared and exclusive access.
  Modeled by :class:`FompiRWLockSpec`: a single counter word on a home rank
  whose low part counts readers and whose high "writer bit" serializes
  writers, exactly the kind of centralized, topology-oblivious structure the
  paper identifies as the scalability bottleneck.

Both are faithful *behavioural* stand-ins: they are correct locks whose
performance characteristics (single remote hot spot, no topology awareness)
match the baselines' role in the evaluation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

from repro.api.registry import register_scheme
from repro.core.layout import LayoutAllocator
from repro.core.lock_base import LockHandle, LockSpec, RWLockHandle, RWLockSpec
from repro.rma.ops import AtomicOp
from repro.rma.runtime_base import (
    ACCUMULATE,
    CAS,
    COMPUTE,
    FAO,
    FLUSH,
    GET,
    PUT,
    SPIN_WHILE,
    ProcessContext,
    Steps,
)

__all__ = [
    "FompiSpinLockSpec",
    "FompiSpinLockHandle",
    "FompiRWLockSpec",
    "FompiRWLockHandle",
]

#: Writer bit of the centralized reader-writer word (far above any reader count).
_RW_WRITER_BIT = 1 << 40

#: Back-off bounds in microseconds for the spin lock.
_BACKOFF_MIN_US = 0.2
_BACKOFF_MAX_US = 16.0


@dataclass(frozen=True)
class FompiSpinLockSpec(LockSpec):
    """A centralized CAS spin lock on ``home_rank`` (the foMPI-Spin stand-in)."""

    num_processes: int
    home_rank: int = 0
    base_offset: int = 0
    lock_offset: int = field(init=False, default=0)

    def __post_init__(self) -> None:
        if self.num_processes < 1:
            raise ValueError("num_processes must be >= 1")
        if not 0 <= self.home_rank < self.num_processes:
            raise ValueError(f"home_rank {self.home_rank} out of range")
        alloc = LayoutAllocator(base=self.base_offset)
        object.__setattr__(self, "lock_offset", alloc.field("spin_lock"))

    @property
    def window_words(self) -> int:
        return self.lock_offset + 1

    def init_window(self, rank: int) -> Mapping[int, int]:
        return {self.lock_offset: 0} if rank == self.home_rank else {}

    def make(self, ctx: ProcessContext) -> "FompiSpinLockHandle":
        return FompiSpinLockHandle(self, ctx)


class FompiSpinLockHandle(LockHandle):
    """Test-and-test-and-set with exponential back-off on a single remote word."""

    def __init__(self, spec: FompiSpinLockSpec, ctx: ProcessContext):
        if ctx.nranks != spec.num_processes:
            raise ValueError("lock spec and runtime disagree on the number of ranks")
        self.spec = spec
        self.ctx = ctx
        # One word on one rank: every request is fixed, and built once.
        home, word = spec.home_rank, spec.lock_offset
        self._try_lock = (CAS, 1, 0, home, word)
        self._wait_unlocked = (SPIN_WHILE, home, word, lambda v: v != 0)
        self._unlock = (PUT, 0, home, word)
        self._flush = (FLUSH, home)

    def acquire_steps(self) -> Steps:
        backoff = _BACKOFF_MIN_US
        while True:
            prev = yield self._try_lock
            yield self._flush
            if prev == 0:
                return
            # Locked by someone else: back off, then spin on the value before
            # retrying the CAS (test-and-test-and-set).
            yield (COMPUTE, backoff)
            backoff = min(backoff * 2.0, _BACKOFF_MAX_US)
            yield self._wait_unlocked

    def release_steps(self) -> Steps:
        yield self._unlock
        yield self._flush


@dataclass(frozen=True)
class FompiRWLockSpec(RWLockSpec):
    """A centralized reader-counter / writer-bit RW lock (the foMPI-RW stand-in)."""

    num_processes: int
    home_rank: int = 0
    base_offset: int = 0
    word_offset: int = field(init=False, default=0)

    def __post_init__(self) -> None:
        if self.num_processes < 1:
            raise ValueError("num_processes must be >= 1")
        if not 0 <= self.home_rank < self.num_processes:
            raise ValueError(f"home_rank {self.home_rank} out of range")
        alloc = LayoutAllocator(base=self.base_offset)
        object.__setattr__(self, "word_offset", alloc.field("rw_word"))

    @property
    def window_words(self) -> int:
        return self.word_offset + 1

    def init_window(self, rank: int) -> Mapping[int, int]:
        return {self.word_offset: 0} if rank == self.home_rank else {}

    def make(self, ctx: ProcessContext) -> "FompiRWLockHandle":
        return FompiRWLockHandle(self, ctx)


class FompiRWLockHandle(RWLockHandle):
    """Readers bump a shared counter; writers set an exclusive bit and drain readers."""

    def __init__(self, spec: FompiRWLockSpec, ctx: ProcessContext):
        if ctx.nranks != spec.num_processes:
            raise ValueError("lock spec and runtime disagree on the number of ranks")
        self.spec = spec
        self.ctx = ctx
        # One word on one rank: all but the writer's CAS is fixed, and built once.
        home, word = spec.home_rank, spec.word_offset
        self._arrive = (FAO, 1, home, word, AtomicOp.SUM)
        self._depart = (ACCUMULATE, -1, home, word, AtomicOp.SUM)
        self._read = (GET, home, word)
        self._clear_writer = (ACCUMULATE, -_RW_WRITER_BIT, home, word, AtomicOp.SUM)
        self._wait_no_writer = (SPIN_WHILE, home, word, lambda v: v >= _RW_WRITER_BIT)
        self._wait_drained = (SPIN_WHILE, home, word, lambda v: v != _RW_WRITER_BIT)
        self._flush = (FLUSH, home)

    # -- reader side ------------------------------------------------------- #

    def acquire_read_steps(self) -> Steps:
        while True:
            prev = yield self._arrive
            yield self._flush
            if prev < _RW_WRITER_BIT:
                return
            # A writer holds or awaits the lock: undo and wait for it to finish.
            yield self._depart
            yield self._flush
            yield self._wait_no_writer

    def release_read_steps(self) -> Steps:
        yield self._depart
        yield self._flush

    # -- writer side ------------------------------------------------------- #

    def acquire_write_steps(self) -> Steps:
        spec = self.spec
        while True:
            current = yield self._read
            yield self._flush
            if current >= _RW_WRITER_BIT:
                # Another writer is pending or active: wait for it to clear.
                yield self._wait_no_writer
                continue
            prev = yield (CAS, current + _RW_WRITER_BIT, current, spec.home_rank, spec.word_offset)
            yield self._flush
            if prev == current:
                break
        # The writer bit is set: new readers bounce; wait for active readers to drain.
        yield self._wait_drained

    def release_write_steps(self) -> Steps:
        yield self._clear_writer
        yield self._flush


# --------------------------------------------------------------------------- #
# Registry entries (see repro.api): the centralized foMPI baselines.
# --------------------------------------------------------------------------- #

@register_scheme(
    "fompi-spin",
    category="mcs",
    help="centralized CAS spin lock with exponential back-off (foMPI-Spin stand-in)",
)
def _build_fompi_spin(machine) -> FompiSpinLockSpec:
    return FompiSpinLockSpec(num_processes=machine.num_processes)


@register_scheme(
    "fompi-rw",
    rw=True,
    category="rw",
    help="centralized reader-counter/writer-bit RW lock (foMPI-RW stand-in)",
)
def _build_fompi_rw(machine) -> FompiRWLockSpec:
    return FompiRWLockSpec(num_processes=machine.num_processes)
