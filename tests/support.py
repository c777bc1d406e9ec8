"""Shared helpers for the test-suite.

The lock tests all follow the same pattern: run an SPMD program in which
every rank repeatedly enters a critical section guarded by the lock under
test, and instrument the critical section so that any mutual-exclusion
violation is recorded in the windows (rather than raising inside the
simulated program).  The helpers here build those programs for both the
mutual-exclusion and the reader-writer cases and run them on either runtime.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence

from repro.core.constants import NULL_RANK
from repro.core.lock_base import LockSpec, RWLockSpec
from repro.rma.ops import AtomicOp
from repro.rma.runtime_base import RMARuntime
from repro.rma.sim_runtime import SimRuntime
from repro.rma.thread_runtime import ThreadRuntime
from repro.topology.machine import Machine

__all__ = [
    "MutexOutcome",
    "RWOutcome",
    "build_runtime",
    "rank_threads_started",
    "run_mutex_check",
    "run_rw_check",
]

@contextmanager
def rank_threads_started() -> Iterator[List[str]]:
    """Names of the simulator rank threads started inside the block.

    The horizon runtime steps a step program inline, on the calling thread;
    "no ``sim-rank-*`` thread was started" is how the tests assert that the
    inline driver stayed engaged (and a full set, that a run was
    thread-backed).  Also checks that the block leaves no thread running.
    """
    before = set(threading.enumerate())
    names: List[str] = []
    start = threading.Thread.start

    def recording_start(thread: threading.Thread) -> None:
        if thread.name.startswith("sim-rank-"):
            names.append(thread.name)
        start(thread)

    threading.Thread.start = recording_start
    try:
        yield names
    finally:
        threading.Thread.start = start
    assert set(threading.enumerate()) <= before, "a run left threads behind"


#: Simulated "hold the lock" time inside instrumented critical sections (µs).
CS_HOLD_US = 0.4


@dataclass
class MutexOutcome:
    """Result of an instrumented mutual-exclusion run."""

    violations: int
    acquisitions: int
    expected_acquisitions: int
    total_time_us: float

    @property
    def ok(self) -> bool:
        return self.violations == 0 and self.acquisitions == self.expected_acquisitions


@dataclass
class RWOutcome:
    """Result of an instrumented reader-writer run."""

    violations: int
    acquisitions: int
    expected_acquisitions: int
    max_concurrent_readers: int
    reads: int
    writes: int
    total_time_us: float

    @property
    def ok(self) -> bool:
        return self.violations == 0 and self.acquisitions == self.expected_acquisitions


def build_runtime(
    kind: str,
    machine: Machine,
    window_words: int,
    *,
    seed: int = 0,
) -> RMARuntime:
    """Create the requested runtime backend ('sim' or 'thread')."""
    if kind == "sim":
        return SimRuntime(machine, window_words=window_words, seed=seed)
    if kind == "thread":
        return ThreadRuntime(machine, window_words=window_words, seed=seed)
    raise ValueError(f"unknown runtime kind {kind!r}")


def run_mutex_check(
    spec: LockSpec,
    machine: Machine,
    *,
    iterations: int = 5,
    runtime: str = "sim",
    seed: int = 0,
) -> MutexOutcome:
    """Run every rank through ``iterations`` instrumented critical sections."""
    owner_off = spec.window_words
    counter_off = spec.window_words + 1
    violations_off = spec.window_words + 2
    rt = build_runtime(runtime, machine, spec.window_words + 3, seed=seed)

    def window_init(rank: int) -> Dict[int, int]:
        values = dict(spec.init_window(rank))
        if rank == 0:
            values[owner_off] = NULL_RANK
        return values

    def program(ctx):
        lock = spec.make(ctx)
        ctx.barrier()
        for _ in range(iterations):
            lock.acquire()
            owner = ctx.get(0, owner_off)
            ctx.flush(0)
            if owner != NULL_RANK:
                ctx.accumulate(1, 0, violations_off)
            ctx.put(ctx.rank, 0, owner_off)
            ctx.flush(0)
            ctx.compute(CS_HOLD_US)
            still_me = ctx.get(0, owner_off)
            ctx.flush(0)
            if still_me != ctx.rank:
                ctx.accumulate(1, 0, violations_off)
            ctx.put(NULL_RANK, 0, owner_off)
            ctx.accumulate(1, 0, counter_off)
            ctx.flush(0)
            lock.release()
        ctx.barrier()

    result = rt.run(program, window_init=window_init)
    window = rt.window(0)
    return MutexOutcome(
        violations=window.read(violations_off),
        acquisitions=window.read(counter_off),
        expected_acquisitions=machine.num_processes * iterations,
        total_time_us=result.total_time_us,
    )


def run_rw_check(
    spec: RWLockSpec,
    machine: Machine,
    *,
    iterations: int = 5,
    writer_ranks: Optional[Sequence[int]] = None,
    fw: Optional[float] = None,
    runtime: str = "sim",
    seed: int = 0,
) -> RWOutcome:
    """Run an instrumented reader/writer workload.

    Roles: if ``writer_ranks`` is given those ranks always write and everyone
    else always reads; otherwise each operation is a write with probability
    ``fw`` (default 0.2).
    """
    if fw is None:
        fw = 0.2
    readers_off = spec.window_words
    writer_off = spec.window_words + 1
    counter_off = spec.window_words + 2
    violations_off = spec.window_words + 3
    max_readers_off = spec.window_words + 4
    rt = build_runtime(runtime, machine, spec.window_words + 5, seed=seed)

    writer_set = set(writer_ranks) if writer_ranks is not None else None

    def program(ctx):
        lock = spec.make(ctx)
        rng = ctx.rng
        ctx.barrier()
        reads = 0
        writes = 0
        for _ in range(iterations):
            if writer_set is not None:
                as_writer = ctx.rank in writer_set
            else:
                as_writer = bool(rng.random() < fw)
            if as_writer:
                lock.acquire_write()
                readers = ctx.get(0, readers_off)
                other_writer = ctx.get(0, writer_off)
                ctx.flush(0)
                if readers != 0 or other_writer != 0:
                    ctx.accumulate(1, 0, violations_off)
                ctx.put(1, 0, writer_off)
                ctx.flush(0)
                ctx.compute(CS_HOLD_US)
                ctx.put(0, 0, writer_off)
                ctx.accumulate(1, 0, counter_off)
                ctx.flush(0)
                lock.release_write()
                writes += 1
            else:
                lock.acquire_read()
                writer_present = ctx.get(0, writer_off)
                ctx.flush(0)
                if writer_present != 0:
                    ctx.accumulate(1, 0, violations_off)
                concurrent = ctx.fao(1, 0, readers_off, AtomicOp.SUM) + 1
                ctx.flush(0)
                prev_max = ctx.get(0, max_readers_off)
                ctx.flush(0)
                if concurrent > prev_max:
                    ctx.put(concurrent, 0, max_readers_off)
                    ctx.flush(0)
                ctx.compute(CS_HOLD_US)
                ctx.accumulate(-1, 0, readers_off)
                ctx.accumulate(1, 0, counter_off)
                ctx.flush(0)
                lock.release_read()
                reads += 1
        ctx.barrier()
        return {"reads": reads, "writes": writes}

    result = rt.run(program, window_init=spec.init_window)
    window = rt.window(0)
    return RWOutcome(
        violations=window.read(violations_off),
        acquisitions=window.read(counter_off),
        expected_acquisitions=machine.num_processes * iterations,
        max_concurrent_readers=window.read(max_readers_off),
        reads=sum(r["reads"] for r in result.returns),
        writes=sum(r["writes"] for r in result.returns),
        total_time_us=result.total_time_us,
    )
