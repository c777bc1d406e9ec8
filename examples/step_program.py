#!/usr/bin/env python3
"""Step programs: write a lock and a rank program once, as generators.

A *step program* yields its RMA requests instead of calling the blocking
context methods (see "Step programs" in :mod:`repro.rma.runtime_base`).  The
default ``horizon`` runtime steps such a program inline on the calling thread
— no OS thread per rank, a scheduling point costs a generator resume — and
a blocking program runs on rank threads bridged into the same scheduling
loop, with bit-identical results.

This example writes one small lock **once**, as ``acquire_steps`` /
``release_steps`` generators, and shows that

1. a step program composes it with ``yield from lock.acquire_steps()``;
2. the blocking ``lock.acquire()`` / ``with lock.held():`` API comes for free
   (``LockHandle`` derives it), so ordinary blocking programs keep working;
3. both styles produce the same simulated run on ``horizon``: the step
   program stepped inline, the blocking one bridged from rank threads.

(``examples/custom_lock.py`` is the other way round: a lock that implements
only the blocking methods keeps working, on rank threads bridged into the
same scheduling loop.)

Run with:  python examples/step_program.py
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from typing import Mapping

from repro.api import Cluster
from repro.bench.campaign import run_result_sha
from repro.core.layout import LayoutAllocator
from repro.core.lock_base import LockHandle, LockSpec
from repro.rma.runtime_base import BARRIER, CAS, COMPUTE, FLUSH, GET, PUT, ProcessContext

ITERATIONS = int(os.environ.get("REPRO_EXAMPLE_ITERATIONS", "8"))
NODES = int(os.environ.get("REPRO_EXAMPLE_NODES", "2"))
PROCS_PER_NODE = int(os.environ.get("REPRO_EXAMPLE_PROCS_PER_NODE", "4"))


@dataclass(frozen=True)
class StepTASLockSpec(LockSpec):
    """A centralized test-and-set lock with exponential backoff."""

    num_processes: int
    home_rank: int = 0
    base_offset: int = 0
    lock_offset: int = field(init=False, default=0)

    def __post_init__(self) -> None:
        alloc = LayoutAllocator(base=self.base_offset)
        object.__setattr__(self, "lock_offset", alloc.field("tas_word"))

    @property
    def window_words(self) -> int:
        return self.lock_offset + 1

    def init_window(self, rank: int) -> Mapping[int, int]:
        return {self.lock_offset: 0}

    def make(self, ctx: ProcessContext) -> "StepTASLockHandle":
        return StepTASLockHandle(self, ctx)


class StepTASLockHandle(LockHandle):
    """The protocol, once: each ``yield`` is the blocking call of the same name."""

    def __init__(self, spec: StepTASLockSpec, ctx: ProcessContext):
        self.spec = spec
        self.ctx = ctx

    def acquire_steps(self):
        spec = self.spec
        backoff = 0.2
        while True:
            prev = yield (CAS, 1, 0, spec.home_rank, spec.lock_offset)  # ctx.cas(1, 0, home, off)
            yield (FLUSH, spec.home_rank)                               # ctx.flush(home)
            if prev == 0:
                return
            yield (COMPUTE, float(self.ctx.rng.uniform(0.0, backoff)))  # ctx.compute(...)
            backoff = min(backoff * 2.0, 8.0)

    def release_steps(self):
        yield (PUT, 0, self.spec.home_rank, self.spec.lock_offset)
        yield (FLUSH, self.spec.home_rank)


def main() -> None:
    procs = NODES * PROCS_PER_NODE
    lock = StepTASLockSpec(num_processes=procs)
    shared_offset = lock.window_words

    def step_program(ctx):
        handle = lock.make(ctx)
        yield (BARRIER,)
        for _ in range(ITERATIONS):
            yield from handle.acquire_steps()
            value = yield (GET, 0, shared_offset)
            yield (FLUSH, 0)
            yield (PUT, value + 1, 0, shared_offset)
            yield (FLUSH, 0)
            yield from handle.release_steps()
        yield (BARRIER,)
        return ctx.now()

    def blocking_program(ctx):
        handle = lock.make(ctx)
        ctx.barrier()
        for _ in range(ITERATIONS):
            with handle.held():  # derived from acquire_steps/release_steps
                value = ctx.get(0, shared_offset)
                ctx.flush(0)
                ctx.put(value + 1, 0, shared_offset)
                ctx.flush(0)
        ctx.barrier()
        return ctx.now()

    fingerprints = {}
    print("program    counter   host seconds   fingerprint")
    with Cluster(procs=procs, procs_per_node=PROCS_PER_NODE, seed=3) as c:
        for name, program in (("step", step_program), ("blocking", blocking_program)):
            session = c.session(lock, extra_words=1)
            started = time.perf_counter()
            run = session.run(program)
            seconds = time.perf_counter() - started
            final = session.window(0).read(shared_offset)
            assert final == procs * ITERATIONS, "lost update: the lock is broken!"
            fingerprints[name] = run_result_sha(run)
            print(f"{name:<10} {final:>7}   {seconds:>12.4f}   {fingerprints[name][:16]}")
    assert len(set(fingerprints.values())) == 1, fingerprints
    print("\nOK: one lock source, two program styles - one simulated run.")
    print("horizon stepped the step program inline (no thread per rank) and ran the")
    print("blocking program on rank threads, each call handed to the same loop.")


if __name__ == "__main__":
    main()
