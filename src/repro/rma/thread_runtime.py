"""Real-thread RMA runtime.

While :class:`~repro.rma.sim_runtime.SimRuntime` provides deterministic
virtual-time execution for performance experiments, this backend runs every
rank on a genuinely concurrent OS thread with real races between them.  It is
used by the test-suite to stress the lock protocols under real, uncontrolled
interleavings (mutual exclusion, lost-wakeup and ABA style bugs show up here
first) and by users who want to drive the locks from ordinary threaded code.

Atomicity of window words is provided by one mutex per window, mirroring the
per-target atomicity that MPI-3 ``MPI_Fetch_and_op``/``MPI_Compare_and_swap``
guarantee.  ``spin_on_cells`` really polls (with a micro-sleep so the GIL is
shared), ``compute`` sleeps, and ``now()`` is wall-clock time in microseconds.
"""

from __future__ import annotations

import threading
import time
from collections import Counter
from typing import Any, Callable, List, Optional, Sequence

from repro.api.registry import register_runtime
from repro.rma.ops import AtomicOp, RMACall
from repro.rma.runtime_base import (
    Cell,
    ProcessContext,
    RMARuntime,
    RunResult,
    WindowInit,
    allocate_windows,
    blocking_program,
)
from repro.topology.machine import Machine
from repro.util.rng import rank_rng

__all__ = ["ThreadRuntime", "ThreadProcessContext"]

#: Sleep between unsuccessful poll iterations (seconds); keeps the GIL fair.
_POLL_SLEEP_S = 5e-6


class ThreadProcessContext(ProcessContext):
    """Per-rank handle bound to a :class:`ThreadRuntime` run."""

    def __init__(self, runtime: "ThreadRuntime", rank: int):
        self._rt = runtime
        self.rank = rank
        self.nranks = runtime.num_ranks
        self.rng = rank_rng(runtime.seed, rank)
        self._start = time.perf_counter()
        self.op_counts: Counter = Counter()

    @property
    def machine(self) -> Machine:
        return self._rt.machine

    def now(self) -> float:
        return (time.perf_counter() - self._start) * 1e6

    # -- Listing 1 -------------------------------------------------------- #

    def _account(self, call: RMACall, target: int) -> None:
        if not 0 <= target < self.nranks:
            raise ValueError(f"target rank {target} out of range 0..{self.nranks - 1}")
        self.op_counts[call.value] += 1
        delay = self._rt.injected_delay_us
        if delay:
            time.sleep(delay * 1e-6)

    def put(self, src_data: int, target: int, offset: int) -> None:
        self._account(RMACall.PUT, target)
        with self._rt._locks[target]:
            self._rt.windows[target].write(offset, int(src_data))

    def get(self, target: int, offset: int) -> int:
        self._account(RMACall.GET, target)
        with self._rt._locks[target]:
            return self._rt.windows[target].read(offset)

    def accumulate(self, operand: int, target: int, offset: int, op: AtomicOp = AtomicOp.SUM) -> None:
        self._account(RMACall.ACCUMULATE, target)
        with self._rt._locks[target]:
            self._rt.windows[target].apply(offset, int(operand), op)

    def fao(self, operand: int, target: int, offset: int, op: AtomicOp) -> int:
        self._account(RMACall.FAO, target)
        with self._rt._locks[target]:
            return self._rt.windows[target].fetch_and_op(offset, int(operand), op)

    def cas(self, src_data: int, cmp_data: int, target: int, offset: int) -> int:
        self._account(RMACall.CAS, target)
        with self._rt._locks[target]:
            return self._rt.windows[target].compare_and_swap(offset, int(cmp_data), int(src_data))

    def flush(self, target: int) -> None:
        self._account(RMACall.FLUSH, target)
        # Window mutations are applied eagerly under the per-window mutex, so a
        # flush only has ordering meaning; nothing further to do.

    # -- helpers ----------------------------------------------------------- #

    def spin_on_cells(self, cells: Sequence[Cell], predicate: Callable[[Sequence[int]], bool]) -> List[int]:
        cells = [(int(t), int(o)) for t, o in cells]
        targets = sorted({t for t, _ in cells})
        deadline = time.perf_counter() + self._rt.spin_timeout_s
        while True:
            values = [self.get(t, o) for t, o in cells]
            for t in targets:
                self.flush(t)
            if not predicate(values):
                return values
            if self._rt._abort.is_set():
                raise RuntimeError("aborting spin: another rank failed")
            if time.perf_counter() > deadline:
                raise TimeoutError(
                    f"rank {self.rank} spun for more than {self._rt.spin_timeout_s}s "
                    f"on cells {cells}; likely lost wake-up or deadlock"
                )
            time.sleep(_POLL_SLEEP_S)

    def compute(self, duration_us: float) -> None:
        if duration_us < 0:
            raise ValueError("compute duration must be non-negative")
        if duration_us > 0:
            time.sleep(duration_us * 1e-6)

    def barrier(self) -> None:
        self._rt._barrier.wait(timeout=self._rt.spin_timeout_s)


class ThreadRuntime(RMARuntime):
    """Run every rank on its own OS thread with genuine concurrency."""

    def __init__(
        self,
        machine: Machine,
        *,
        window_words: int = 64,
        seed: int = 0,
        injected_delay_us: float = 0.0,
        spin_timeout_s: float = 60.0,
    ):
        self.machine = machine
        self.window_words = int(window_words)
        self.seed = int(seed)
        self.injected_delay_us = float(injected_delay_us)
        self.spin_timeout_s = float(spin_timeout_s)
        if self.window_words < 1:
            raise ValueError("window_words must be >= 1")
        self._locks: List[threading.Lock] = []
        self._barrier: threading.Barrier = threading.Barrier(self.num_ranks)
        self._abort = threading.Event()

    @property
    def num_ranks(self) -> int:
        return self.machine.num_processes

    def run(
        self,
        program: Callable[..., Any],
        *,
        window_init: Optional[WindowInit] = None,
        program_args: Optional[Sequence[Any]] = None,
    ) -> RunResult:
        nranks = self.num_ranks
        if program_args is not None and len(program_args) != nranks:
            raise ValueError(f"program_args must have one entry per rank ({nranks})")
        program = blocking_program(program)  # a step program runs through ctx.run_steps

        self.windows = allocate_windows(nranks, self.window_words, window_init)
        self._locks = [threading.Lock() for _ in range(nranks)]
        self._barrier = threading.Barrier(nranks)
        self._abort.clear()

        contexts = [ThreadProcessContext(self, r) for r in range(nranks)]
        results: List[Any] = [None] * nranks
        finish: List[float] = [0.0] * nranks
        errors: List[Optional[BaseException]] = [None] * nranks

        def worker(rank: int) -> None:
            ctx = contexts[rank]
            try:
                arg = program_args[rank] if program_args is not None else None
                results[rank] = program(ctx, arg) if program_args is not None else program(ctx)
            except BaseException as exc:  # noqa: BLE001
                errors[rank] = exc
                self._abort.set()
                self._barrier.abort()
            finally:
                finish[rank] = ctx.now()

        threads = [
            threading.Thread(target=worker, args=(r,), name=f"rma-rank-{r}", daemon=True)
            for r in range(nranks)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()

        for exc in errors:
            if exc is not None and not isinstance(exc, threading.BrokenBarrierError):
                raise exc
        for exc in errors:
            if exc is not None:
                raise exc

        totals: Counter = Counter()
        for ctx in contexts:
            totals.update(ctx.op_counts)
        return RunResult(
            returns=results,
            finish_times_us=finish,
            total_time_us=max(finish) if finish else 0.0,
            op_counts={k: int(v) for k, v in totals.items()},
            per_rank_op_counts=[dict(c.op_counts) for c in contexts],
        )


# --------------------------------------------------------------------------- #
# Registry entry (see repro.api): the wall-clock stress backend.
# --------------------------------------------------------------------------- #

@register_runtime(
    "thread",
    deterministic=False,
    help="one OS thread per rank with genuine races (wall-clock time)",
)
def _make_thread_runtime(
    machine, *, window_words=64, seed=0, latency=None, fabric=None, tracer=None,
    perturbation=None, observer=None,
):
    if latency is not None or fabric is not None or tracer is not None:
        raise ValueError(
            "the thread runtime executes in wall-clock time and accepts no "
            "latency, fabric or tracer models"
        )
    if perturbation is not None or observer is not None:
        raise ValueError(
            "the thread runtime's schedules are genuinely racy: seeded "
            "perturbation and run observers require a deterministic simulator "
            "backend ('horizon' or 'baseline')"
        )
    return ThreadRuntime(machine, window_words=window_words, seed=seed)
