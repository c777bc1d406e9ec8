"""Deterministic discrete-event RMA runtime with a time-horizon scheduler.

This backend is the repository's substitute for the paper's Cray XC30 /
foMPI testbed.  Every rank is a logical process with its own virtual clock
and RMA window; RMA calls charge latencies from a
:class:`~repro.rma.latency.LatencyModel` that depends on the topological
distance between origin and target.  Execution follows the deterministic
scheduling contract documented in :mod:`repro.rma.runtime_base`: after every
clock advance, the runnable rank with the smallest ``(clock, rank)`` key
continues, so the same program with the same seed produces bit-identical
results on every run — and bit-identical results to the preserved seed
scheduler (:mod:`repro.rma.baseline_runtime`), as pinned down by the golden
tests.

Scheduler architecture (the "time-horizon" rewrite)
---------------------------------------------------
The seed scheduler paid a global lock, an O(P) linear scan and up to two OS
thread handoffs per RMA operation.  This implementation produces the exact
same execution order with three structural changes:

* **Horizon fast path.**  The scheduler maintains ``_horizon``: the smallest
  ``(clock, rank)`` key over every *other* runnable rank.  While the
  executing rank's key stays below the horizon it keeps running — no lock,
  no heap, no handoff — because the seed scheduler would have picked it
  again anyway.  Only when an advance crosses the horizon does the rank
  enter the scheduler.

* **Min-heap scheduling.**  Runnable ranks wait in a heap keyed on
  ``(clock, rank)``; picking the next rank is O(log P) instead of O(P).
  A thread-backed run validates an entry against the rank's status and clock
  when it pops it: an abort or a kill strands stale ones.  An inline run's
  keys are always live (see ``_run_inline``).

* **Threadless spin-waiters.**  ``spin_on_cells`` — the protocols'
  ``do {Get; Flush} while (...)`` loops and by far the densest source of
  context switches under contention — is one step sub-program
  (``_poll_steps``): a ``Get`` *leg* per cell and a ``Flush`` leg per target,
  the predicate, then a re-read if a write raced the round (per-cell write
  counts tell) or a park that takes the rank off the heap until a polled
  cell is written.  A thread-backed rank's legs are issued by a generator
  task on whichever thread drives the scheduler while its own OS thread stays
  parked: a wake/re-park cycle costs zero thread handoffs (the seed paid two
  per poll round).

Thread handoffs that do remain (program-to-program baton transfers) use a
raw ``threading.Lock`` as a binary semaphore, which is roughly twice as fast
as the seed's ``threading.Event`` round trip.  Per-operation accounting uses
per-rank integer arrays indexed by call (folded into name-keyed dicts once at
``run()`` end) and the precomputed :class:`~repro.rma.latency.CostTable`, so
the fast path is a handful of array lookups.

**Step programs run without rank threads at all, through one loop.**  A rank
program that is a generator function (see "Step programs" in
:mod:`repro.rma.runtime_base`) is stepped inline on the thread that called
``run()``, and ``_drive`` is the single site every request of such a run
passes through, a poll's legs included: on ``SPIN`` / ``SPIN_WHILE`` the poll
sub-program becomes the rank's *active* generator, and what it returns — or
raises: every round is the spinner's own turn — arrives at the program's
``yield``.  Nearly every operation crosses the horizon at P=64 (some other
rank is earlier), so the crossing is written into the loop, not behind a
call, and the loop pays per request only for what varies per request.  Which
path a run takes is read off its input: a blocking program, or any program
under a fault plan (a kill unwinds one rank's frames), is thread-backed as
described above and drives a step program through ``ctx.run_steps``.

If every unfinished rank is parked or waiting at a barrier the runtime
raises :class:`~repro.rma.runtime_base.SimDeadlockError`, which doubles as a
protocol-level deadlock detector in the test-suite.
"""

from __future__ import annotations

import gc
import threading
import time
from contextlib import contextmanager, suppress
from heapq import heappop, heappush, heappushpop
from typing import Any, Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro.api.registry import register_runtime
from repro.rma.fabric import FabricContentionModel
from repro.rma.latency import LatencyModel, cost_table
from repro.rma.perturbation import PerturbationModel, RankPerturbation
from repro.rma.ops import CALLS, CALL_INDEX, NUM_CALLS, AtomicOp, RMACall
from repro.rma.runtime_base import (
    ACCUMULATE,
    BARRIER,
    CAS,
    COMPUTE,
    FAO,
    FLUSH,
    GET,
    PUT,
    SPIN,
    SPIN_WHILE,
    Cell,
    FaultHorizonError,
    ProcessContext,
    RMARuntime,
    RunResult,
    RuntimeError_,
    SimDeadlockError,
    WindowInit,
    allocate_windows,
    bad_request,
    blocking_program,
    is_step_program,
)
from repro.topology.machine import Machine
from repro.util.rng import rank_rng

__all__ = ["SimRuntime", "SimProcessContext"]

# Rank states (ints: compared on the hot path).
_READY = 0
_PARKED = 1
_BARRIER = 2
_FINISHED = 3

#: Horizon sentinel when no other rank is runnable: every finite clock wins.
_INF_KEY: Tuple[float, int] = (float("inf"), -1)

_PUT = RMACall.PUT
_GET = RMACall.GET
_ACCUMULATE = RMACall.ACCUMULATE
_FAO = RMACall.FAO
_CAS = RMACall.CAS
_FLUSH = RMACall.FLUSH
_PUT_I = CALL_INDEX[_PUT]
_GET_I = CALL_INDEX[_GET]
_ACCUMULATE_I = CALL_INDEX[_ACCUMULATE]
_FAO_I = CALL_INDEX[_FAO]
_CAS_I = CALL_INDEX[_CAS]
_FLUSH_I = CALL_INDEX[_FLUSH]


class _Aborted(BaseException):
    """Internal control-flow exception used to unwind rank threads on abort."""


class _Killed(BaseException):
    """Unwinds exactly one rank's thread when a fault plan kills that rank.

    Raised at the rank's next public context call (or when the scheduler
    reaps it from a parked/barrier wait); caught in ``_rank_main``, which
    either restarts the rank or retires it with a crash-marker result.
    Never crosses into another rank's frames.
    """


_INF = float("inf")

#: Where each RMA request carries its target rank (its offset follows), by request kind.
_TARGET_AT = tuple(3 if kind == CAS else 1 if kind in (GET, FLUSH) else 2 for kind in range(NUM_CALLS))
#: The request kinds that are RMA calls (kind == CALL_INDEX): accounted, charged and timed.
_RMA_KINDS = frozenset(range(NUM_CALLS))

#: ``(_PARK, cells)``: only a poll sub-program may yield it (program kinds are >= 0).
_PARK = -1


def _bad_duration(duration_us: Any) -> ValueError:
    return ValueError(f"compute duration must be non-negative and finite, got {duration_us!r}")


@contextmanager
def _gc_paused():
    """Pause the cyclic GC for the duration of a run.

    A run allocates heavily (heap keys, poll values, request tuples) but
    creates no reference cycles on the hot path; collection stalls would only
    interrupt the scheduling loop.
    """
    was_enabled = gc.isenabled()
    if was_enabled:
        gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


class _RankState:
    """Scheduler bookkeeping for one rank."""

    __slots__ = (
        "rank",
        "clock",
        "status",
        "baton",
        "watching",
        "result",
        "finish_time",
        "ops",
        "spin",
        "spin_values",
        "steps",
        "caller",
        "pending",
        "fixed",
    )

    def __init__(self, rank: int):
        self.rank = rank
        self.clock = 0.0
        self.status = _READY
        # Binary semaphore: created locked; the rank's thread blocks by
        # acquiring it, the scheduler resumes the thread by releasing it.
        # A successful acquire leaves the lock locked again, which is exactly
        # the state the next wait needs.
        self.baton = threading.Lock()
        self.baton.acquire()
        #: The cells a parked rank waits on, as ``target * window_words + offset``.
        self.watching: Set[int] = set()
        self.result: Any = None
        self.finish_time = 0.0
        #: Per-call op counters indexed by repro.rma.ops.CALL_INDEX.
        self.ops: List[int] = [0] * NUM_CALLS
        #: Thread-backed runs only: the active spin task and what its poll returned.
        self.spin: Any = None
        self.spin_values: Optional[List[int]] = None
        #: Inline runs only: the active generator; the program's while a poll is
        #: the active one (else None); the request whose effect/value is to come.
        self.steps: Any = None
        self.caller: Any = None
        self.pending: Optional[tuple] = None
        #: Inline runs only: ``(rank, ops, rank * nranks, jitter or None)``, unpacked per turn.
        self.fixed: Optional[tuple] = None


class SimProcessContext(ProcessContext):
    """Per-rank handle bound to a :class:`SimRuntime` run."""

    #: The runtime's fault plan (None on unfaulted runs); fault-aware lock
    #: handles use it as a perfect failure detector via ``fault.dead_at``.
    fault: Optional[Any] = None
    #: Incarnation counter: 0 until the rank crashes and restarts.
    incarnation: int = 0

    def __init__(self, runtime: "SimRuntime", state: _RankState):
        self._rt = runtime
        self._state = state
        self.rank = state.rank
        self.nranks = runtime.num_ranks
        self.rng = rank_rng(runtime.seed, state.rank)
        #: The runtime's observer hook (None when no observer is installed);
        #: handle wrappers such as verification.oracles.observe_lock use it.
        self.observer = runtime.observer

    # -- properties ------------------------------------------------------- #

    @property
    def machine(self) -> Machine:
        """The machine hierarchy this run executes on."""
        return self._rt.machine

    def now(self) -> float:
        return self._state.clock

    # -- Listing 1 -------------------------------------------------------- #

    def put(self, src_data: int, target: int, offset: int) -> None:
        rt = self._rt
        rt._issue(self._state, _PUT, _PUT_I, target)
        rt.windows[target].write(offset, int(src_data))
        rt._post_write(self._state, target, offset)

    def get(self, target: int, offset: int) -> int:
        rt = self._rt
        rt._issue(self._state, _GET, _GET_I, target)
        return rt.windows[target].read(offset)

    def accumulate(self, operand: int, target: int, offset: int, op: AtomicOp = AtomicOp.SUM) -> None:
        rt = self._rt
        rt._issue(self._state, _ACCUMULATE, _ACCUMULATE_I, target)
        rt.windows[target].apply(offset, int(operand), op)
        rt._post_write(self._state, target, offset)

    def fao(self, operand: int, target: int, offset: int, op: AtomicOp) -> int:
        rt = self._rt
        rt._issue(self._state, _FAO, _FAO_I, target)
        value = rt.windows[target].fetch_and_op(offset, int(operand), op)
        rt._post_write(self._state, target, offset)
        if rt.observer is not None:
            rt.observer.on_rmw(self.rank, _FAO)
        return value

    def cas(self, src_data: int, cmp_data: int, target: int, offset: int) -> int:
        rt = self._rt
        rt._issue(self._state, _CAS, _CAS_I, target)
        value = rt.windows[target].compare_and_swap(offset, int(cmp_data), int(src_data))
        rt._post_write(self._state, target, offset)
        if rt.observer is not None:
            rt.observer.on_rmw(self.rank, _CAS)
        return value

    def flush(self, target: int) -> None:
        self._rt._issue(self._state, _FLUSH, _FLUSH_I, target)

    # -- helpers ----------------------------------------------------------- #

    #: Per-poll-round checkpoint (fault-plan runs only, see _FaultedSimContext).
    _spin_checkpoint: Optional[Callable[[], None]] = None

    def spin_on_cells(self, cells: Sequence[Cell], predicate: Callable[[Sequence[int]], bool]) -> List[int]:
        rt = self._rt
        state = self._state
        state.spin = rt._spin_task(
            state, rt._poll_steps(cells, predicate, False, self._spin_checkpoint)
        )
        # The first poll round runs immediately on this thread — exactly like
        # the seed, where the first Get's body executed before any scheduling
        # decision.  If the predicate is already false the spin never touches
        # the scheduler at all.
        if not rt._step_spin(state, own_thread=True):
            rt._run_tasks(state)
        values = state.spin_values
        state.spin_values = None
        assert values is not None
        return values

    def compute(self, duration_us: float) -> None:
        if not 0 <= duration_us < _INF:
            raise _bad_duration(duration_us)
        self._rt._advance(self._state, float(duration_us))

    def barrier(self) -> None:
        self._rt._barrier(self._state)


class _InlineContext(SimProcessContext):
    """Context of a rank whose step program is driven inline.

    Such a rank has no thread of its own: a blocking call would wait for a
    baton that nobody can release.  ``now()``, ``rank``, ``rng``, ``machine``
    and ``observer`` work as usual; everything that blocks is refused.
    """

    def _refuse(self, *args: Any, **kwargs: Any) -> Any:
        raise RuntimeError_(
            f"rank {self.rank} made a blocking context call inside a step program. "
            f"The run is stepped inline and has no rank thread to park: yield the "
            f"request instead (`yield (PUT, value, target, offset)` for "
            f"`ctx.put(value, target, offset)`, `yield from lock.acquire_steps()` "
            f"for `lock.acquire()`), or wrap the program in blocking_program() to "
            f"run it on rank threads"
        )

    put = get = accumulate = fao = cas = flush = _refuse
    spin_on_cells = compute = barrier = run_steps = _refuse


class _FaultedSimContext(SimProcessContext):
    """Context variant used only when a fault plan is installed.

    Every *public* context call checks the rank's virtual clock against its
    scheduled kill time (and the plan's optional horizon ceiling) before
    executing.  The clock observed at a context-call boundary is part of the
    deterministic scheduling contract, so the crash lands on the same call
    under every conforming scheduler.  Unfaulted runs never construct this
    class, which keeps their hot path byte-identical to the goldens.
    """

    def __init__(self, runtime: "SimRuntime", state: _RankState):
        super().__init__(runtime, state)
        plan = runtime.fault_plan
        self.fault = plan
        self.incarnation = 0
        self._kill_us = runtime._kill_at[state.rank]
        self._ceiling = plan.horizon_us if plan.horizon_us is not None else _INF

    def _entry(self, where: str = "(livelock under a crash?)") -> None:
        clock = self._state.clock
        if clock >= self._kill_us:
            raise _Killed()
        if clock >= self._ceiling:
            raise FaultHorizonError(
                f"rank {self.rank} passed the fault plan's virtual-time ceiling "
                f"of {self._ceiling:g}us at t={clock:.2f}us {where}"
            )

    def _spin_checkpoint(self) -> None:
        # Every poll round is a checkpoint like a public context call: a rank
        # that keeps polling past its kill time must still die deterministically.
        self._entry("while spinning")

    def _on_restarted(self) -> None:
        """Called once the scheduler revives this rank (one crash per run)."""
        self.incarnation += 1
        self._kill_us = _INF

    def put(self, src_data: int, target: int, offset: int) -> None:
        self._entry()
        SimProcessContext.put(self, src_data, target, offset)

    def get(self, target: int, offset: int) -> int:
        self._entry()
        return SimProcessContext.get(self, target, offset)

    def accumulate(self, operand: int, target: int, offset: int, op: AtomicOp = AtomicOp.SUM) -> None:
        self._entry()
        SimProcessContext.accumulate(self, operand, target, offset, op)

    def fao(self, operand: int, target: int, offset: int, op: AtomicOp) -> int:
        self._entry()
        return SimProcessContext.fao(self, operand, target, offset, op)

    def cas(self, src_data: int, cmp_data: int, target: int, offset: int) -> int:
        self._entry()
        return SimProcessContext.cas(self, src_data, cmp_data, target, offset)

    def flush(self, target: int) -> None:
        self._entry()
        SimProcessContext.flush(self, target)

    def spin_on_cells(self, cells: Sequence[Cell], predicate: Callable[[Sequence[int]], bool]) -> List[int]:
        self._entry()
        return SimProcessContext.spin_on_cells(self, cells, predicate)

    def compute(self, duration_us: float) -> None:
        self._entry()
        SimProcessContext.compute(self, duration_us)

    def barrier(self) -> None:
        self._entry()
        SimProcessContext.barrier(self)


class SimRuntime(RMARuntime):
    """Discrete-event simulation of ``P`` ranks communicating through RMA windows."""

    def __init__(
        self,
        machine: Machine,
        *,
        window_words: int = 64,
        latency: Optional[LatencyModel] = None,
        fabric: Optional[FabricContentionModel] = None,
        tracer: Optional[Any] = None,
        seed: int = 0,
        barrier_cost_us: float = 2.0,
        max_ops: Optional[int] = None,
        stall_timeout_s: float = 600.0,
        perturbation: Optional[PerturbationModel] = None,
        observer: Optional[Any] = None,
        fault_plan: Optional[Any] = None,
    ):
        self.machine = machine
        self.window_words = int(window_words)
        self.latency = latency if latency is not None else LatencyModel.cray_xc30()
        self.fabric = fabric
        if self.fabric is not None:
            self.fabric.validate_machine(machine)
        #: Optional trace sink with a ``record(rank, call, target, start_us, duration_us)``
        #: method (e.g. :class:`repro.bench.trace.TraceRecorder`).
        self.tracer = tracer
        #: Optional seeded schedule perturbation (see repro.rma.perturbation);
        #: None (or an all-zero model) leaves the cost path byte-identical to
        #: the golden-fingerprint behaviour.
        self.perturbation = perturbation
        #: Optional run observer (see repro.verification.oracles.RunObserver);
        #: reset via on_run_start at the top of every run().
        self.observer = observer
        #: Optional seeded crash schedule (see repro.fault.FaultPlan).  A null
        #: plan is normalized to None so every fault code path stays cold and
        #: the run is bit-identical to an unfaulted one.
        self.fault_plan = (
            fault_plan if fault_plan is not None and not fault_plan.is_null else None
        )
        self.seed = int(seed)
        self.barrier_cost_us = float(barrier_cost_us)
        self.max_ops = max_ops
        self.stall_timeout_s = float(stall_timeout_s)
        if self.window_words < 1:
            raise ValueError("window_words must be >= 1")

        # Re-entry guard: run() builds all per-run state and would corrupt an
        # in-flight run if invoked concurrently on the same instance.
        self._run_guard = threading.Lock()
        self._run_active = False

        # Per-run state (installed atomically at the top of run()).
        self._states: List[_RankState] = []
        self._nranks = machine.num_processes
        self._port_free: List[float] = []
        self._link_free: Dict[object, float] = {}
        self._lock = threading.Lock()  # guards abort/stall transitions only
        # A cell is the int ``target * window_words + offset``: the ranks parked on
        # it and, from when a poll first looks at it, how many writes it has seen.
        self._watchers: Dict[int, Set[int]] = {}
        self._versions: Dict[int, int] = {}
        self._barrier_waiting: List[int] = []
        self._abort = False
        self._abort_exc: Optional[BaseException] = None
        self._total_ops = 0
        self._heap: List[Tuple[float, int]] = []
        self._horizon: Tuple[float, int] = _INF_KEY
        self._cost: List[List[float]] = []
        self._occ: List[List[float]] = []
        self._node_of: Tuple[int, ...] = ()
        self._perturb: Optional[List[RankPerturbation]] = None
        # Fault state (only populated when a non-null fault plan is set):
        # per-rank kill times (inf = never), reaped ranks whose baton release
        # doubles as a kill signal, and the plan's restart schedule.
        self._kill_at: Optional[List[float]] = None
        self._reaped: Set[int] = set()

    # ------------------------------------------------------------------ #
    # Public API
    # ------------------------------------------------------------------ #

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
        with self._run_guard:
            if self._run_active:
                raise RuntimeError_(
                    "SimRuntime.run() is not reentrant: a run is already active on "
                    "this instance; create one runtime per concurrent run"
                )
            self._run_active = True
        try:
            return self._execute(program, window_init, program_args, nranks)
        finally:
            with self._run_guard:
                self._run_active = False

    def _execute(
        self,
        program: Callable[..., Any],
        window_init: Optional[WindowInit],
        program_args: Optional[Sequence[Any]],
        nranks: int,
    ) -> RunResult:
        # Build the fresh per-run state in locals first so a failure while
        # constructing it (e.g. a raising window_init) cannot leave the
        # instance with a half-reset mixture of old and new state.
        windows = allocate_windows(nranks, self.window_words, window_init)
        table = cost_table(self.latency, self.machine)
        perturbation = self.perturbation
        perturb_states: Optional[List[RankPerturbation]] = None
        if perturbation is not None:
            # Per-rank slowdowns are baked into the cost table (one build per
            # run); jitter/pause streams are rebuilt from the seed so every
            # run of this instance replays the same perturbed schedule.
            table = table.scaled_by_origin(perturbation.rank_multipliers(nranks))
            perturb_states = perturbation.rank_states(nranks)
        states = [_RankState(r) for r in range(nranks)]

        self.windows = windows
        self._states = states
        self._nranks = nranks
        self._cost = table.cost
        self._occ = table.occupancy
        self._node_of = table.node_of
        self._perturb = perturb_states
        if self.observer is not None:
            self.observer.on_run_start(nranks)
        self._port_free = [0.0] * nranks
        self._link_free = self.fabric.new_state() if self.fabric is not None else {}
        self._watchers = {}
        self._versions = {}
        self._barrier_waiting = []
        self._abort = False
        self._abort_exc = None
        self._total_ops = 0
        plan = self.fault_plan
        if plan is not None:
            plan.validate_for(nranks)
            kill_at = [_INF] * nranks
            for fault in plan.faults:
                kill_at[fault.rank] = fault.kill_us
            self._kill_at = kill_at
            self._reaped = set()
        else:
            self._kill_at = None
        # All clocks are zero; ties break by rank, so rank 0 starts and the
        # rest wait in the heap (already heap-ordered by construction).
        self._heap = [(0.0, r) for r in range(1, nranks)]
        self._horizon = (0.0, 1) if nranks > 1 else _INF_KEY

        # A step program is stepped inline on this thread; anything else —
        # a blocking program, or any program under a fault plan, whose kills
        # unwind one rank's frames at a time — gets a thread per rank.
        if plan is None and is_step_program(program):
            wall_time = self._run_inline(program, program_args)
        else:
            wall_time = self._run_threads(blocking_program(program), program_args)

        if self._abort_exc is not None:
            raise self._abort_exc
        if self.observer is not None:
            self.observer.on_run_end()

        finish_times = [s.finish_time for s in states]
        totals = [0] * NUM_CALLS
        per_rank_counts: List[Dict[str, int]] = []
        for s in states:
            counts: Dict[str, int] = {}
            ops = s.ops
            for i in range(NUM_CALLS):
                n = ops[i]
                if n:
                    counts[CALLS[i].value] = n
                    totals[i] += n
            per_rank_counts.append(counts)
        return RunResult(
            returns=[s.result for s in states],
            finish_times_us=finish_times,
            total_time_us=max(finish_times) if finish_times else 0.0,
            op_counts={CALLS[i].value: totals[i] for i in range(NUM_CALLS) if totals[i]},
            per_rank_op_counts=per_rank_counts,
            wall_time_s=wall_time,
        )

    # ------------------------------------------------------------------ #
    # Thread-backed execution (blocking programs, fault-plan runs)
    # ------------------------------------------------------------------ #

    def _run_threads(self, program: Callable[..., Any], program_args: Optional[Sequence[Any]]) -> float:
        """Run ``program`` on one OS thread per rank; returns the wall seconds."""
        nranks = self._nranks
        states = self._states
        threads = []
        for rank in range(nranks):
            arg = program_args[rank] if program_args is not None else None
            t = threading.Thread(
                target=self._rank_main,
                args=(rank, program, arg, program_args is not None),
                name=f"sim-rank-{rank}",
                daemon=True,
            )
            threads.append(t)
        run_done = threading.Event()
        watchdog = threading.Thread(
            target=self._watchdog_main, args=(run_done,), name="sim-watchdog", daemon=True
        )
        with _gc_paused():
            wall_start = time.perf_counter()
            try:
                watchdog.start()
                for t in threads:
                    t.start()
                states[0].baton.release()
                for t in threads:
                    t.join()
            finally:
                wall_time = time.perf_counter() - wall_start
                run_done.set()
        watchdog.join()
        return wall_time

    # ------------------------------------------------------------------ #
    # Inline execution (step programs)
    # ------------------------------------------------------------------ #
    #
    # The same scheduler — the poll sub-program, _wake, _park, the heap and
    # _no_runnable are shared with the thread-backed path, and _drive's op
    # branch is _op_body's body — with the hand-off removed: every rank is a
    # generator, and "resume the rank whose key is the minimum" is a send() on
    # this thread.  No baton, no watchdog, no _lock use of its own.
    #
    # Heap keys are live in an inline run: a rank has exactly one key while it
    # is _READY and waits its turn (pushed where it crossed the horizon, by
    # _wake or by _release_barrier) and none while it runs, is parked, waits at
    # the barrier or has finished.  So the key _drive pops *is* its pick and
    # heap[0] *is* the horizon, unvalidated.  Nobody inline breaks this: only
    # an abort (a deadlock, a program's own exception) strands keys, and it
    # leaves _drive at once.  Thread-backed runs do strand them (an abort or a
    # kill retires a rank whose key is queued): _run_tasks and _peek_key
    # validate.  tests/rma/test_step_programs.py -k live_keys checks every pop.

    def _run_inline(self, program: Callable[..., Any], program_args: Optional[Sequence[Any]]) -> float:
        """Step ``program``'s per-rank generators to completion; returns the wall seconds."""
        states = self._states
        perturb = self._perturb
        with _gc_paused():
            wall_start = time.perf_counter()
            try:
                for s in states:
                    ctx = _InlineContext(self, s)
                    if program_args is not None:
                        s.steps = program(ctx, program_args[s.rank])
                    else:
                        s.steps = program(ctx)
                    jitter = perturb[s.rank].perturb if perturb is not None else None
                    s.fixed = (s.rank, s.ops, s.rank * self._nranks, jitter)
                self._drive(states[0])
            except _Aborted:
                pass  # _abort_exc holds why
            finally:
                wall_time = time.perf_counter() - wall_start
                for s in states:
                    for steps in (s.steps, s.caller):
                        if steps is not None:
                            # Unwinds the frames of ranks a failed run left
                            # suspended; a finished generator ignores it.
                            with suppress(Exception):
                                steps.close()
                    s.steps = s.caller = s.pending = None
        return wall_time

    def _drive(self, s: _RankState) -> None:
        """The inline scheduling loop, entered with ``s`` as the rank to run.

        Every request of the run passes through the inner loop, whether the
        rank's active generator is its program or a poll sub-program
        (:meth:`_poll_steps`) standing in for the program's ``SPIN`` request:
        apply the effect of the request issued last, send the value, account
        and time the next request, then continue below the horizon or push
        the key and pop the minimum.  Keys are live (block comment above): the
        popped key is the pick and ``heap[0]`` the horizon, unvalidated.  An
        error raised on a request's behalf (bad target, overflowing word,
        ``max_ops``, a raising spin predicate) is thrown into the program at its
        ``yield``, where the blocking call would have raised it; an exception
        the program lets escape ends the run.
        """
        heap = self._heap
        states = self._states
        windows = self.windows
        views = [window.words for window in windows]
        words = self.window_words
        nranks = self._nranks
        observer = self.observer
        max_ops = self.max_ops if self.max_ops is not None else _INF
        cost_rows = self._cost
        occ_rows = self._occ
        port_free = self._port_free
        fabric = self.fabric
        tracer = self.tracer
        versions = self._versions
        watchers = self._watchers
        target_at = _TARGET_AT
        rma_kinds = _RMA_KINDS
        total = self._total_ops
        h_clock, h_rank = self._horizon
        # Both are None again whenever the inner loop is left.
        error: Optional[Exception] = None
        value = None
        try:
            while True:
                rank, ops, row, jitter = s.fixed
                steps = s.steps
                request = s.pending
                clock = s.clock
                while True:
                    try:
                        if error is not None:
                            exc, error = error, None
                            request = steps.throw(exc)
                        else:
                            # -- effect of the request issued last, and its value -- #
                            if request is not None:
                                kind = request[0]
                                if kind == GET:
                                    offset = request[2]  # Window.read on the view: its check, its error
                                    in_range = 0 <= offset < words
                                    value = views[request[1]][offset] if in_range else windows[request[1]].read(offset)
                                else:
                                    at = target_at[kind]
                                    target = request[at]
                                    offset = request[at + 1]
                                    window = windows[target]
                                    if kind == PUT:
                                        window.write(offset, int(request[1]))
                                    elif kind == ACCUMULATE:
                                        op = request[4] if len(request) > 4 else AtomicOp.SUM
                                        window.apply(offset, int(request[1]), op)
                                    else:
                                        if kind == FAO:
                                            value = window.fetch_and_op(offset, int(request[1]), request[4])
                                        else:  # CAS
                                            value = window.compare_and_swap(offset, int(request[2]), int(request[1]))
                                        if observer is not None:
                                            observer.on_rmw(rank, CALLS[kind])
                                    # _post_write, with the wake split out.
                                    cell = target * words + offset
                                    if cell in versions:
                                        versions[cell] += 1
                                        if watchers:
                                            waiters = watchers.pop(cell, None)
                                            if waiters:
                                                h_clock, h_rank = self._wake(
                                                    cell, waiters, clock, (h_clock, h_rank)
                                                )
                            request = steps.send(value)
                            value = None
                        # -- issue the next request -- #
                        try:
                            kind = request[0]
                            is_op = kind in rma_kinds
                        except (TypeError, IndexError, KeyError):
                            raise bad_request(rank, request) from None
                        if is_op:
                            # _op_body, statement for statement (its abort test
                            # aside: nothing can set the flag while this loop runs).
                            target = request[target_at[kind]]
                            if not 0 <= target < nranks:
                                raise ValueError(f"target rank {target} out of range 0..{nranks - 1}")
                            ops[kind] += 1
                            total += 1
                            if total > max_ops:
                                raise RuntimeError_(
                                    f"simulation exceeded max_ops={max_ops}; possible livelock"
                                )
                            idx = row + target
                            cost = cost_rows[kind][idx]
                            if jitter is not None:
                                cost = jitter(cost)
                            start = clock
                            occupancy = occ_rows[kind][idx]
                            if occupancy > 0.0:
                                free_at = port_free[target]
                                if free_at > start:
                                    start = free_at
                                port_free[target] = start + occupancy
                            if fabric is not None and kind != FLUSH:
                                src_node = self._node_of[rank]
                                dst_node = self._node_of[target]
                                if src_node != dst_node:
                                    arrival = fabric.traverse(self._link_free, src_node, dst_node, start)
                                    cost += arrival - start
                            if tracer is not None:
                                tracer.record(rank, CALLS[kind], target, start, cost)
                            clock = start + cost
                            s.clock = clock
                            if kind == FLUSH:
                                request = None  # no effect, no value
                        elif kind == COMPUTE:
                            if not 0 <= request[1] < _INF:
                                raise _bad_duration(request[1])
                            clock += float(request[1])
                            s.clock = clock
                            request = None
                        elif kind == SPIN or kind == SPIN_WHILE:
                            # The poll becomes the active generator; its first leg
                            # is issued now, under the current scheduling decision.
                            s.caller = steps
                            if kind == SPIN:
                                s.steps = steps = self._poll_steps(request[1], request[2], False)
                            else:
                                s.steps = steps = self._poll_steps([request[1:3]], request[3], True)
                            request = None
                            continue
                        elif kind == BARRIER:
                            waiting = self._barrier_waiting
                            waiting.append(rank)
                            if len(waiting) < nranks:
                                s.status = _BARRIER
                                s.pending = None
                                break
                            # The releasing rank continues; equal clocks, ties
                            # broken by rank.
                            clock = self._release_barrier(rank)
                            h_clock, h_rank = heap[0] if heap else _INF_KEY
                            request = None
                        elif kind == _PARK and s.caller is not None:
                            # A poll round found its predicate true and no
                            # write raced it: wait for one, off the heap.
                            self._park(s, request[1])
                            s.pending = None
                            break
                        else:
                            raise bad_request(rank, request)
                    except StopIteration as stop:
                        if s.caller is not None:
                            # The poll is over: what it returns is the value
                            # of the program's SPIN / SPIN_WHILE request.
                            steps, s.caller = s.caller, None
                            s.steps = steps
                            request = None
                            value = stop.value
                            continue
                        s.result = stop.value
                        s.status = _FINISHED
                        s.finish_time = clock
                        value = None
                        break
                    except Exception as exc:  # noqa: BLE001 - see the docstring
                        value = None
                        if s.caller is not None:
                            # Raised by or on behalf of a poll leg: it is the
                            # SPIN request's error, the program's to catch.
                            steps.close()
                            steps, s.caller = s.caller, None
                            s.steps = steps
                        elif steps.gi_frame is None:
                            raise  # the program's own failure: the run fails with it
                        error = exc
                        continue
                    if clock < h_clock or (clock == h_clock and rank < h_rank):
                        continue  # still the earliest runnable rank
                    s.pending = request
                    # Crossed the horizon: enqueue this rank and take the minimum
                    # (another rank's key, by definition of crossing) in one sift.
                    s = states[heappushpop(heap, (clock, rank))[1]]
                    break
                if s.status != _READY:
                    # Parked, at the barrier or finished, so nothing was popped
                    # yet.  An empty heap: clean drain, or every rank is blocked.
                    if not heap:
                        self._no_runnable(None)
                        return
                    s = states[heappop(heap)[1]]
                h_clock, h_rank = heap[0] if heap else _INF_KEY
        finally:
            self._total_ops = total

    # ------------------------------------------------------------------ #
    # Rank thread body
    # ------------------------------------------------------------------ #

    def _rank_main(self, rank: int, program: Callable[..., Any], arg: Any, has_arg: bool) -> None:
        state = self._states[rank]
        if self.fault_plan is None:
            ctx: SimProcessContext = SimProcessContext(self, state)
        else:
            ctx = _FaultedSimContext(self, state)
        try:
            self._wait_for_turn(state)
            while True:
                try:
                    state.result = program(ctx, arg) if has_arg else program(ctx)
                    break
                except _Killed:
                    restart_us = self._crash_rank(state)
                    if restart_us is None:
                        state.result = {
                            "__crashed__": True,
                            "rank": rank,
                            "t_us": state.clock,
                        }
                        break
                    self._await_restart(state, restart_us)
                    ctx._on_restarted()
                    # Re-run the program from the top: fresh handles, fresh
                    # local state; the rank's window keeps whatever survivors
                    # wrote to it while the rank was dead.
        except _Aborted:
            pass
        except BaseException as exc:  # noqa: BLE001 - surface any rank failure
            with self._lock:
                if self._abort_exc is None:
                    self._abort_exc = exc
                self._abort = True
                self._wake_all_locked()
        finally:
            self._finish_rank(state)

    def _finish_rank(self, state: _RankState) -> None:
        with self._lock:
            state.status = _FINISHED
            state.finish_time = state.clock
            if self._abort:
                return
        if self.fault_plan is not None:
            # A finish can change the crash-aware barrier's headcount (e.g.
            # the ranks parked at the final barrier are joined by a crash
            # instead of an arrival); re-check before driving the scheduler.
            self._release_barrier_if_complete()
        # This thread still owns the baton: drive remaining tasks until the
        # baton can be handed to another thread (or the run drains).
        self._run_tasks(None)

    # ------------------------------------------------------------------ #
    # Fault handling (every method below runs only under a non-null plan)
    # ------------------------------------------------------------------ #

    def _crash_rank(self, state: _RankState) -> Optional[float]:
        """Record ``state``'s crash; returns its restart time (None = final).

        Runs on the victim's own thread (which owns the baton) right after
        ``_Killed`` unwound the rank program.  One crash per rank per run:
        the kill time is retired so a restarted rank cannot be re-killed.
        """
        assert self._kill_at is not None
        self._kill_at[state.rank] = _INF
        observer = self.observer
        if observer is not None:
            on_crash = getattr(observer, "on_crash", None)
            if on_crash is not None:
                on_crash(state.rank, state.clock)
        fault = self.fault_plan.fault_for(state.rank)
        return fault.restart_us if fault is not None else None

    def _await_restart(self, state: _RankState, restart_us: float) -> None:
        """Park the crashed rank until virtual time reaches ``restart_us``.

        The rank re-enters the heap keyed at its restart time, so the
        scheduler revives it exactly when the rest of the simulation reaches
        that virtual moment — or immediately, if every survivor is blocked
        waiting for it.
        """
        if state.clock < restart_us:
            state.clock = restart_us
        state.status = _READY
        heappush(self._heap, (state.clock, state.rank))
        self._run_tasks(state)
        observer = self.observer
        if observer is not None:
            on_restart = getattr(observer, "on_restart", None)
            if on_restart is not None:
                on_restart(state.rank, state.clock)

    def _cleanup_blocked(self, state: _RankState) -> None:
        """Detach a blocked victim from every wait structure before killing it."""
        for cell in state.watching:
            waiters = self._watchers.get(cell)
            if waiters is not None:
                waiters.discard(state.rank)
        state.watching.clear()
        state.spin = None
        state.spin_values = None
        if state.rank in self._barrier_waiting:
            self._barrier_waiting.remove(state.rank)

    def _reap_blocked(self, owner: Optional[_RankState]) -> bool:
        """Kill the next blocked rank whose crash is scheduled, if any.

        Called when the scheduler ran out of runnable ranks: a parked or
        barrier-blocked victim will never issue the context call that would
        normally deliver its kill, so the scheduler delivers it here —
        smallest ``(kill_us, rank)`` first, clock bumped to the kill time so
        the crash happens at a deterministic virtual moment.  Returns True
        when a victim was killed (the caller's scheduling pass is over: the
        victim's thread now owns the baton, or ``owner`` itself is dying).
        """
        kill_at = self._kill_at
        assert kill_at is not None
        victim: Optional[_RankState] = None
        for s in self._states:
            if s.status in (_PARKED, _BARRIER) and kill_at[s.rank] < _INF:
                if victim is None or (kill_at[s.rank], s.rank) < (kill_at[victim.rank], victim.rank):
                    victim = s
        if victim is None:
            return False
        if victim.clock < kill_at[victim.rank]:
            victim.clock = kill_at[victim.rank]
        self._cleanup_blocked(victim)
        victim.status = _READY
        if victim is owner:
            raise _Killed()
        # Wake the victim's thread with the kill flag set; this thread stops
        # driving (the baton invariant: one active thread at a time).
        self._reaped.add(victim.rank)
        victim.baton.release()
        if owner is not None:
            self._wait_for_turn(owner)
        return True

    def _barrier_need(self) -> int:
        """Crash-aware barrier headcount: every rank not (yet) finished."""
        return sum(1 for s in self._states if s.status != _FINISHED)

    def _release_barrier_if_complete(self) -> None:
        """Release the barrier if crashes/finishes completed its headcount."""
        waiting = self._barrier_waiting
        if not waiting or len(waiting) < self._barrier_need():
            return
        self._release_barrier(None)
        self._horizon = self._peek_key()

    # ------------------------------------------------------------------ #
    # Scheduler core
    # ------------------------------------------------------------------ #
    #
    # Exactly one thread at a time executes scheduler/program code (it "owns
    # the baton"); every other thread is blocked in _wait_for_turn.  All
    # scheduler structures (heap, horizon, states, windows, ports, watchers)
    # are therefore baton-protected and accessed without self._lock, which
    # only serializes abort/stall transitions initiated by waiting threads.

    def _run_tasks(self, owner: Optional[_RankState]) -> None:
        """Drive scheduling until ``owner`` is picked again (or handed off).

        ``owner`` is the rank whose thread is executing this loop, with its
        heap key already pushed if it is runnable; ``None`` when called from a
        finishing rank that only needs to pass the baton on.  Spin tasks are
        executed inline on this thread; picking another threaded rank releases
        that rank's baton and blocks this one.
        """
        heap = self._heap
        states = self._states
        while True:
            if self._abort:
                if owner is None:
                    return
                raise _Aborted()
            s = None
            while heap:
                clock, rank = heap[0]
                cand = states[rank]
                if cand.status == _READY and cand.clock == clock:
                    s = cand
                    break
                heappop(heap)  # stale entry (aborted/retired rank)
            if s is None:
                self._no_runnable(owner)
                return
            heappop(heap)
            # The next-smallest valid key becomes the horizon of whichever
            # task is dispatched below.
            self._horizon = self._peek_key()
            if s.spin is not None:
                try:
                    done = self._step_spin(s)
                except _Killed:
                    # The spin's own kill check fired (faulted runs only).
                    # The victim dies on its *own* thread: either it is this
                    # thread (owner), or its parked thread is woken with the
                    # reap flag set and this thread stops driving.
                    if s is owner:
                        raise
                    self._reaped.add(s.rank)
                    s.status = _READY
                    s.baton.release()
                    if owner is not None:
                        self._wait_for_turn(owner)
                    return
                if done:
                    # Spin finished: the rank becomes an ordinary threaded
                    # task again at its current key.
                    heappush(heap, (s.clock, s.rank))
                continue
            if s is owner:
                return
            s.baton.release()
            if owner is not None:
                self._wait_for_turn(owner)
            return

    def _peek_key(self) -> Tuple[float, int]:
        """Smallest valid heap key (discarding stale entries), or the sentinel."""
        heap = self._heap
        states = self._states
        while heap:
            clock, rank = heap[0]
            s = states[rank]
            if s.status == _READY and s.clock == clock:
                return (clock, rank)
            heappop(heap)
        return _INF_KEY

    def _schedule(self, state: _RankState) -> None:
        """Enter the scheduler after ``state`` crossed the horizon."""
        heappush(self._heap, (state.clock, state.rank))
        self._run_tasks(state)

    def _no_runnable(self, owner: Optional[_RankState]) -> None:
        """Handle an empty scheduler: reap a crash victim, clean drain, or deadlock."""
        if self.fault_plan is not None and not self._abort and self._reap_blocked(owner):
            return
        with self._lock:
            if self._abort:
                if owner is None:
                    return
                raise _Aborted()
            unfinished = [s.rank for s in self._states if s.status != _FINISHED]
            if not unfinished:
                return  # every rank finished; the run drains cleanly
            self._abort = True
            if self._abort_exc is None:
                self._abort_exc = SimDeadlockError(
                    f"ranks {unfinished} are blocked forever with no runnable rank "
                    f"left: {self._blocked_report()}"
                )
            self._wake_all_locked()
        if owner is not None:
            raise _Aborted()

    def _wake_all_locked(self) -> None:
        for s in self._states:
            if s.status != _FINISHED:
                s.status = _READY
                try:
                    s.baton.release()
                except RuntimeError:
                    pass  # thread was not waiting; its next acquire will not block

    def _blocked_report(self) -> str:
        """Human-readable description of every blocked rank (for deadlock errors)."""
        lines = []
        for s in self._states:
            if s.status == _PARKED:
                cells = ", ".join("(rank %d, offset %d)" % divmod(c, self.window_words) for c in sorted(s.watching))
                lines.append(f"rank {s.rank}: parked on {cells} at t={s.clock:.2f}us")
            elif s.status == _BARRIER:
                lines.append(f"rank {s.rank}: waiting at barrier at t={s.clock:.2f}us")
        return "; ".join(lines) if lines else "(no blocked ranks)"

    def _wait_for_turn(self, state: _RankState) -> None:
        # Untimed acquire: cheaper than a timed wait, and safe because every
        # abort path releases all batons (_wake_all_locked) and wall-clock
        # stalls are detected by the watchdog thread rather than by polling
        # from all P rank threads.
        state.baton.acquire()
        if self._abort:
            raise _Aborted()
        if self.fault_plan is not None and state.rank in self._reaped:
            self._reaped.discard(state.rank)
            raise _Killed()

    def _watchdog_main(self, run_done: threading.Event) -> None:
        """Abort the run if no simulation progress happens for stall_timeout_s.

        Progress is observed through ``_total_ops`` plus the per-rank finish
        count; the watchdog wakes a few times per stall window, so a healthy
        run pays essentially nothing for it.
        """
        interval = min(max(self.stall_timeout_s / 4.0, 0.05), 5.0)
        last = (-1, -1)
        stalled_for = 0.0
        while not run_done.wait(interval):
            snapshot = (
                self._total_ops,
                sum(1 for s in self._states if s.status == _FINISHED),
            )
            if snapshot != last:
                last = snapshot
                stalled_for = 0.0
                continue
            stalled_for += interval
            if stalled_for >= self.stall_timeout_s:
                with self._lock:
                    if self._abort:
                        return
                    self._abort = True
                    if self._abort_exc is None:
                        self._abort_exc = RuntimeError_(
                            f"scheduler stall: no simulation progress within "
                            f"{self.stall_timeout_s}s of wall-clock time"
                        )
                    self._wake_all_locked()
                return

    # ------------------------------------------------------------------ #
    # RMA operation plumbing
    # ------------------------------------------------------------------ #

    def _op_body(self, state: _RankState, call: RMACall, ci: int, target: int) -> float:
        """Account, charge and time one RMA call; returns the post-op clock.

        This is the shared body of program-issued and spin-task-issued
        operations of a thread-backed run (``ci`` is the call's dense
        :data:`~repro.rma.ops.CALL_INDEX`, passed alongside to keep the enum
        off the hot path).  The caller is responsible for the scheduling
        decision (horizon check) that follows the advance.  ``_drive`` has the
        same statements over locals; ``tests/rma/test_step_programs.py`` holds
        the two equal (inline == rank threads == baseline, registry-wide).
        """
        if self._abort:
            raise _Aborted()
        nranks = self._nranks
        if not 0 <= target < nranks:
            raise ValueError(f"target rank {target} out of range 0..{nranks - 1}")
        state.ops[ci] += 1
        total = self._total_ops + 1
        self._total_ops = total
        if self.max_ops is not None and total > self.max_ops:
            raise RuntimeError_(
                f"simulation exceeded max_ops={self.max_ops}; possible livelock"
            )
        rank = state.rank
        idx = rank * nranks + target
        cost = self._cost[ci][idx]
        perturb = self._perturb
        if perturb is not None:
            cost = perturb[rank].perturb(cost)
        start = state.clock
        # Remote accesses serialize at the target: if its port is busy, the
        # operation starts only once the port frees up.  This queueing is what
        # turns a single hot lock word into a scalability bottleneck.
        occupancy = self._occ[ci][idx]
        if occupancy > 0.0:
            port_free = self._port_free[target]
            if port_free > start:
                start = port_free
            self._port_free[target] = start + occupancy
        # Optional link-level contention: inter-node data/atomic traffic also
        # serializes on every Dragonfly link along its minimal route.
        if self.fabric is not None and call is not _FLUSH:
            node_of = self._node_of
            src_node = node_of[rank]
            dst_node = node_of[target]
            if src_node != dst_node:
                arrival = self.fabric.traverse(self._link_free, src_node, dst_node, start)
                cost += arrival - start
        if self.tracer is not None:
            self.tracer.record(rank, call, target, start, cost)
        clock = start + cost
        state.clock = clock
        return clock

    def _issue(self, state: _RankState, call: RMACall, ci: int, target: int) -> None:
        clock = self._op_body(state, call, ci, target)
        h = self._horizon
        if clock < h[0] or (clock == h[0] and state.rank < h[1]):
            return  # fast path: still the earliest runnable rank
        heappush(self._heap, (clock, state.rank))
        self._run_tasks(state)

    def _advance(self, state: _RankState, dt: float) -> None:
        if self._abort:
            raise _Aborted()
        clock = state.clock + dt
        state.clock = clock
        h = self._horizon
        if clock < h[0] or (clock == h[0] and state.rank < h[1]):
            return
        self._schedule(state)

    def _post_write(self, state: _RankState, target: int, offset: int) -> None:
        """Version-bump a just-written cell and wake any rank parked on it.

        Callers mutate the window directly (between ``_issue`` and this call)
        so the hot path carries no per-operation effect closures.
        """
        cell = target * self.window_words + offset
        if cell in self._versions:  # else no poll ever looked at it, so nobody waits on it
            self._versions[cell] += 1
            waiters = self._watchers.pop(cell, None)
            if waiters:
                self._horizon = self._wake(cell, waiters, state.clock, self._horizon)

    def _wake(
        self, cell: int, waiters: Set[int], writer_clock: float, horizon: Tuple[float, int]
    ) -> Tuple[float, int]:
        """Make the ranks parked on the just-written ``cell`` runnable; returns the new horizon."""
        states = self._states
        heap = self._heap
        watchers = self._watchers
        for rank in waiters:
            ws = states[rank]
            if ws.status != _PARKED:
                continue
            for other in ws.watching:
                if other != cell and other in watchers:
                    watchers[other].discard(rank)
            ws.watching.clear()
            ws.status = _READY
            # The sleeper was logically polling all along; it observes
            # the write no earlier than the writer's current time.
            if writer_clock > ws.clock:
                ws.clock = writer_clock
            key = (ws.clock, rank)
            heappush(heap, key)
            if key < horizon:
                horizon = key
        return horizon

    # ------------------------------------------------------------------ #
    # Spin-wait tasks (threadless waiters)
    # ------------------------------------------------------------------ #

    def _step_spin(self, state: _RankState, own_thread: bool = False) -> bool:
        """Advance ``state``'s spin generator one leg; True when it completed.

        ``own_thread`` marks the initial step taken by the spinning rank's own
        thread (from ``spin_on_cells``): there an exception simply propagates
        into that rank's program, exactly like the seed scheduler.  Later
        steps run on whichever thread drives the scheduler, so a raising
        predicate/op must not unwind through a *different* rank's program
        frames — it is recorded as the run's failure and the driving thread
        is unwound with the internal ``_Aborted`` signal instead.
        """
        try:
            state.spin.send(None)
        except StopIteration:
            state.spin = None
            return True
        except (_Aborted, _Killed):
            # _Killed: a fault-plan kill fired inside the poll loop; the caller
            # routes the death to the victim's own thread (see _run_tasks).
            state.spin = None
            raise
        except BaseException as exc:  # noqa: BLE001 - reroute foreign failures
            state.spin = None
            if own_thread:
                raise
            with self._lock:
                if self._abort_exc is None:
                    self._abort_exc = exc
                self._abort = True
                self._wake_all_locked()
            raise _Aborted() from None
        return False

    def _poll_steps(
        self, cells: Sequence[Cell], predicate: Callable[..., bool], single: bool,
        checkpoint: Optional[Callable[[], None]] = None,
    ):
        """The poll protocol, ``do {Get; Flush} while (predicate)``, as a step sub-program.

        Yields its legs as ordinary ``GET`` / ``FLUSH`` requests, built once,
        and ``(_PARK, cells)`` when the predicate holds and no polled cell
        was written during the round (such a write could no longer wake the
        rank, so the round is repeated instead; versions only grow, so equal
        sums over the cells mean no write).  Returns the values that made the
        predicate false; ``single`` polls one cell and deals in its bare value
        (``SPIN_WHILE``).  ``checkpoint`` runs before every round.
        """
        versions = self._versions
        words = self.window_words
        gets, watch = [], []
        for target, offset in cells:
            target, offset = int(target), int(offset)
            gets.append((GET, target, offset))
            cell = target * words + offset
            watch.append(cell)
            # Writes to it are counted from here on.  (A pair naming no cell may alias
            # one; its Get leg — target checked at issue, offset at effect — ends the poll.)
            versions.setdefault(cell, 0)
        flushes = [(FLUSH, gets[0][1])] if single else [(FLUSH, t) for t in sorted({leg[1] for leg in gets})]
        park = (_PARK, watch)
        while True:
            if checkpoint is not None:
                checkpoint()
            written = 0
            for cell in watch:
                written -= versions[cell]
            values: List[int] = []
            for request in gets:
                values.append((yield request))
            for request in flushes:
                yield request
            observed = values[0] if single else values
            if not predicate(observed):
                return observed
            for cell in watch:
                written += versions[cell]
            if not written:
                yield park

    def _park(self, state: _RankState, cells: List[int]) -> None:
        """Take ``state`` off the heap until one of ``cells`` is written."""
        watchers = self._watchers
        rank = state.rank
        for c in cells:
            watchers.setdefault(c, set()).add(rank)
        state.watching.update(cells)
        state.status = _PARKED

    def _spin_task(self, state: _RankState, poll: Any):
        """Issue the legs of ``poll`` (see :meth:`_poll_steps`) without the rank's thread.

        Yields whenever the rank must wait (its key crossed the horizon, or it
        parked); the scheduler resumes it when its key is the minimum again.
        Leaves what the poll returns in ``state.spin_values``.
        """
        heap = self._heap
        rank = state.rank
        value = None
        while True:
            try:
                request = poll.send(value)
            except StopIteration as stop:
                state.spin_values = stop.value
                return
            kind = request[0]
            if kind == _PARK:
                self._park(state, request[1])
                wait = True
            else:
                clock = self._op_body(state, CALLS[kind], kind, request[1])
                h = self._horizon
                wait = not (clock < h[0] or (clock == h[0] and rank < h[1]))
                if wait:
                    heappush(heap, (clock, rank))
            if wait:
                yield
                if self._abort:
                    raise _Aborted()
            value = self.windows[request[1]].read(request[2]) if kind == GET else None

    # ------------------------------------------------------------------ #
    # Barrier
    # ------------------------------------------------------------------ #

    def _barrier(self, state: _RankState) -> None:
        if self._abort:
            raise _Aborted()
        waiting = self._barrier_waiting
        waiting.append(state.rank)
        # Faulted runs count only unfinished ranks: crashed ranks never reach
        # the barrier, so the rendezvous must not wait for them.
        need = self._nranks if self.fault_plan is None else self._barrier_need()
        if len(waiting) < need:
            state.status = _BARRIER
            self._run_tasks(state)
            return
        # The releasing rank continues; equal clocks, ties broken by rank.
        release_time = self._release_barrier(state.rank)
        h = self._peek_key()
        self._horizon = h
        if release_time < h[0] or (release_time == h[0] and state.rank < h[1]):
            return
        self._schedule(state)

    def _release_barrier(self, me: Optional[int]) -> float:
        """Release the barrier's waiters, all but ``me`` into the heap; returns the release time."""
        states = self._states
        release_time = max(states[r].clock for r in self._barrier_waiting) + self.barrier_cost_us
        for r in self._barrier_waiting:
            s = states[r]
            s.clock = release_time
            s.status = _READY
            if r != me:
                heappush(self._heap, (release_time, r))
        self._barrier_waiting = []
        return release_time


# --------------------------------------------------------------------------- #
# Registry entry (see repro.api): the default scheduler.
# --------------------------------------------------------------------------- #

@register_runtime(
    "horizon",
    help="min-heap time-horizon scheduler, the default: steps generator (step) programs inline with no rank threads, runs blocking programs on one thread per rank; bit-identical to 'baseline'",
    fault_injection=True,
)
def _make_horizon_runtime(
    machine, *, window_words=64, seed=0, latency=None, fabric=None, tracer=None,
    perturbation=None, observer=None, fault_plan=None,
):
    return SimRuntime(
        machine,
        window_words=window_words,
        latency=latency,
        fabric=fabric,
        tracer=tracer,
        seed=seed,
        perturbation=perturbation,
        observer=observer,
        fault_plan=fault_plan,
    )
