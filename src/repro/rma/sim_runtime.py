"""Deterministic discrete-event RMA runtime with a time-horizon scheduler.

This backend is the repository's substitute for the paper's Cray XC30 /
foMPI testbed.  Every rank is a logical process with its own virtual clock
and RMA window; RMA calls charge latencies from a
:class:`~repro.rma.latency.LatencyModel` that depends on the topological
distance between origin and target.  Execution follows the deterministic
scheduling contract documented in :mod:`repro.rma.runtime_base`: after every
clock advance, the runnable rank with the smallest ``(clock, rank)`` key
continues, so the same program with the same seed produces bit-identical
results on every run — and bit-identical results to the reference
interpreter (``tests/reference.py``), as pinned down by the golden tests.

Scheduler architecture: one loop
--------------------------------
Every rank of every run is a generator that yields its requests (a *step
program*, see "Step programs" in :mod:`repro.rma.runtime_base`), and one
loop, :meth:`SimRuntime._drive`, steps them all on the thread that called
``run()``: "resume the rank whose key is the minimum" is a ``send()``.  Every
request of a run passes through that loop, which charges, accounts and times
it and applies its effect when the rank's turn comes back.

* **Horizon fast path.**  The loop keeps the smallest ``(clock, rank)`` key
  over every *other* runnable rank as the horizon; while the running rank's
  key stays below it the rank keeps running, with no heap operation.  Other
  ranks wait in a min-heap of live keys (one per waiting rank), so crossing
  the horizon is one ``heappushpop`` written into the loop, after which the
  popped rank runs on in the same loop.
* **Polls are sub-programs.**  The protocols' ``do {Get; Flush} while (...)``
  loops are :meth:`SimRuntime._poll_steps` (``SPIN``: a ``Get`` leg per cell
  and a ``Flush`` leg per target) and :meth:`SimRuntime._poll_cell_steps`
  (``SPIN_WHILE``: one cell, one of each): the predicate, then a re-read if
  a write raced the round or a park that takes the rank off the heap until a
  polled cell is written.
* **Blocking programs through a bridge.**  A program that is not a generator
  function runs on a thread per rank (``sim-rank-<r>``) whose context hands
  each call, as a request, to a generator the loop steps (:class:`_Bridge`):
  one handoff each way per call.  Closing that generator unwinds the thread,
  so an abort, a deadlock or a kill leaves no thread behind.
* **Fault plans as a wrapper.**  Under a :class:`~repro.fault.FaultPlan`
  each rank's generator is wrapped by :meth:`SimRuntime._faulted_steps`,
  which checks the kill time and the plan's ceiling before it forwards a
  request (and before each poll round).  A kill is ``close()`` of the rank's
  generator; a restart is a fresh one.

Op counts are per-rank integer arrays indexed by call (folded into dicts at
``run()`` end) and costs come from the precomputed
:class:`~repro.rma.latency.CostTable`.  If every unfinished rank is parked or
waiting at a barrier the runtime raises
:class:`~repro.rma.runtime_base.SimDeadlockError`, which doubles as a
protocol-level deadlock detector in the test-suite.
"""

from __future__ import annotations

import gc
import threading
import time
from contextlib import suppress
from functools import partial
from heapq import heappop, heappush, heappushpop
from typing import Any, Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro.api.registry import register_runtime
from repro.rma.fabric import FabricContentionModel
from repro.rma.latency import LatencyModel, cost_table
from repro.rma.perturbation import PerturbationModel, perturbation_schedule
from repro.rma.ops import CALLS, NUM_CALLS, AtomicOp
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
    RunObserver,
    RunResult,
    RuntimeError_,
    SimDeadlockError,
    Steps,
    WindowInit,
    allocate_windows,
    bad_request,
    is_step_program,
    observer_hook,
)
from repro.topology.machine import Machine
from repro.util.rng import rank_rng

__all__ = ["SimRuntime", "SimProcessContext"]

# Rank states (ints: compared on the hot path).
_READY = 0
_PARKED = 1
_BARRIER = 2
_FINISHED = 3

_INF = float("inf")
#: Horizon sentinel when no other rank is runnable: every finite clock wins.
_INF_KEY: Tuple[float, int] = (_INF, -1)

#: Where each RMA request carries its target rank (its offset follows), by request kind.
_TARGET_AT = tuple(3 if kind == CAS else 1 if kind in (GET, FLUSH) else 2 for kind in range(NUM_CALLS))
#: The request kinds that are RMA calls (kind == CALL_INDEX): accounted, charged and timed.
_RMA_KINDS = frozenset(range(NUM_CALLS))

#: ``(_PARK, cells)``: only a poll sub-program may yield it (program kinds are >= 0).
_PARK = -1


class _Killed(Exception):
    """A fault plan's kill: it reaches the victim's fault wrapper (see
    ``_faulted_steps``), never a program's frames — the wrapper closes those."""


class _Restarted(Exception):
    """Raised by a killed rank's fault wrapper when the plan restarts it.

    ``steps`` is the rank's next incarnation; ``_drive`` schedules it from the
    restart time the wrapper set on the rank's clock.
    """

    def __init__(self, steps: Steps):
        super().__init__()
        self.steps = steps


class _Unwound(BaseException):
    """Unwinds a bridged rank's thread when its generator is closed (see :class:`_Bridge`)."""


def _killed_steps() -> Steps:
    """What a reaped rank resumes: its kill, raised at the request it was blocked in."""
    raise _Killed()
    yield  # pragma: no cover - makes this function a generator


class _RankState:
    """Scheduler bookkeeping for one rank."""

    __slots__ = (
        "rank", "clock", "status", "watching", "result", "finish_time", "ops",
        "steps", "caller", "pending", "fixed", "checkpoint",
    )

    def __init__(self, rank: int):
        self.rank = rank
        self.clock = 0.0
        self.status = _READY
        #: The cells a parked rank waits on, as ``target * window_words + offset``.
        self.watching: Set[int] = set()
        self.result: Any = None
        self.finish_time = 0.0
        #: Per-call op counters indexed by repro.rma.ops.CALL_INDEX.
        self.ops: List[int] = [0] * NUM_CALLS
        #: The active generator; the program's while a poll is the active one
        #: (else None); the request whose effect/value is to come.
        self.steps: Any = None
        self.caller: Any = None
        self.pending: Optional[tuple] = None
        #: ``(rank, ops, rank * nranks, slowdown, next factor or None)``, unpacked per turn.
        self.fixed: Optional[tuple] = None
        #: Run before every poll round under a fault plan (``_faulted_steps``), else None.
        self.checkpoint: Optional[Callable[[], None]] = None


class SimProcessContext(ProcessContext):
    """Per-rank handle bound to a :class:`SimRuntime` run.

    A step program uses the non-blocking members — ``now()``, ``rank``,
    ``rng``, ``machine``, ``observer`` and, under a fault plan, ``fault`` and
    ``incarnation`` — and yields its requests; the blocking calls refuse.  A
    blocking program's context is bridged (:class:`_Bridge`): each blocking
    call is the request of the same name, handed to the scheduling loop.
    """

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
        self._rng: Any = None
        self.observer = runtime.observer

    @property
    def rng(self) -> Any:  # type: ignore[override]
        """``rank_rng(seed, rank)``, built on first use: most programs (every
        traffic loop) never draw, and a Philox generator is not free.  A
        restarted incarnation keeps drawing from the same stream."""
        rng = self._rng
        if rng is None:
            rng = self._rng = rank_rng(self._rt.seed, self.rank)
        return rng

    def now(self) -> float:
        return self._state.clock

    def _call(self, request: tuple) -> Any:
        """Issue ``request`` and wait for its value (a bridge replaces this per context)."""
        raise RuntimeError_(
            f"rank {self.rank} made a blocking context call inside a step program. "
            f"The run is stepped inline and has no rank thread to park: yield the "
            f"request instead (`yield (PUT, value, target, offset)` for "
            f"`ctx.put(value, target, offset)`, `yield from lock.acquire_steps()` "
            f"for `lock.acquire()`), or wrap the program in blocking_program() to "
            f"run it on a rank thread"
        )

    # -- Listing 1 and the helpers, as requests ------------------------------ #

    def put(self, src_data: int, target: int, offset: int) -> None:
        self._call((PUT, src_data, target, offset))

    def get(self, target: int, offset: int) -> int:
        return self._call((GET, target, offset))

    def accumulate(self, operand: int, target: int, offset: int, op: AtomicOp = AtomicOp.SUM) -> None:
        self._call((ACCUMULATE, operand, target, offset, op))

    def fao(self, operand: int, target: int, offset: int, op: AtomicOp) -> int:
        return self._call((FAO, operand, target, offset, op))

    def cas(self, src_data: int, cmp_data: int, target: int, offset: int) -> int:
        return self._call((CAS, src_data, cmp_data, target, offset))

    def flush(self, target: int) -> None:
        self._call((FLUSH, target))

    def spin_on_cells(self, cells: Sequence[Cell], predicate: Callable[[Sequence[int]], bool]) -> List[int]:
        return self._call((SPIN, cells, predicate))

    def compute(self, duration_us: float) -> None:
        self._call((COMPUTE, duration_us))

    def barrier(self) -> None:
        self._call((BARRIER,))


class _Bridge:
    """A blocking rank program on a thread of its own, stepped by ``_drive``.

    The context's blocking calls hand their request (:meth:`call`, on the
    rank's thread) to :meth:`steps`, a generator ``_drive`` steps like any
    step program, and wait for the value or the error: one handoff each way
    per call, and only one of the two threads runs at a time.  Closing the
    generator unwinds the thread — every call then raises :class:`_Unwound` —
    and joins it, so an abort, a deadlock or a kill leaves no thread behind.
    """

    def __init__(self, program: Callable[..., Any], ctx: SimProcessContext, args: tuple):
        self._program = program
        self._ctx = ctx
        self._args = args
        # Binary semaphores, created locked: each side waits by acquiring its own.
        self._to_rank = threading.Lock()
        self._to_rank.acquire()
        self._to_driver = threading.Lock()
        self._to_driver.acquire()
        self._request: Optional[tuple] = None
        self._value: Any = None
        self._error: Optional[Exception] = None
        self._closed = False
        #: ``(True, result)`` or ``(False, exception)`` once the program has ended.
        self._outcome: Optional[tuple] = None
        ctx._call = self.call  # type: ignore[method-assign]

    def call(self, request: tuple) -> Any:
        """The rank thread's side: hand ``request`` over, wait for its value."""
        if self._closed:
            raise _Unwound()
        self._request = request
        self._to_driver.release()
        self._to_rank.acquire()
        if self._closed:
            raise _Unwound()
        error = self._error
        if error is not None:
            self._error = None
            raise error
        return self._value

    def _main(self) -> None:
        self._to_rank.acquire()
        try:
            self._outcome = (True, self._program(self._ctx, *self._args))
        except _Unwound:
            pass
        except BaseException as exc:  # noqa: BLE001 - the run fails with it
            self._outcome = (False, exc)
        finally:
            self._to_driver.release()

    def steps(self) -> Steps:
        """The driving thread's side: the program's requests, as a step program."""
        thread = threading.Thread(target=self._main, name=f"sim-rank-{self._ctx.rank}", daemon=True)
        thread.start()
        try:
            while True:
                self._to_rank.release()
                self._to_driver.acquire()
                if self._outcome is not None:
                    break
                try:
                    self._value = yield self._request
                except Exception as exc:  # noqa: BLE001 - raised at the call
                    self._error = exc
        finally:
            if self._outcome is None:  # closed while the rank waits in a call
                self._closed = True
                self._to_rank.release()
                self._to_driver.acquire()
            thread.join()
        ok, outcome = self._outcome
        if not ok:
            raise outcome
        return outcome


def _bridged(program: Callable[..., Any], ctx: SimProcessContext, *args: Any) -> Steps:
    return _Bridge(program, ctx, args).steps()


class SimRuntime(RMARuntime):
    """Discrete-event simulation of ``P`` ranks communicating through RMA windows."""

    def __init__(
        self,
        machine: Machine,
        *,
        window_words: int = 64,
        latency: Optional[LatencyModel] = None,
        fabric: Optional[FabricContentionModel] = None,
        seed: int = 0,
        barrier_cost_us: float = 2.0,
        max_ops: Optional[int] = None,
        perturbation: Optional[PerturbationModel] = None,
        observer: Optional[RunObserver] = None,
        fault_plan: Optional[Any] = None,
    ):
        self.machine = machine
        self.window_words = int(window_words)
        self.latency = latency if latency is not None else LatencyModel.cray_xc30()
        self.fabric = fabric
        if self.fabric is not None:
            self.fabric.validate_machine(machine)
        #: Optional seeded schedule perturbation (see repro.rma.perturbation);
        #: None (or an all-zero model) leaves the cost path byte-identical to
        #: the golden-fingerprint behaviour.
        self.perturbation = perturbation
        #: Optional run observer (see repro.rma.runtime_base.RunObserver);
        #: reset via on_run_start at the top of every run().
        self.observer = observer
        #: Optional seeded crash schedule (see repro.fault.FaultPlan).  A null
        #: plan is normalized to None: the run is an unfaulted one.
        self.fault_plan = fault_plan if fault_plan is not None and not fault_plan.is_null else None
        self.seed = int(seed)
        self.barrier_cost_us = float(barrier_cost_us)
        self.max_ops = max_ops
        if self.window_words < 1:
            raise ValueError("window_words must be >= 1")

        # Re-entry guard: run() installs all per-run state (see _execute) and
        # would corrupt an in-flight run if invoked concurrently.
        self._run_guard = threading.Lock()
        self._run_active = False

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
        """Install the per-run state and step every rank's generator through
        :meth:`_drive`: a step program's as it is, a blocking program's
        bridged (:class:`_Bridge`), either wrapped by :meth:`_faulted_steps`
        under a fault plan."""
        # Build the fresh per-run state in locals first so a failure while
        # constructing it (e.g. a raising window_init) cannot leave the
        # instance with a half-reset mixture of old and new state.
        windows = allocate_windows(nranks, self.window_words, window_init)
        table = cost_table(self.latency, self.machine)
        # Slowdowns and factor streams are shared by every run of the model;
        # each run iterates the streams from their start, so it replays the
        # same perturbed schedule.
        schedule = perturbation_schedule(self.perturbation, nranks)
        states = [_RankState(r) for r in range(nranks)]

        self.windows = windows
        self._states = states
        self._nranks = nranks
        self._cost = table.cost
        self._occ = table.occupancy
        self._node_of = table.node_of
        if self.observer is not None:
            self.observer.on_run_start(nranks)
        self._port_free = [0.0] * nranks
        self._link_free = self.fabric.new_state() if self.fabric is not None else {}
        # A cell is the int ``target * window_words + offset``: the ranks parked on
        # it and, from when a poll first looks at it, how many writes it has seen.
        self._watchers: Dict[int, Set[int]] = {}
        self._versions: Dict[int, int] = {}
        self._barrier_waiting: List[int] = []
        # How many ranks a barrier waits for: all of them, or under a fault
        # plan every rank that has not finished (crashed ranks never arrive).
        self._barrier_size = nranks
        # Fault state: per-rank kill times (inf = never, or already killed)
        # and the plan's virtual-time ceiling; None without a plan.
        self._kill_at: Optional[List[float]] = None
        plan = self.fault_plan
        if plan is not None:
            plan.validate_for(nranks)
            self._kill_at = [_INF] * nranks
            for fault in plan.faults:
                self._kill_at[fault.rank] = fault.kill_us
            self._ceiling = plan.horizon_us if plan.horizon_us is not None else _INF
        # All clocks are zero; ties break by rank, so rank 0 starts and the
        # rest wait in the heap (already heap-ordered by construction).
        self._heap = [(0.0, r) for r in range(1, nranks)]

        stepped = is_step_program(program)
        # A run allocates heavily but creates no reference cycles on the hot
        # path; collection stalls would only interrupt the loop.
        gc_was_enabled = gc.isenabled()
        gc.disable()
        wall_start = time.perf_counter()
        try:
            for s in states:
                ctx = SimProcessContext(self, s)
                args = () if program_args is None else (program_args[s.rank],)
                start = partial(program if stepped else partial(_bridged, program), ctx, *args)
                if plan is None:
                    s.steps = start()
                else:
                    ctx.fault = plan
                    s.steps = self._faulted_steps(s, ctx, start)
                perturb = (1.0, None) if schedule is None else (schedule.slowdown[s.rank], schedule.factors(s.rank))
                s.fixed = (s.rank, s.ops, s.rank * nranks, *perturb)
            self._drive(states[0])
        finally:
            wall_time = time.perf_counter() - wall_start
            for s in states:
                for steps in (s.steps, s.caller):
                    if steps is not None:
                        # Unwinds the frames (and a bridged rank's thread) of
                        # ranks a failed run left suspended; a finished
                        # generator ignores it.
                        with suppress(Exception):
                            steps.close()
                s.steps = s.caller = s.pending = s.checkpoint = None
            if gc_was_enabled:
                gc.enable()
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
    # The scheduling loop
    # ------------------------------------------------------------------ #
    #
    # Heap keys are live: a rank has exactly one key while it is _READY and
    # waits its turn (pushed where it crossed the horizon, by _wake, by
    # _release_barrier or by _reap_blocked) and none while it runs, is
    # parked, waits at the barrier or has finished.  So the key _drive pops
    # *is* its pick and heap[0] *is* the horizon, unvalidated.  Only a failed
    # run strands keys, and it leaves _drive at once.  tests/rma/
    # test_step_programs.py -k live_keys checks every pop.

    def _drive(self, s: _RankState) -> None:
        """The scheduling loop, entered with ``s`` as the rank to run.

        Every request of the run passes through the inner loop, whether the
        rank's active generator is its program or a poll sub-program standing
        in for the program's ``SPIN`` / ``SPIN_WHILE`` request
        (:meth:`_poll_steps` / :meth:`_poll_cell_steps`): apply the effect of
        the request issued last, send the value, account and time the next
        request, then continue below the horizon or push the key, pop the
        minimum and continue with that rank.  The inner loop is left only when
        the rank parks, waits at the barrier or finishes.  Keys are live (block
        comment above): the popped key is the pick and ``heap[0]`` the
        horizon, unvalidated.  An
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
        # Only the per-request hooks the observer's class overrides are
        # called; None otherwise, so an unobserved run pays one test each.
        on_rmw = observer_hook(self.observer, "on_rmw")
        on_request = observer_hook(self.observer, "on_request")
        max_ops = self.max_ops if self.max_ops is not None else _INF
        cost_rows = self._cost
        occ_rows = self._occ
        port_free = self._port_free
        fabric = self.fabric
        versions = self._versions
        watchers = self._watchers
        target_at = _TARGET_AT
        rma_kinds = _RMA_KINDS
        total = 0
        h_clock, h_rank = heap[0] if heap else _INF_KEY
        # Both are None again whenever the inner loop is left.
        error: Optional[Exception] = None
        value = None
        while True:
            rank, ops, row, slow, factor = s.fixed
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
                                    if on_rmw is not None:
                                        on_rmw(rank, CALLS[kind])
                                # A written cell: count the write, wake its parked ranks.
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
                        if factor is not None:
                            # Slowdown, jitter, pause: the same float operations
                            # in the same order as applying them one by one.
                            cost = cost * slow * factor() + factor()
                        start = clock
                        # Remote accesses serialize at the target: if its port is
                        # busy, the operation starts only once the port frees up.
                        occupancy = occ_rows[kind][idx]
                        if occupancy > 0.0:
                            free_at = port_free[target]
                            if free_at > start:
                                start = free_at
                            port_free[target] = start + occupancy
                        # Optional link-level contention on the Dragonfly route.
                        if fabric is not None and kind != FLUSH:
                            src_node = self._node_of[rank]
                            dst_node = self._node_of[target]
                            if src_node != dst_node:
                                arrival = fabric.traverse(self._link_free, src_node, dst_node, start)
                                cost += arrival - start
                        if on_request is not None:
                            on_request(rank, CALLS[kind], target, start, cost)
                        clock = start + cost
                        s.clock = clock
                        if kind == FLUSH:
                            request = None  # no effect, no value
                    elif kind == COMPUTE:
                        if not 0 <= request[1] < _INF:
                            raise ValueError(f"compute duration must be non-negative and finite, got {request[1]!r}")
                        clock += float(request[1])
                        s.clock = clock
                        request = None
                    elif kind == SPIN or kind == SPIN_WHILE:
                        # The poll becomes the active generator; its first leg
                        # is issued now, under the current scheduling decision.
                        # (A request too short for its kind raises at its yield.)
                        if kind == SPIN:
                            poll = self._poll_steps(request[1], request[2], s.checkpoint)
                        else:
                            poll = self._poll_cell_steps(request[1], request[2], request[3], s.checkpoint)
                        s.caller = steps
                        s.steps = steps = poll
                        request = None
                        continue
                    elif kind == BARRIER:
                        waiting = self._barrier_waiting
                        waiting.append(rank)
                        if len(waiting) < self._barrier_size:
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
                except _Restarted as restart:
                    # The fault plan revived the rank: its next incarnation
                    # runs from the restart time set on its clock.
                    s.steps = steps = restart.steps
                    clock = s.clock
                    request = value = None
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
                # Crossed the horizon: enqueue this rank, take the minimum
                # (another rank's key, by definition of crossing) in one sift
                # and run it here; the heap holds at least the key just pushed.
                s = states[heappushpop(heap, (clock, rank))[1]]
                rank, ops, row, slow, factor = s.fixed
                steps = s.steps
                request = s.pending
                clock = s.clock
                h_clock, h_rank = heap[0]
            # Parked, at the barrier or finished.  An empty heap: clean
            # drain, a crash victim to reap, or every rank is blocked.
            if not heap:
                self._no_runnable()
                if not heap:
                    return
            s = states[heappop(heap)[1]]
            h_clock, h_rank = heap[0] if heap else _INF_KEY

    def _no_runnable(self) -> None:
        """No rank is runnable: every rank finished (return), a blocked crash
        victim is reaped (fault plans; its key is pushed), or the run is
        deadlocked (raise)."""
        if self._kill_at is not None and self._reap_blocked():
            return
        unfinished = [s.rank for s in self._states if s.status != _FINISHED]
        if unfinished:
            raise SimDeadlockError(
                f"ranks {unfinished} are blocked forever with no runnable rank "
                f"left: {self._blocked_report()}"
            )

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

    # ------------------------------------------------------------------ #
    # Fault plans (every method below runs only under a non-null plan)
    # ------------------------------------------------------------------ #

    def _faulted_steps(
        self, s: _RankState, ctx: SimProcessContext, start: Callable[[], Steps], incarnation: int = 0
    ) -> Steps:
        """Rank ``s``'s steps under the fault plan; ``start()`` begins one incarnation.

        The kill time and the plan's ceiling are checked before each request
        is forwarded, and before each poll round through ``s.poll``: the
        clock at a request is part of the scheduling contract, so the crash
        lands on the same request under every conforming scheduler.  A kill
        closes the incarnation's generator (a bridged rank's thread unwinds)
        and reports the crash.  Without a restart the rank retires with a
        crash marker; with one, :class:`_Restarted` hands ``_drive`` the next
        incarnation, scheduled from the restart time.
        """
        rank = s.rank
        observer = self.observer
        if incarnation:
            on_restart = observer_hook(observer, "on_restart")
            if on_restart is not None:
                on_restart(rank, s.clock)
            ctx.incarnation = incarnation
        kill_us = self._kill_at[rank]
        ceiling = self._ceiling

        def checkpoint() -> None:
            clock = s.clock
            if clock >= kill_us:
                raise _Killed()
            if clock >= ceiling:
                raise FaultHorizonError(
                    f"rank {rank} passed the fault plan's virtual-time ceiling "
                    f"of {ceiling:g}us at t={clock:.2f}us (livelock under a crash?)"
                )

        s.checkpoint = checkpoint
        steps = start()
        value = error = None
        try:
            while True:
                try:
                    request = steps.send(value) if error is None else steps.throw(error)
                except StopIteration as stop:
                    return self._retire(s, stop.value)
                value = error = None
                try:
                    checkpoint()
                    value = yield request
                except _Killed:
                    break
                except Exception as exc:  # noqa: BLE001 - raised at the program's request
                    error = exc
        finally:
            steps.close()  # a kill unwinds the program's frames here
        self._kill_at[rank] = _INF  # one crash per rank per run
        on_crash = observer_hook(observer, "on_crash")
        if on_crash is not None:
            on_crash(rank, s.clock)
        fault = self.fault_plan.fault_for(rank)
        restart_us = fault.restart_us if fault is not None else None
        if restart_us is None:
            return self._retire(s, {"__crashed__": True, "rank": rank, "t_us": s.clock})
        if s.clock < restart_us:
            s.clock = restart_us
        # Re-run the program from the top: fresh handles, fresh local state;
        # the rank's window keeps whatever survivors wrote to it meanwhile.
        raise _Restarted(self._faulted_steps(s, ctx, start, incarnation + 1))

    def _retire(self, s: _RankState, result: Any) -> Any:
        """Finish rank ``s`` with ``result``; its finish can complete a barrier."""
        s.status = _FINISHED
        self._barrier_size -= 1
        waiting = self._barrier_waiting
        if waiting and len(waiting) >= self._barrier_size:
            self._release_barrier(None)
        return result

    def _reap_blocked(self) -> bool:
        """Kill the next blocked rank whose crash is scheduled, if any.

        Called when no rank is runnable: a parked or barrier-blocked victim
        will never issue the request that would normally deliver its kill, so
        it is delivered here — smallest ``(kill_us, rank)`` first, clock
        bumped to the kill time.  The victim is detached from every wait and
        pushed; it resumes into :func:`_killed_steps`, which raises its kill
        at the request it was blocked in.  Returns True when a victim was found.
        """
        kill_at = self._kill_at
        blocked = [s for s in self._states if s.status in (_PARKED, _BARRIER) and kill_at[s.rank] < _INF]
        if not blocked:
            return False
        victim = min(blocked, key=lambda s: (kill_at[s.rank], s.rank))
        if victim.clock < kill_at[victim.rank]:
            victim.clock = kill_at[victim.rank]
        for cell in victim.watching:
            waiters = self._watchers.get(cell)
            if waiters is not None:
                waiters.discard(victim.rank)
        victim.watching.clear()
        if victim.rank in self._barrier_waiting:
            self._barrier_waiting.remove(victim.rank)
        victim.status = _READY
        if victim.caller is None:
            victim.caller = victim.steps  # blocked at a barrier: in its own request
        else:
            victim.steps.close()  # parked: in its poll
        victim.steps = _killed_steps()
        heappush(self._heap, (victim.clock, victim.rank))
        return True

    # ------------------------------------------------------------------ #
    # Waking, polling, parking and the barrier
    # ------------------------------------------------------------------ #

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

    def _poll_steps(
        self, cells: Sequence[Cell], predicate: Callable[[List[int]], bool],
        checkpoint: Optional[Callable[[], None]],
    ):
        """``SPIN``, the poll protocol ``do {Get; Flush} while (predicate)``, as a step sub-program.

        Yields its legs as ordinary ``GET`` / ``FLUSH`` requests, built once,
        and ``(_PARK, cells)`` when the predicate holds and no polled cell
        was written during the round (such a write could no longer wake the
        rank, so the round is repeated instead; versions only grow, so equal
        sums over the cells mean no write).  Returns the values that made the
        predicate false.  ``checkpoint`` runs before every round.
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
        flushes = [(FLUSH, t) for t in sorted({leg[1] for leg in gets})]
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
            if not predicate(values):
                return values
            for cell in watch:
                written += versions[cell]
            if not written:
                yield park

    def _poll_cell_steps(
        self, target: int, offset: int, predicate: Callable[[int], bool],
        checkpoint: Optional[Callable[[], None]],
    ):
        """``SPIN_WHILE``: :meth:`_poll_steps` for one cell, built lean.  A round
        takes one write-count snapshot and tests the predicate on the bare value."""
        versions = self._versions
        target, offset = int(target), int(offset)
        get = (GET, target, offset)
        flush = (FLUSH, target)
        cell = target * self.window_words + offset
        park = (_PARK, (cell,))
        versions.setdefault(cell, 0)
        while True:
            if checkpoint is not None:
                checkpoint()
            seen = versions[cell]
            value = yield get
            yield flush
            if not predicate(value):
                return value
            if versions[cell] == seen:  # no write raced the round
                yield park

    def _park(self, state: _RankState, cells: Sequence[int]) -> None:
        """Take ``state`` off the heap until one of ``cells`` is written."""
        watchers = self._watchers
        rank = state.rank
        for c in cells:
            watchers.setdefault(c, set()).add(rank)
        state.watching.update(cells)
        state.status = _PARKED

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
    help="min-heap time-horizon scheduler, the default: one loop steps every rank as a generator (blocking programs through a per-rank thread bridge)",
)
def _make_horizon_runtime(
    machine, *, window_words=64, seed=0, latency=None, fabric=None,
    perturbation=None, observer=None, fault_plan=None,
):
    return SimRuntime(
        machine, window_words=window_words, latency=latency, fabric=fabric,
        seed=seed, perturbation=perturbation, observer=observer, fault_plan=fault_plan,
    )
