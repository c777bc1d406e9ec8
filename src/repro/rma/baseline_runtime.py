"""Reference (seed) baton-passing scheduler, preserved verbatim.

This is the original PR-0 discrete-event scheduler: one OS thread per rank, a
global lock plus an O(P) linear scan per clock advance, and up to two thread
handoffs per RMA operation.  It is kept as the semantic reference for the
horizon scheduler in :mod:`repro.rma.sim_runtime`:

* the golden-determinism tests cross-check the horizon scheduler against it
  (same seed => bit-identical :class:`~repro.rma.runtime_base.RunResult`),
* ``tools/record_golden.py --runtime baseline`` records the goldens on it,
  and ``python3 -m ledger --bless-expected`` cross-checks against it.

Do not optimize this module; its value is that it stays byte-for-byte the
seed behaviour.  The only post-seed additions are the perturbation, observer
and fault-plan hooks shared with the horizon scheduler (guarded so they are
inert when unset), which the conformance and fault layers use to cross-check
perturbed/faulted schedules between both schedulers.

This backend is the repository's substitute for the paper's Cray XC30 /
foMPI testbed.  Every rank is a logical process with its own virtual clock
and RMA window; RMA calls charge latencies from a
:class:`~repro.rma.latency.LatencyModel` that depends on the topological
distance between origin and target.  The scheduler always resumes the
runnable rank with the smallest clock, which yields a deterministic,
approximately causal interleaving, so the same program with the same seed
produces bit-identical results on every run.

Implementation notes
--------------------
* Each rank runs on its own OS thread, but a baton-passing scheduler ensures
  that exactly one rank executes at any moment; there are no data races by
  construction and the GIL is never contended.
* ``spin_on_cells`` (the protocols' ``do {Get; Flush} while (...)`` loops)
  parks the rank on the polled window cells instead of replaying millions of
  poll iterations.  A per-cell version counter guarantees that a write that
  lands between the poll and the park is never missed.
* If every unfinished rank is parked or waiting at a barrier the runtime
  raises :class:`~repro.rma.runtime_base.SimDeadlockError`, which doubles as
  a protocol-level deadlock detector in the test-suite.
"""

from __future__ import annotations

import threading
from collections import Counter, defaultdict
from typing import Any, Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro.api.registry import register_runtime
from repro.rma.fabric import FabricContentionModel
from repro.rma.latency import LatencyModel
from repro.rma.perturbation import PerturbationModel, RankPerturbation
from repro.rma.ops import AtomicOp, RMACall
from repro.rma.runtime_base import (
    Cell,
    FaultHorizonError,
    ProcessContext,
    RMARuntime,
    RunResult,
    RuntimeError_,
    SimDeadlockError,
    WindowInit,
    allocate_windows,
    blocking_program,
)
from repro.rma.window import Window
from repro.topology.machine import Machine
from repro.util.rng import rank_rng

__all__ = ["BaselineSimRuntime", "BaselineSimProcessContext"]

# Rank states
_READY = "ready"
_PARKED = "parked"
_BARRIER = "barrier"
_FINISHED = "finished"


class _Aborted(BaseException):
    """Internal control-flow exception used to unwind rank threads on abort."""


class _Killed(BaseException):
    """Unwinds exactly one rank's thread when a fault plan kills that rank.

    Mirrors the horizon scheduler: raised at the rank's next public context
    call (or when the scheduler reaps it from a parked/barrier wait) and
    caught in ``_rank_main``, which either restarts the rank or retires it
    with a crash-marker result.
    """


_INF = float("inf")


class _RankState:
    """Scheduler bookkeeping for one rank."""

    __slots__ = (
        "rank",
        "clock",
        "status",
        "event",
        "watching",
        "result",
        "finish_time",
        "op_counts",
    )

    def __init__(self, rank: int):
        self.rank = rank
        self.clock = 0.0
        self.status = _READY
        self.event = threading.Event()
        self.watching: Set[Cell] = set()
        self.result: Any = None
        self.finish_time = 0.0
        self.op_counts: Counter = Counter()


class BaselineSimProcessContext(ProcessContext):
    """Per-rank handle bound to a :class:`BaselineSimRuntime` run."""

    #: The runtime's fault plan (None on unfaulted runs); fault-aware lock
    #: handles use it as a perfect failure detector via ``fault.dead_at``.
    fault: Optional[Any] = None
    #: Incarnation counter: 0 until the rank crashes and restarts.
    incarnation: int = 0

    def __init__(self, runtime: "BaselineSimRuntime", state: _RankState):
        self._rt = runtime
        self._state = state
        self.rank = state.rank
        self.nranks = runtime.num_ranks
        self.rng = rank_rng(runtime.seed, state.rank)
        #: The runtime's observer hook (None when no observer is installed).
        self.observer = runtime.observer

    # -- properties ------------------------------------------------------- #

    def now(self) -> float:
        return self._state.clock

    # -- Listing 1 -------------------------------------------------------- #

    def put(self, src_data: int, target: int, offset: int) -> None:
        self._rt._issue(self._state, RMACall.PUT, target)
        self._rt._apply_write(self._state, target, offset, lambda w: w.write(offset, int(src_data)))

    def get(self, target: int, offset: int) -> int:
        self._rt._issue(self._state, RMACall.GET, target)
        return self._rt._read(target, offset)

    def accumulate(self, operand: int, target: int, offset: int, op: AtomicOp = AtomicOp.SUM) -> None:
        self._rt._issue(self._state, RMACall.ACCUMULATE, target)
        self._rt._apply_write(
            self._state, target, offset, lambda w: w.apply(offset, int(operand), op)
        )

    def fao(self, operand: int, target: int, offset: int, op: AtomicOp) -> int:
        self._rt._issue(self._state, RMACall.FAO, target)
        box: List[int] = []
        self._rt._apply_write(
            self._state, target, offset, lambda w: box.append(w.fetch_and_op(offset, int(operand), op))
        )
        if self.observer is not None:
            self.observer.on_rmw(self.rank, RMACall.FAO)
        return box[0]

    def cas(self, src_data: int, cmp_data: int, target: int, offset: int) -> int:
        self._rt._issue(self._state, RMACall.CAS, target)
        box: List[int] = []
        self._rt._apply_write(
            self._state,
            target,
            offset,
            lambda w: box.append(w.compare_and_swap(offset, int(cmp_data), int(src_data))),
        )
        if self.observer is not None:
            self.observer.on_rmw(self.rank, RMACall.CAS)
        return box[0]

    def flush(self, target: int) -> None:
        self._rt._issue(self._state, RMACall.FLUSH, target)

    # -- helpers ----------------------------------------------------------- #

    def spin_on_cells(self, cells: Sequence[Cell], predicate: Callable[[Sequence[int]], bool]) -> List[int]:
        cells = [(int(t), int(o)) for t, o in cells]
        targets = sorted({t for t, _ in cells})
        while True:
            versions = self._rt._versions_of(cells)
            values = [self.get(t, o) for t, o in cells]
            for t in targets:
                self.flush(t)
            if not predicate(values):
                return values
            self._rt._park_if_unchanged(self._state, cells, versions)

    def compute(self, duration_us: float) -> None:
        if duration_us < 0:
            raise ValueError("compute duration must be non-negative")
        self._rt._advance(self._state, float(duration_us))

    def barrier(self) -> None:
        self._rt._barrier(self._state)


class _FaultedBaselineContext(BaselineSimProcessContext):
    """Context variant used only when a fault plan is installed.

    Mirrors ``SimRuntime._faulted_steps`` in the horizon scheduler: every
    public context call checks the rank's virtual clock against its scheduled kill
    time (and the plan's optional horizon ceiling) before executing, and
    ``spin_on_cells`` checks exactly once per poll round so the crash lands
    on the same virtual moment under both schedulers.
    """

    def __init__(self, runtime: "BaselineSimRuntime", state: _RankState):
        super().__init__(runtime, state)
        plan = runtime.fault_plan
        self.fault = plan
        self.incarnation = 0
        self._kill_us = runtime._kill_at[state.rank]
        self._ceiling = plan.horizon_us if plan.horizon_us is not None else _INF

    def _entry(self) -> None:
        clock = self._state.clock
        if clock >= self._kill_us:
            raise _Killed()
        if clock >= self._ceiling:
            raise FaultHorizonError(
                f"rank {self.rank} passed the fault plan's virtual-time ceiling "
                f"of {self._ceiling:g}us at t={clock:.2f}us (livelock under a crash?)"
            )

    def _on_restarted(self) -> None:
        """Called once the scheduler revives this rank (one crash per run)."""
        self.incarnation += 1
        self._kill_us = _INF

    def put(self, src_data: int, target: int, offset: int) -> None:
        self._entry()
        BaselineSimProcessContext.put(self, src_data, target, offset)

    def get(self, target: int, offset: int) -> int:
        self._entry()
        return BaselineSimProcessContext.get(self, target, offset)

    def accumulate(self, operand: int, target: int, offset: int, op: AtomicOp = AtomicOp.SUM) -> None:
        self._entry()
        BaselineSimProcessContext.accumulate(self, operand, target, offset, op)

    def fao(self, operand: int, target: int, offset: int, op: AtomicOp) -> int:
        self._entry()
        return BaselineSimProcessContext.fao(self, operand, target, offset, op)

    def cas(self, src_data: int, cmp_data: int, target: int, offset: int) -> int:
        self._entry()
        return BaselineSimProcessContext.cas(self, src_data, cmp_data, target, offset)

    def flush(self, target: int) -> None:
        self._entry()
        BaselineSimProcessContext.flush(self, target)

    def spin_on_cells(self, cells: Sequence[Cell], predicate: Callable[[Sequence[int]], bool]) -> List[int]:
        # Re-implements the parent's poll loop with ONE kill/ceiling check per
        # round (at the top, where the horizon scheduler's spin task checks)
        # instead of one per Get/Flush leg — the per-leg checks of the plain
        # overrides would kill mid-round on multi-cell spins and diverge from
        # the horizon scheduler's crash clock.  The legs below call the parent
        # class methods directly, bypassing the per-call checks.
        cells = [(int(t), int(o)) for t, o in cells]
        targets = sorted({t for t, _ in cells})
        parent = BaselineSimProcessContext
        while True:
            self._entry()
            versions = self._rt._versions_of(cells)
            values = [parent.get(self, t, o) for t, o in cells]
            for t in targets:
                parent.flush(self, t)
            if not predicate(values):
                return values
            self._rt._park_if_unchanged(self._state, cells, versions)

    def compute(self, duration_us: float) -> None:
        self._entry()
        BaselineSimProcessContext.compute(self, duration_us)

    def barrier(self) -> None:
        self._entry()
        BaselineSimProcessContext.barrier(self)


class BaselineSimRuntime(RMARuntime):
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
        #: Optional seeded schedule perturbation / run observer — the same
        #: hooks the horizon scheduler exposes, applied at the same points so
        #: perturbed runs stay bit-identical across both schedulers.
        self.perturbation = perturbation
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

        # Per-run state (created in run()).
        self._states: List[_RankState] = []
        self._port_free: List[float] = []
        self._link_free: Dict[object, float] = {}
        self._lock = threading.Lock()
        self._watchers: Dict[Cell, Set[int]] = {}
        self._versions: Dict[Cell, int] = defaultdict(int)
        self._barrier_waiting: List[int] = []
        self._abort = False
        self._abort_exc: Optional[BaseException] = None
        self._total_ops = 0
        self._perturb_mult: Optional[Tuple[float, ...]] = None
        self._perturb_states: Optional[List[RankPerturbation]] = None
        # Fault state (only populated when a non-null fault plan is set):
        # per-rank kill times (inf = never) and reaped ranks whose event-set
        # doubles as a kill signal.
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
        program = blocking_program(program)  # a step program runs through ctx.run_steps

        self.windows = allocate_windows(nranks, self.window_words, window_init)

        self._states = [_RankState(r) for r in range(nranks)]
        self._port_free = [0.0] * nranks
        self._link_free = self.fabric.new_state() if self.fabric is not None else {}
        self._watchers = {}
        self._versions = defaultdict(int)
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
        perturbation = self.perturbation
        if perturbation is not None and perturbation.rank_slowdown > 0.0:
            self._perturb_mult = perturbation.rank_multipliers(nranks)
        else:
            self._perturb_mult = None
        self._perturb_states = (
            perturbation.rank_states(nranks) if perturbation is not None else None
        )
        if self.observer is not None:
            self.observer.on_run_start(nranks)

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
        for t in threads:
            t.start()
        # Hand the baton to rank 0 (all clocks are zero; ties break by rank).
        self._states[0].event.set()
        for t in threads:
            t.join()

        if self._abort_exc is not None:
            raise self._abort_exc
        if self.observer is not None:
            self.observer.on_run_end()

        finish_times = [s.finish_time for s in self._states]
        per_rank_counts = [dict(s.op_counts) for s in self._states]
        totals: Counter = Counter()
        for c in self._states:
            totals.update(c.op_counts)
        return RunResult(
            returns=[s.result for s in self._states],
            finish_times_us=finish_times,
            total_time_us=max(finish_times) if finish_times else 0.0,
            op_counts={k: int(v) for k, v in totals.items()},
            per_rank_op_counts=per_rank_counts,
        )

    # ------------------------------------------------------------------ #
    # Rank thread body
    # ------------------------------------------------------------------ #

    def _rank_main(self, rank: int, program: Callable[..., Any], arg: Any, has_arg: bool) -> None:
        state = self._states[rank]
        state.event.wait()
        state.event.clear()
        if self.fault_plan is None:
            ctx: BaselineSimProcessContext = BaselineSimProcessContext(self, state)
        else:
            ctx = _FaultedBaselineContext(self, state)
        try:
            if self._abort:
                raise _Aborted()
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
            if self.fault_plan is not None:
                # A finish can change the crash-aware barrier's headcount
                # (e.g. the ranks parked at the final barrier are joined by a
                # crash instead of an arrival); re-check before scheduling.
                self._release_barrier_if_complete_locked()
            nxt = self._pick_runnable_locked()
            if nxt is not None:
                nxt.event.set()
                return
            if self._abort:
                return
            if self.fault_plan is not None and self._reap_blocked_locked() is not None:
                return
            unfinished = [s.rank for s in self._states if s.status != _FINISHED]
            if unfinished:
                # Everyone left is parked or stuck in a barrier: deadlock.
                self._abort = True
                if self._abort_exc is None:
                    self._abort_exc = SimDeadlockError(
                        f"ranks {unfinished} are blocked forever after rank "
                        f"{state.rank} finished: {self._blocked_report_locked()}"
                    )
                self._wake_all_locked()

    # ------------------------------------------------------------------ #
    # Fault handling (every method below runs only under a non-null plan)
    # ------------------------------------------------------------------ #

    def _crash_rank(self, state: _RankState) -> Optional[float]:
        """Record ``state``'s crash; returns its restart time (None = final).

        Runs on the victim's own thread right after ``_Killed`` unwound the
        rank program.  One crash per rank per run: the kill time is retired
        so a restarted rank cannot be re-killed.
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

        The rank stays READY with its clock bumped to the restart time, so
        the min-clock scheduler revives it exactly when the rest of the
        simulation reaches that virtual moment — or immediately, if every
        survivor is blocked waiting for it.
        """
        if state.clock < restart_us:
            state.clock = restart_us
        self._maybe_switch(state)
        observer = self.observer
        if observer is not None:
            on_restart = getattr(observer, "on_restart", None)
            if on_restart is not None:
                on_restart(state.rank, state.clock)

    def _reap_blocked_locked(self) -> Optional[_RankState]:
        """Kill the next blocked rank whose crash is scheduled, if any.

        Called (lock held) when the scheduler ran out of runnable ranks: a
        parked or barrier-blocked victim will never issue the context call
        that would normally deliver its kill, so the scheduler delivers it
        here — smallest ``(kill_us, rank)`` first, clock bumped to the kill
        time, matching the horizon scheduler's reap order exactly.  The
        victim's thread is woken with the reap flag set; it raises ``_Killed``
        out of its wait.  Returns the victim (None when nothing to reap).
        """
        kill_at = self._kill_at
        if kill_at is None:
            return None
        victim: Optional[_RankState] = None
        for s in self._states:
            if s.status in (_PARKED, _BARRIER) and kill_at[s.rank] < _INF:
                if victim is None or (kill_at[s.rank], s.rank) < (kill_at[victim.rank], victim.rank):
                    victim = s
        if victim is None:
            return None
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
        self._reaped.add(victim.rank)
        victim.event.set()
        return victim

    def _release_barrier_if_complete_locked(self) -> None:
        """Release the barrier if crashes/finishes completed its headcount."""
        waiting = self._barrier_waiting
        need = sum(1 for s in self._states if s.status != _FINISHED)
        if not waiting or len(waiting) < need:
            return
        release_time = max(self._states[r].clock for r in waiting) + self.barrier_cost_us
        for r in waiting:
            s = self._states[r]
            s.clock = release_time
            s.status = _READY
        self._barrier_waiting = []

    # ------------------------------------------------------------------ #
    # Scheduler primitives (all take/hold self._lock where noted)
    # ------------------------------------------------------------------ #

    def _pick_runnable_locked(self) -> Optional[_RankState]:
        best: Optional[_RankState] = None
        for s in self._states:
            if s.status == _READY:
                if best is None or (s.clock, s.rank) < (best.clock, best.rank):
                    best = s
        return best

    def _wake_all_locked(self) -> None:
        for s in self._states:
            if s.status != _FINISHED:
                s.status = _READY
                s.event.set()

    def _check_abort(self) -> None:
        if self._abort:
            raise _Aborted()

    def _blocked_report_locked(self) -> str:
        """Human-readable description of every blocked rank (for deadlock errors)."""
        lines = []
        for s in self._states:
            if s.status == _PARKED:
                cells = ", ".join(f"(rank {t}, offset {o})" for t, o in sorted(s.watching))
                lines.append(f"rank {s.rank}: parked on {cells} at t={s.clock:.2f}us")
            elif s.status == _BARRIER:
                lines.append(f"rank {s.rank}: waiting at barrier at t={s.clock:.2f}us")
        return "; ".join(lines) if lines else "(no blocked ranks)"

    def _wait_for_turn(self, state: _RankState) -> None:
        waited = 0.0
        while not state.event.wait(timeout=0.5):
            if self._abort:
                raise _Aborted()
            waited += 0.5
            if waited >= self.stall_timeout_s:
                with self._lock:
                    self._abort = True
                    if self._abort_exc is None:
                        self._abort_exc = RuntimeError_(
                            f"scheduler stall: rank {state.rank} was never resumed "
                            f"within {self.stall_timeout_s}s of wall-clock time"
                        )
                    self._wake_all_locked()
                raise _Aborted()
        state.event.clear()
        self._check_abort()
        if self.fault_plan is not None and state.rank in self._reaped:
            self._reaped.discard(state.rank)
            raise _Killed()

    def _maybe_switch(self, state: _RankState) -> None:
        """After advancing ``state``'s clock, hand the baton to the earliest rank."""
        need_wait = False
        with self._lock:
            if self._abort:
                raise _Aborted()
            nxt = self._pick_runnable_locked()
            if nxt is not None and nxt is not state:
                nxt.event.set()
                need_wait = True
        if need_wait:
            self._wait_for_turn(state)

    def _advance(self, state: _RankState, dt: float) -> None:
        self._check_abort()
        state.clock += dt
        self._maybe_switch(state)

    # ------------------------------------------------------------------ #
    # RMA operation plumbing
    # ------------------------------------------------------------------ #

    def _issue(self, state: _RankState, call: RMACall, target: int) -> None:
        """Charge the latency of ``call``, model target-port contention and account for it."""
        self._check_abort()
        if not 0 <= target < self.num_ranks:
            raise ValueError(f"target rank {target} out of range 0..{self.num_ranks - 1}")
        state.op_counts[call.value] += 1
        self._total_ops += 1
        if self.max_ops is not None and self._total_ops > self.max_ops:
            raise RuntimeError_(
                f"simulation exceeded max_ops={self.max_ops}; possible livelock"
            )
        cost = self.latency.cost(call, self.machine, state.rank, target)
        # Perturbation mirrors the horizon scheduler bit-for-bit: the per-rank
        # slowdown is one multiply (the scaled CostTable entry over there) and
        # jitter/pauses use the same per-rank streams in the same issue order.
        if self._perturb_mult is not None:
            cost = cost * self._perturb_mult[state.rank]
        if self._perturb_states is not None:
            cost = self._perturb_states[state.rank].perturb(cost)
        occupancy = self.latency.occupancy(call, state.rank, target)
        # Remote accesses serialize at the target: if its port is busy, the
        # operation starts only once the port frees up.  This queueing is what
        # turns a single hot lock word into a scalability bottleneck.
        start = state.clock
        if occupancy > 0.0:
            start = max(start, self._port_free[target])
            self._port_free[target] = start + occupancy
        # Optional link-level contention: inter-node data/atomic traffic also
        # serializes on every Dragonfly link along its minimal route.
        if (
            self.fabric is not None
            and call is not RMACall.FLUSH
            and not self.machine.same_node(state.rank, target)
        ):
            src_node = self.machine.node_of(state.rank)
            dst_node = self.machine.node_of(target)
            arrival = self.fabric.traverse(self._link_free, src_node, dst_node, start)
            cost += arrival - start
        if self.tracer is not None:
            self.tracer.record(state.rank, call, target, start, cost)
        state.clock = start
        self._advance(state, cost)

    def _read(self, target: int, offset: int) -> int:
        return self.windows[target].read(offset)

    def _apply_write(self, state: _RankState, target: int, offset: int, effect: Callable[[Window], Any]) -> None:
        """Apply a window mutation and wake any rank parked on that cell."""
        effect(self.windows[target])
        cell = (target, offset)
        with self._lock:
            self._versions[cell] += 1
            waiters = self._watchers.pop(cell, None)
            if waiters:
                for rank in waiters:
                    ws = self._states[rank]
                    if ws.status != _PARKED:
                        continue
                    for other in ws.watching:
                        if other != cell and other in self._watchers:
                            self._watchers[other].discard(rank)
                    ws.watching.clear()
                    ws.status = _READY
                    # The sleeper was logically polling all along; it observes
                    # the write no earlier than the writer's current time.
                    ws.clock = max(ws.clock, state.clock)

    # ------------------------------------------------------------------ #
    # Parking / barrier
    # ------------------------------------------------------------------ #

    def _versions_of(self, cells: Sequence[Cell]) -> Tuple[int, ...]:
        with self._lock:
            return tuple(self._versions[c] for c in cells)

    def _park_if_unchanged(self, state: _RankState, cells: Sequence[Cell], versions: Tuple[int, ...]) -> None:
        """Park ``state`` until one of ``cells`` is written, unless one already was."""
        with self._lock:
            if self._abort:
                raise _Aborted()
            current = tuple(self._versions[c] for c in cells)
            if current != versions:
                return  # a write raced with the poll; re-read instead of parking
            for c in cells:
                self._watchers.setdefault(c, set()).add(state.rank)
                state.watching.add(c)
            state.status = _PARKED
            nxt = self._pick_runnable_locked()
            if nxt is None:
                # Faulted runs: a scheduled crash of a blocked rank (possibly
                # this one) can still make progress; the victim's wait below
                # raises _Killed if it was reaped.
                if self.fault_plan is None or self._reap_blocked_locked() is None:
                    raise SimDeadlockError(
                        f"all unfinished ranks are blocked; rank {state.rank} parked on "
                        f"cells {list(cells)} with nobody left to wake it: "
                        f"{self._blocked_report_locked()}"
                    )
            else:
                nxt.event.set()
        self._wait_for_turn(state)

    def _barrier(self, state: _RankState) -> None:
        self._check_abort()
        release = False
        with self._lock:
            self._barrier_waiting.append(state.rank)
            # Faulted runs count only unfinished ranks: crashed ranks never
            # reach the barrier, so the rendezvous must not wait for them.
            if self.fault_plan is None:
                need = self.num_ranks
            else:
                need = sum(1 for s in self._states if s.status != _FINISHED)
            if len(self._barrier_waiting) >= need:
                release = True
                release_time = max(self._states[r].clock for r in self._barrier_waiting)
                release_time += self.barrier_cost_us
                for r in self._barrier_waiting:
                    s = self._states[r]
                    s.clock = release_time
                    s.status = _READY
                self._barrier_waiting = []
            else:
                state.status = _BARRIER
                nxt = self._pick_runnable_locked()
                if nxt is None:
                    # Same reap escape hatch as _park_if_unchanged.
                    if self.fault_plan is None or self._reap_blocked_locked() is None:
                        raise SimDeadlockError(
                            f"barrier cannot complete: {need - len(self._barrier_waiting)} "
                            f"rank(s) never arrived; blocked ranks: {self._blocked_report_locked()}"
                        )
                else:
                    nxt.event.set()
        if release:
            # The releasing rank continues; equal clocks, ties broken by rank.
            self._maybe_switch(state)
        else:
            self._wait_for_turn(state)


# --------------------------------------------------------------------------- #
# Registry entry (see repro.api): the preserved seed scheduler.
# --------------------------------------------------------------------------- #

@register_runtime(
    "baseline",
    help="preserved seed scheduler (slower; bit-identical reference for 'horizon')",
    fault_injection=True,
)
def _make_baseline_runtime(
    machine, *, window_words=64, seed=0, latency=None, fabric=None, tracer=None,
    perturbation=None, observer=None, fault_plan=None,
):
    return BaselineSimRuntime(
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
