"""Batched state-machine RMA runtime with single-run sharding ("vector").

Third registered scheduler, peer of ``horizon`` and ``baseline``.  It
realises the exact deterministic scheduling contract of
:mod:`repro.rma.runtime_base` — bit-identical ``RunResult``s, pinned by the
golden fingerprints — with a different execution core:

* **Run-ahead descriptor buffering.**  The horizon scheduler wakes a rank's
  OS thread at every scheduling point where that rank continues.  Here a
  rank's thread *buffers* its RMA calls as flat descriptor tuples (a
  per-rank state-machine record: queue + cursor + pending-effect + spin
  phase) and only blocks when it needs a value back (``get``/``fao``/
  ``cas``/``spin_on_cells``, and ``now()`` with work outstanding).  A single
  driver loop then replays the descriptors of *all* ranks in the canonical
  ``(clock, rank)`` order.  A wcsb benchmark iteration costs ~3 thread
  handoffs instead of one per scheduling point.

* **Batched slot processing.**  The driver picks a rank and executes a whole
  *run* of its slots — issue, pending effect, spin legs — while its key
  stays below the next runnable rank's key, mirroring the horizon fast path
  but without generator resumption or per-operation Python-frame churn.

* **Single-run sharding.**  Ranks are partitioned into node-aligned shards,
  each with its own ready-heap.  Every rank maintains a conservative
  *cross-shard fence*: a lower bound (derived from its buffered descriptors
  and the scaled :class:`~repro.rma.latency.CostTable`, whose entries are
  exact lower bounds under jitter/pauses) on the earliest virtual time at
  which it can next touch state outside its shard — a remote port, a
  foreign-watched cell, a barrier.  Per-shard fence minima are reduced with
  one vectorized ``numpy`` ``min`` over the per-rank fence array.  A shard
  whose next key lies below every other shard's fence may batch shard-local
  slots without consulting the global order at all; anything classified as
  *interacting* executes only at the true global minimum.  The shards share
  one process: with window state coupled at microsecond granularity, worker
  *processes* would spend more time in IPC round-trips per fence window
  than the horizon scheduler spends simulating it (measured before this
  design was chosen), and bit-exactness is the anchor — so the lookahead
  machinery buys heap locality and bounded re-picks rather than true
  multi-core execution.

Two-phase operation semantics (shared with both other schedulers): the
*issue* of an operation — accounting, cost, port occupancy, fabric
traversal, clock advance — runs under the scheduling decision of the rank's
previous advance, fused to the *effect* of the previous operation (window
mutation, version bump, wakes); the effect of the new operation applies when
its post-issue ``(clock, rank)`` key is the global minimum.  The driver
replicates this exactly: one slot = [apply pending effect; take one step],
and a freshly resumed thread's first buffered step runs before any re-pick
(the ``prio`` flag), matching the schedulers that run that step inline on
the program thread.

Observed runs (``observer=`` installed) switch to **lockstep mode**: every
context call syncs immediately, so the wrapper events of
:mod:`repro.verification.oracles` fire in the same canonical global order as
on the horizon scheduler and oracle reports match field for field.
Unobserved runs — goldens, campaigns, the perf gate — keep full run-ahead.

Known, deliberate divergence: argument validation (target/offset ranges,
int64 fit) happens eagerly at the context call instead of at the operation's
issue/effect slot.  A program that *catches* such an error and continues
would observe different op counts than under horizon; no program in the
repository does, and the exception surfaced by ``run()`` is identical.
"""

from __future__ import annotations

import gc
import os
import threading
import time
from collections import defaultdict
from heapq import heapify, heappop, heappush, heapreplace
from typing import Any, Callable, Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.api.registry import register_runtime
from repro.rma.fabric import FabricContentionModel
from repro.rma.latency import LatencyModel, cost_table
from repro.rma.perturbation import PerturbationModel, RankPerturbation
from repro.rma.ops import CALLS, CALL_INDEX, NUM_CALLS, AtomicOp, RMACall
from repro.rma.runtime_base import (
    Cell,
    ProcessContext,
    RMARuntime,
    RunResult,
    RuntimeError_,
    SimDeadlockError,
    WindowInit,
    allocate_windows,
    blocking_program,
)
from repro.topology.machine import Machine
from repro.util.rng import rank_rng

__all__ = ["VectorRuntime", "VectorProcessContext"]

# Rank states (ints: compared on the hot path).
_READY = 0
_PARKED = 1
_BARRIER = 2
_FINISHED = 3

_INF = float("inf")
_INF_KEY: Tuple[float, int] = (_INF, -1)

_INT64_MIN = -(2**63)
_INT64_MAX = 2**63 - 1

def _usable_cpus() -> int:
    """CPUs this process may run on (affinity-aware where the OS supports it)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux fallback
        return os.cpu_count() or 1


_SUM = AtomicOp.SUM
_REPLACE = AtomicOp.REPLACE
_FAO_CALL = RMACall.FAO
_CAS_CALL = RMACall.CAS
_FLUSH_CALL = RMACall.FLUSH

# Descriptor kinds.  The six RMA ops are numbered by their CALL_INDEX so one
# integer serves as descriptor kind, dense op-counter index and cost-table
# row all at once; the op descriptors double as their own pending-effect
# records (no per-effect allocation).
_K_PUT = CALL_INDEX[RMACall.PUT]  # (k, target, offset, value)
_K_GET = CALL_INDEX[RMACall.GET]  # (k, target, offset)            [sync]
_K_ACC = CALL_INDEX[RMACall.ACCUMULATE]  # (k, target, offset, operand, op)
_K_FAO = CALL_INDEX[RMACall.FAO]  # (k, target, offset, operand, op) [sync]
_K_CAS = CALL_INDEX[RMACall.CAS]  # (k, target, offset, src, cmp)  [sync]
_K_FLUSH = CALL_INDEX[RMACall.FLUSH]  # (k, target)
_K_COMPUTE = 6  # (k, duration_us)
_K_BARRIER = 7  # (k,)
_K_SPIN = 8  # (k, cells, targets, predicate, local, round_cost)   [sync]
_K_NOW = 9  # (k,)                                                 [sync]
_K_END = 10  # (k,)
_K_SPINREAD = 11  # pending only: (k, target, offset)

assert _K_PUT == 0 and _K_FLUSH == 5, "descriptor kinds must mirror CALL_INDEX"

_NOW_DESC = (_K_NOW,)
_BARRIER_DESC = (_K_BARRIER,)
_END_DESC = (_K_END,)

# _run_rank outcome codes.
_RUN_RESUME = 0  # hand the baton to the rank's thread (value or production)
_RUN_CROSSED = 1  # the rank's key crossed the limit; caller re-enqueues it
_RUN_BLOCKED = 2  # parked / at barrier / finished; nothing to re-enqueue
_RUN_INTERACT = 3  # local-only batch hit an interacting slot; nothing consumed


class _Aborted(BaseException):
    """Internal control-flow exception used to unwind rank threads on abort."""


class _VRank:
    """Flat per-rank state-machine record (one per rank per run)."""

    __slots__ = (
        "rank",
        "shard",
        "clock",
        "status",
        "baton",
        "queue",
        "qhead",
        "pending",
        "value",
        "prio",
        "watching",
        "result",
        "finish_time",
        "ops",
        "sp_cells",
        "sp_targets",
        "sp_pred",
        "sp_phase",
        "sp_vals",
        "sp_snap",
        "sp_local",
        "sp_round_cost",
    )

    def __init__(self, rank: int):
        self.rank = rank
        self.shard = 0
        self.clock = 0.0
        self.status = _READY
        # Binary semaphore: created locked; the rank's thread blocks by
        # acquiring it, the driver resumes the thread by releasing it.
        self.baton = threading.Lock()
        self.baton.acquire()
        #: Buffered descriptors (appended by the thread, consumed by the driver).
        self.queue: List[tuple] = []
        self.qhead = 0
        #: Effect of the last issued op, applied at its post-issue key.
        self.pending: Optional[tuple] = None
        #: Value delivered to the thread at the next resume.
        self.value: Any = None
        #: True when the thread was just resumed: its first buffered step must
        #: run before any re-pick (horizon runs that step on the program
        #: thread inside the same atomic block as the delivering effect).
        self.prio = False
        self.watching: Set[Cell] = set()
        self.result: Any = None
        self.finish_time = 0.0
        self.ops: List[int] = [0] * NUM_CALLS
        # Spin-wait state machine: phase -1 = inactive; 0..n-1 next GET leg,
        # n..n+m-1 next FLUSH leg, n+m round end.  sp_vals None marks the
        # start of a round (snapshot pending).
        self.sp_cells: Optional[List[Cell]] = None
        self.sp_targets: Optional[List[int]] = None
        self.sp_pred: Optional[Callable[[Sequence[int]], bool]] = None
        self.sp_phase = -1
        self.sp_vals: Optional[List[int]] = None
        self.sp_snap: Optional[List[int]] = None
        self.sp_local = True
        self.sp_round_cost = 0.0


class VectorProcessContext(ProcessContext):
    """Per-rank handle bound to a :class:`VectorRuntime` run.

    Non-sync calls validate their arguments eagerly, append one descriptor
    and return; sync calls additionally enter the driver and block until the
    value is delivered at the op's canonical slot.
    """

    def __init__(self, runtime: "VectorRuntime", state: _VRank):
        self._rt = runtime
        self._state = state
        self.rank = state.rank
        self.nranks = runtime.num_ranks
        self.rng = rank_rng(runtime.seed, state.rank)
        #: The runtime's observer hook (None when no observer is installed).
        self.observer = runtime.observer

    # -- properties ------------------------------------------------------- #

    @property
    def machine(self) -> Machine:
        """The machine hierarchy this run executes on."""
        return self._rt.machine

    def now(self) -> float:
        st = self._state
        if st.qhead == len(st.queue) and st.pending is None:
            # Nothing outstanding: the clock is final, no sync needed.  This
            # also matches horizon exactly in lockstep mode, where now()
            # never touches the scheduler.
            return st.clock
        st.queue.append(_NOW_DESC)
        return self._rt._sync(st)

    # -- validation helpers ------------------------------------------------ #

    def _check_target(self, target: int) -> None:
        if not 0 <= target < self.nranks:
            raise ValueError(f"target rank {target} out of range 0..{self.nranks - 1}")

    def _check_offset(self, offset: int) -> None:
        ww = self._rt.window_words
        if not 0 <= offset < ww:
            raise IndexError(f"offset {offset} out of range 0..{ww - 1}")

    @staticmethod
    def _check_word(value: int) -> int:
        value = int(value)
        if not _INT64_MIN <= value <= _INT64_MAX:
            raise OverflowError(f"value {value} does not fit in a 64-bit window word")
        return value

    # -- Listing 1 -------------------------------------------------------- #

    def put(self, src_data: int, target: int, offset: int) -> None:
        self._check_target(target)
        self._check_offset(offset)
        st = self._state
        st.queue.append((_K_PUT, target, offset, self._check_word(src_data)))
        if self._rt._lockstep:
            self._rt._sync(st)

    def get(self, target: int, offset: int) -> int:
        self._check_target(target)
        self._check_offset(offset)
        st = self._state
        st.queue.append((_K_GET, target, offset))
        return self._rt._sync(st)

    def accumulate(self, operand: int, target: int, offset: int, op: AtomicOp = AtomicOp.SUM) -> None:
        self._check_target(target)
        self._check_offset(offset)
        st = self._state
        st.queue.append((_K_ACC, target, offset, self._check_word(operand), op))
        if self._rt._lockstep:
            self._rt._sync(st)

    def fao(self, operand: int, target: int, offset: int, op: AtomicOp) -> int:
        self._check_target(target)
        self._check_offset(offset)
        st = self._state
        st.queue.append((_K_FAO, target, offset, self._check_word(operand), op))
        return self._rt._sync(st)

    def cas(self, src_data: int, cmp_data: int, target: int, offset: int) -> int:
        self._check_target(target)
        self._check_offset(offset)
        st = self._state
        # The swapped-in value is range-checked at the effect (only when the
        # compare succeeds), exactly like Window.compare_and_swap.
        st.queue.append((_K_CAS, target, offset, int(src_data), int(cmp_data)))
        return self._rt._sync(st)

    def flush(self, target: int) -> None:
        self._check_target(target)
        st = self._state
        st.queue.append((_K_FLUSH, target))
        if self._rt._lockstep:
            self._rt._sync(st)

    # -- helpers ----------------------------------------------------------- #

    def spin_on_cells(self, cells: Sequence[Cell], predicate: Callable[[Sequence[int]], bool]) -> List[int]:
        rt = self._rt
        st = self._state
        norm_cells = [(int(t), int(o)) for t, o in cells]
        for t, o in norm_cells:
            self._check_target(t)
            self._check_offset(o)
        targets = sorted({t for t, _ in norm_cells})
        local = True
        round_cost = 0.0
        shard_of = rt._shard_of
        if shard_of is not None:
            my = st.shard
            rank = st.rank
            nranks = rt._nranks
            cost = rt._cost
            for t, _o in norm_cells:
                if shard_of[t] != my:
                    local = False
                    break
            if local:
                # One full poll round's exact minimum cost: the fence bound
                # for a locally parked waiter (its thread produces nothing
                # before the round that delivers completes).
                get_row = cost[_K_GET]
                flush_row = cost[_K_FLUSH]
                for t, _o in norm_cells:
                    round_cost += get_row[rank * nranks + t]
                for t in targets:
                    round_cost += flush_row[rank * nranks + t]
        st.queue.append((_K_SPIN, norm_cells, targets, predicate, local, round_cost))
        return rt._sync(st)

    def compute(self, duration_us: float) -> None:
        if duration_us < 0:
            raise ValueError("compute duration must be non-negative")
        st = self._state
        st.queue.append((_K_COMPUTE, float(duration_us)))
        if self._rt._lockstep:
            self._rt._sync(st)

    def barrier(self) -> None:
        st = self._state
        st.queue.append(_BARRIER_DESC)
        if self._rt._lockstep:
            self._rt._sync(st)


class VectorRuntime(RMARuntime):
    """Descriptor-batched discrete-event simulation of ``P`` RMA ranks."""

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
        shards: Any = "auto",
        fault_plan: Optional[Any] = None,
    ):
        self.machine = machine
        self.window_words = int(window_words)
        self.latency = latency if latency is not None else LatencyModel.cray_xc30()
        self.fabric = fabric
        if self.fabric is not None:
            self.fabric.validate_machine(machine)
        self.tracer = tracer
        self.perturbation = perturbation
        self.observer = observer
        #: Optional seeded crash schedule (see repro.fault.FaultPlan).  The
        #: batched fast path has no kill checkpoints, so non-null faulted
        #: runs delegate to the horizon scheduler (same canonical order, full
        #: fault support) — the hook-fallback path, like lockstep observers.
        self.fault_plan = (
            fault_plan if fault_plan is not None and not fault_plan.is_null else None
        )
        self.seed = int(seed)
        self.barrier_cost_us = float(barrier_cost_us)
        self.max_ops = max_ops
        self.stall_timeout_s = float(stall_timeout_s)
        #: Shard plan: "auto" (node-aligned, capped by usable CPUs and 8),
        #: an int, or 1/None to disable sharding.
        self.shards = shards
        if self.window_words < 1:
            raise ValueError("window_words must be >= 1")

        # Observed runs execute in lockstep (every ctx call syncs) so that
        # observer events keep the canonical cross-rank order — see module
        # docstring.
        self._lockstep = observer is not None

        self._run_guard = threading.Lock()
        self._run_active = False

        # Per-run state (installed atomically at the top of run()).
        self._mems: List[np.ndarray] = []
        self._states: List[_VRank] = []
        self._nranks = machine.num_processes
        self._port_free: List[float] = []
        self._link_free: Dict[object, float] = {}
        self._lock = threading.Lock()  # guards abort/stall transitions only
        self._watchers: Dict[Cell, Set[int]] = {}
        self._versions: Dict[Cell, int] = defaultdict(int)
        self._barrier_waiting: List[int] = []
        self._abort = False
        self._abort_exc: Optional[BaseException] = None
        self._total_ops = 0
        self._cost: List[List[float]] = []
        self._occ: List[List[float]] = []
        self._node_of: Tuple[int, ...] = ()
        self._perturb: Optional[List[RankPerturbation]] = None
        # Sharding state.
        self._nshards = 1
        self._heaps: List[List[Tuple[float, int]]] = [[]]
        self._shard_of: Optional[List[int]] = None
        self._shard_bounds: List[Tuple[int, int]] = []
        self._xf: Optional[np.ndarray] = None
        self._shard_xf: List[float] = []
        self._xf_dirty: List[bool] = []
        self._foreign_watch: Dict[Cell, int] = {}

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
        if self.fault_plan is not None:
            return self._run_faulted(program, window_init, program_args)
        with self._run_guard:
            if self._run_active:
                raise RuntimeError_(
                    "VectorRuntime.run() is not reentrant: a run is already active "
                    "on this instance; create one runtime per concurrent run"
                )
            self._run_active = True
        try:
            return self._execute(program, window_init, program_args, nranks)
        finally:
            with self._run_guard:
                self._run_active = False

    def _run_faulted(
        self,
        program: Callable[..., Any],
        window_init: Optional[WindowInit],
        program_args: Optional[Sequence[Any]],
    ) -> RunResult:
        """Execute a faulted run through the horizon scheduler.

        The descriptor-batched fast path has no kill checkpoints, so a
        non-null fault plan takes the hook-fallback path (like lockstep
        observers): the horizon scheduler replays the identical canonical
        order with full fault support, keeping faulted RunResults
        bit-identical across all three deterministic runtimes.
        """
        from repro.rma.sim_runtime import SimRuntime

        delegate = SimRuntime(
            self.machine,
            window_words=self.window_words,
            latency=self.latency,
            fabric=self.fabric,
            tracer=self.tracer,
            seed=self.seed,
            barrier_cost_us=self.barrier_cost_us,
            max_ops=self.max_ops,
            stall_timeout_s=self.stall_timeout_s,
            perturbation=self.perturbation,
            observer=self.observer,
            fault_plan=self.fault_plan,
        )
        result = delegate.run(program, window_init=window_init, program_args=program_args)
        # Keep window() inspection working after a delegated run.
        self.windows = delegate.windows
        return result

    # ------------------------------------------------------------------ #
    # Shard planning
    # ------------------------------------------------------------------ #

    def _plan_shards(self, nranks: int, node_of: Sequence[int]) -> int:
        """Install the shard partition; returns the number of shards.

        Shards are contiguous rank ranges aligned on node boundaries, so the
        dominant node-local traffic of the lock protocols stays shard-local.
        """
        spec = self.shards
        if self._lockstep or self.tracer is not None or self.fabric is not None:
            # Batched lookahead reorders *non-interacting* slots relative to
            # the canonical global order.  RunResults cannot tell — but a
            # tracer records issue order, fabric link state is shared across
            # shards at node (not shard) granularity, and observers see event
            # order.  Runs with any of these side channels stay single-shard:
            # mode A alone replays the canonical order exactly.
            spec = 1
        if spec is None or spec == 1 or nranks < 2:
            ns = 1
        else:
            # Contiguous runs of equal node id (ranks are laid out
            # node-major by the topology builders).
            ends: List[int] = []
            start = 0
            for r in range(1, nranks):
                if node_of[r] != node_of[start]:
                    ends.append(r)
                    start = r
            ends.append(nranks)
            max_shards = len(ends)
            if spec == "auto":
                # Lookahead batching only pays when shards make progress
                # concurrently; on a small host extra shards are pure
                # bookkeeping overhead, so "auto" never exceeds the CPUs
                # this process may actually use.
                ns = min(8, max_shards, _usable_cpus())
            else:
                ns = max(1, min(int(spec), max_shards))
            if ns > 1:
                cuts = [0]
                for i in range(1, ns):
                    ideal = i * nranks / ns
                    best = -1
                    for e in ends:
                        if e <= cuts[-1] or e >= nranks:
                            continue
                        if best < 0 or abs(e - ideal) < abs(best - ideal):
                            best = e
                    if best < 0:
                        break
                    cuts.append(best)
                cuts.append(nranks)
                ns = len(cuts) - 1
        if ns <= 1:
            self._nshards = 1
            self._shard_of = None
            self._shard_bounds = [(0, nranks)]
            return 1
        shard_of = [0] * nranks
        bounds: List[Tuple[int, int]] = []
        for si in range(ns):
            lo, hi = cuts[si], cuts[si + 1]
            bounds.append((lo, hi))
            for r in range(lo, hi):
                shard_of[r] = si
        self._nshards = ns
        self._shard_of = shard_of
        self._shard_bounds = bounds
        return ns

    # ------------------------------------------------------------------ #
    # Run setup / teardown
    # ------------------------------------------------------------------ #

    def _execute(
        self,
        program: Callable[..., Any],
        window_init: Optional[WindowInit],
        program_args: Optional[Sequence[Any]],
        nranks: int,
    ) -> RunResult:
        windows = allocate_windows(nranks, self.window_words, window_init)
        table = cost_table(self.latency, self.machine)
        perturbation = self.perturbation
        perturb_states: Optional[List[RankPerturbation]] = None
        if perturbation is not None:
            table = table.scaled_by_origin(perturbation.rank_multipliers(nranks))
            perturb_states = perturbation.rank_states(nranks)
        states = [_VRank(r) for r in range(nranks)]

        self.windows = windows
        self._mems = [w._mem for w in windows]
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
        self._versions = defaultdict(int)
        self._barrier_waiting = []
        self._abort = False
        self._abort_exc = None
        self._total_ops = 0
        ns = self._plan_shards(nranks, table.node_of)
        shard_of = self._shard_of
        for st in states:
            st.shard = shard_of[st.rank] if shard_of is not None else 0
        # All clocks are zero; ties break by rank, so rank 0 starts and the
        # rest wait in their shard heaps.
        heaps: List[List[Tuple[float, int]]] = [[] for _ in range(ns)]
        for r in range(1, nranks):
            heaps[states[r].shard].append((0.0, r))
        for h in heaps:
            heapify(h)
        self._heaps = heaps
        self._xf = np.zeros(nranks, dtype=np.float64) if ns > 1 else None
        self._shard_xf = [0.0] * ns
        self._xf_dirty = [True] * ns
        self._foreign_watch = {}
        # One-shot bundle of the driver's hot references: ``_drive_single``
        # runs once per sync, and unpacking a tuple is far cheaper than
        # fifteen attribute loads.  The spinner-wave batching reorders
        # nothing, but it skips the per-leg tracer/fabric/perturbation
        # hooks, so it only switches on for plain unsharded runs.
        self._hot = (
            states,
            heaps[0],
            self._mems,
            self._versions,
            self._cost,
            self._occ,
            self._port_free,
            nranks,
            self.fabric,
            self.tracer,
            perturb_states,
            self.max_ops,
            self.observer,
            self._watchers,
            ns == 1
            and self.tracer is None
            and self.fabric is None
            and perturb_states is None
            and self.observer is None,
        )

        threads = []
        for rank in range(nranks):
            arg = program_args[rank] if program_args is not None else None
            t = threading.Thread(
                target=self._rank_main,
                args=(rank, program, arg, program_args is not None),
                name=f"vec-rank-{rank}",
                daemon=True,
            )
            threads.append(t)
        gc_was_enabled = gc.isenabled()
        if gc_was_enabled:
            gc.disable()
        run_done = threading.Event()
        watchdog = threading.Thread(
            target=self._watchdog_main, args=(run_done,), name="vec-watchdog", daemon=True
        )
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
            if gc_was_enabled:
                gc.enable()
        watchdog.join()

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
    # Rank thread body
    # ------------------------------------------------------------------ #

    def _rank_main(self, rank: int, program: Callable[..., Any], arg: Any, has_arg: bool) -> None:
        state = self._states[rank]
        ctx = VectorProcessContext(self, state)
        try:
            self._wait_for_turn(state)
            state.result = program(ctx, arg) if has_arg else program(ctx)
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

    def _finish_rank(self, state: _VRank) -> None:
        prio = state.prio
        state.prio = False
        with self._lock:
            if self._abort:
                state.status = _FINISHED
                state.finish_time = state.clock
                return
        # Trailing buffered ops (and the END marker) still need their slots;
        # this thread owns the baton, so it drives until it can hand off.
        state.queue.append(_END_DESC)
        try:
            if self._nshards == 1:
                if prio:
                    self._drive_single(None, state)
                else:
                    heappush(self._heaps[0], (state.clock, state.rank))
                    self._drive_single(None, None)
            else:
                heappush(self._heaps[state.shard], (state.clock, state.rank))
                self._recompute_fence(state)
                self._drive(None)
        except _Aborted:
            pass

    # ------------------------------------------------------------------ #
    # Sync entry (called from ctx methods on the rank's own thread)
    # ------------------------------------------------------------------ #

    def _sync(self, st: _VRank) -> Any:
        if self._nshards == 1:
            if st.prio:
                # The thread was just resumed by a delivering effect: its
                # first buffered step belongs to the same atomic block and
                # must run before any re-pick (horizon executes it on the
                # program thread before the next scheduling decision), so it
                # enters the driver as the forced current rank, unpushed.
                st.prio = False
                self._drive_single(st, st)
            else:
                heappush(self._heaps[0], (st.clock, st.rank))
                self._drive_single(st, None)
        else:
            if st.prio:
                st.prio = False
                code = self._run_rank(st, -_INF, -1, False)
                if code == _RUN_CROSSED:
                    heappush(self._heaps[st.shard], (st.clock, st.rank))
            else:
                heappush(self._heaps[st.shard], (st.clock, st.rank))
            self._recompute_fence(st)
            self._drive(st)
        value = st.value
        st.value = None
        return value

    # ------------------------------------------------------------------ #
    # Driver
    # ------------------------------------------------------------------ #
    #
    # Exactly one thread at a time executes driver code (it "owns the
    # baton"); every other thread is blocked in _wait_for_turn.  All driver
    # structures are baton-protected; self._lock only serializes abort/stall
    # transitions initiated by waiting threads.

    def _drive_single(self, owner: Optional[_VRank], forced: Optional[_VRank]) -> None:
        """Fused pick-and-process loop for unsharded runs (the hot path).

        One iteration executes one *slot* of the current rank: apply its
        pending effect, then take one step (issue the next descriptor or
        advance its spin machine).  After every clock advance the rank's key
        is compared against the heap top; a cross swaps the current rank
        with one ``heapreplace``.  Keeping pick, dispatch, issue and spin
        legs in a single frame (locals hot, no per-slot call prologue) is
        worth ~2x over the generic ``_drive``/``_run_rank`` pair, which the
        sharded mode still uses.

        ``owner`` is the rank whose sync value this call must produce
        (``None`` when draining at rank finish).  ``forced`` optionally
        names a rank whose first slot runs before any pick — the resumed
        thread's first buffered step, part of the delivering effect's atomic
        block.  Returns once the owner's value is delivered, or after handing
        the baton to another rank's thread (the driver role moves with it).
        """
        (
            states,
            h,
            mems,
            versions,
            cost,
            occ,
            port_free,
            nranks,
            fabric,
            tracer,
            perturb,
            max_ops,
            observer,
            watchers,
            scan_ok,
        ) = self._hot
        cost1 = cost[1]
        cost5 = cost[5]
        occ1 = occ[1]
        occ5 = occ[5]

        s = forced
        rank = s.rank if s is not None else -1
        queue = s.queue if s is not None else ()
        try:
            while True:
                if s is None:
                    # Pick the validated global minimum.  When the front of
                    # the key space is a spinner slot (wake floods make long
                    # runs of these), it is processed inline right here —
                    # a mirror of the spin block below minus the generic
                    # dispatch, hook checks and crossing machinery; one slot
                    # costs one heapreplace (or nothing, for a park).
                    if self._abort:
                        if owner is None:
                            return
                        raise _Aborted()
                    r = -1
                    while h:
                        c, r = h[0]
                        cand = states[r]
                        if cand.status != 0 or cand.clock != c:
                            heappop(h)  # stale entry
                            continue
                        p = cand.sp_phase
                        if not scan_ok or p < 0:
                            break  # a non-spinner slot: the generic path
                        pend = cand.pending
                        if pend is not None:
                            # Mid-round spinners only have poll reads pending.
                            cand.sp_vals.append(int(mems[pend[1]][pend[2]]))
                            cand.pending = None
                        cells = cand.sp_cells
                        n = len(cells)
                        if p < n:
                            # GET leg: snapshot on round start, send a poll.
                            if cand.sp_vals is None:
                                cand.sp_snap = [versions[c2] for c2 in cells]
                                cand.sp_vals = []
                            cell = cells[p]
                            tg = cell[0]
                            idx = r * nranks + tg
                            total = self._total_ops + 1
                            self._total_ops = total
                            if max_ops is not None and total > max_ops:
                                raise RuntimeError_(
                                    f"simulation exceeded max_ops={max_ops}; "
                                    "possible livelock"
                                )
                            cand.ops[1] += 1
                            start = c
                            o = occ1[idx]
                            if o > 0.0:
                                pf = port_free[tg]
                                if pf > start:
                                    start = pf
                                port_free[tg] = start + o
                            cand.sp_phase = p + 1
                            cand.pending = (_K_SPINREAD, tg, cell[1])
                            eff = start + cost1[idx]
                            cand.clock = eff
                            heapreplace(h, (eff, r))
                            continue
                        targets = cand.sp_targets
                        if p < n + len(targets):
                            # FLUSH leg.
                            t2 = targets[p - n]
                            idx = r * nranks + t2
                            total = self._total_ops + 1
                            self._total_ops = total
                            if max_ops is not None and total > max_ops:
                                raise RuntimeError_(
                                    f"simulation exceeded max_ops={max_ops}; "
                                    "possible livelock"
                                )
                            cand.ops[5] += 1
                            start = c
                            o = occ5[idx]
                            if o > 0.0:
                                pf = port_free[t2]
                                if pf > start:
                                    start = pf
                                port_free[t2] = start + o
                            eff = start + cost5[idx]
                            cand.clock = eff
                            cand.sp_phase = p + 1
                            heapreplace(h, (eff, r))
                            continue
                        # Round end: deliver, re-poll, or park.
                        vals = cand.sp_vals
                        if not cand.sp_pred(vals):
                            heappop(h)
                            cand.sp_phase = -1
                            cand.sp_cells = None
                            cand.sp_targets = None
                            cand.sp_pred = None
                            cand.sp_vals = None
                            cand.sp_snap = None
                            cand.value = vals
                            cand.prio = True
                            if cand is owner:
                                return
                            cand.baton.release()
                            if owner is not None:
                                self._wait_for_turn(owner)
                            return
                        if [versions[c2] for c2 in cells] != cand.sp_snap:
                            # A write raced the poll: re-read.  Round end and
                            # the next GET issue form one atomic block (the
                            # spin block's ``continue``); the key is
                            # unchanged, so looping straight back to this
                            # same heap entry reproduces that.
                            cand.sp_phase = 0
                            cand.sp_vals = None
                            continue
                        heappop(h)
                        for c2 in cells:
                            w = watchers.get(c2)
                            if w is None:
                                watchers[c2] = {r}
                            else:
                                w.add(r)
                        cand.watching.update(cells)
                        cand.status = _PARKED
                        cand.sp_phase = 0
                        cand.sp_vals = None
                    if not h:
                        self._no_runnable(owner)
                        return
                    heappop(h)
                    s = states[r]
                    rank = r
                    queue = s.queue
                if self._abort:
                    raise _Aborted()

                # ---- pending effect ---------------------------------- #
                pend = s.pending
                if pend is not None:
                    s.pending = None
                    k = pend[0]
                    tg = pend[1]
                    if k == _K_SPINREAD:
                        s.sp_vals.append(int(mems[tg][pend[2]]))
                    elif k == 0:  # PUT
                        mems[tg][pend[2]] = pend[3]
                        if watchers:
                            self._post_write(s, tg, pend[2])
                        else:
                            versions[(tg, pend[2])] += 1
                    elif k == 1:  # GET: deliver
                        s.value = int(mems[tg][pend[2]])
                        s.prio = True
                        if s is owner:
                            return
                        s.baton.release()
                        if owner is not None:
                            self._wait_for_turn(owner)
                        return
                    else:  # ACC / FAO / CAS
                        off = pend[2]
                        arr = mems[tg]
                        previous = int(arr[off])
                        if k == 4:  # CAS
                            if previous == pend[4]:
                                value = pend[3]
                                if _INT64_MIN <= value <= _INT64_MAX:
                                    arr[off] = value
                                else:
                                    raise OverflowError(
                                        f"value {value} does not fit in a 64-bit window word"
                                    )
                        elif pend[4] is _SUM:
                            value = previous + pend[3]
                            if not _INT64_MIN <= value <= _INT64_MAX:
                                raise OverflowError(
                                    f"value {value} does not fit in a 64-bit window word"
                                )
                            arr[off] = value
                        elif pend[4] is _REPLACE:
                            arr[off] = pend[3]
                        else:
                            raise ValueError(f"unsupported atomic op {pend[4]!r}")
                        if watchers:
                            self._post_write(s, tg, off)
                        else:
                            versions[(tg, off)] += 1
                        if k != 2:  # FAO / CAS: deliver
                            if observer is not None:
                                observer.on_rmw(rank, _FAO_CALL if k == 3 else _CAS_CALL)
                            s.value = previous
                            s.prio = True
                            if s is owner:
                                return
                            s.baton.release()
                            if owner is not None:
                                self._wait_for_turn(owner)
                            return

                # ---- one step ---------------------------------------- #
                if s.sp_phase >= 0:
                    cells = s.sp_cells
                    n = len(cells)
                    if s.sp_vals is None:
                        s.sp_snap = [versions[c2] for c2 in cells]
                        s.sp_vals = []
                    p = s.sp_phase
                    if p < n:
                        tg, off = cells[p]
                        s.sp_phase = p + 1
                        s.pending = (_K_SPINREAD, tg, off)
                        ci = 1  # GET leg
                    else:
                        targets = s.sp_targets
                        if p < n + len(targets):
                            tg = targets[p - n]
                            s.sp_phase = p + 1
                            ci = 5  # FLUSH leg
                        else:
                            # Round end: deliver, re-poll, or park.
                            vals = s.sp_vals
                            if not s.sp_pred(vals):
                                s.sp_phase = -1
                                s.sp_cells = None
                                s.sp_targets = None
                                s.sp_pred = None
                                s.sp_vals = None
                                s.sp_snap = None
                                s.value = vals
                                s.prio = True
                                if s is owner:
                                    return
                                s.baton.release()
                                if owner is not None:
                                    self._wait_for_turn(owner)
                                return
                            if [versions[c2] for c2 in cells] != s.sp_snap:
                                s.sp_phase = 0
                                s.sp_vals = None
                                continue  # a write raced the poll; re-read now
                            for c2 in cells:
                                watchers.setdefault(c2, set()).add(rank)
                            s.watching.update(cells)
                            s.status = _PARKED
                            s.sp_phase = 0
                            s.sp_vals = None
                            s = None
                            continue
                    # Issue the leg (ci, tg).
                    s.ops[ci] += 1
                    total = self._total_ops + 1
                    self._total_ops = total
                    if max_ops is not None and total > max_ops:
                        raise RuntimeError_(
                            f"simulation exceeded max_ops={max_ops}; possible livelock"
                        )
                    idx = rank * nranks + tg
                    c = cost[ci][idx]
                    if perturb is not None:
                        c = perturb[rank].perturb(c)
                    start = s.clock
                    o = occ[ci][idx]
                    if o > 0.0:
                        pf = port_free[tg]
                        if pf > start:
                            start = pf
                        port_free[tg] = start + o
                    if fabric is not None and ci != 5:
                        node_of = self._node_of
                        sn = node_of[rank]
                        dn = node_of[tg]
                        if sn != dn:
                            arrival = fabric.traverse(self._link_free, sn, dn, start)
                            c += arrival - start
                    if tracer is not None:
                        tracer.record(rank, CALLS[ci], tg, start, c)
                    s.clock = start + c
                elif s.qhead < len(queue):
                    d = queue[s.qhead]
                    k = d[0]
                    if k <= 5:  # RMA op: issue
                        tg = d[1]
                        s.qhead += 1
                        s.ops[k] += 1
                        total = self._total_ops + 1
                        self._total_ops = total
                        if max_ops is not None and total > max_ops:
                            raise RuntimeError_(
                                f"simulation exceeded max_ops={max_ops}; possible livelock"
                            )
                        idx = rank * nranks + tg
                        c = cost[k][idx]
                        if perturb is not None:
                            c = perturb[rank].perturb(c)
                        start = s.clock
                        o = occ[k][idx]
                        if o > 0.0:
                            pf = port_free[tg]
                            if pf > start:
                                start = pf
                            port_free[tg] = start + o
                        if fabric is not None and k != 5:
                            node_of = self._node_of
                            sn = node_of[rank]
                            dn = node_of[tg]
                            if sn != dn:
                                arrival = fabric.traverse(self._link_free, sn, dn, start)
                                c += arrival - start
                        if tracer is not None:
                            tracer.record(rank, CALLS[k], tg, start, c)
                        s.clock = start + c
                        if k != 5:
                            s.pending = d  # the descriptor doubles as the effect
                    elif k == _K_COMPUTE:
                        s.qhead += 1
                        s.clock += d[1]
                    elif k == _K_NOW:
                        s.qhead += 1
                        s.value = s.clock
                        s.prio = True
                        if s is owner:
                            return
                        s.baton.release()
                        if owner is not None:
                            self._wait_for_turn(owner)
                        return
                    elif k == _K_SPIN:
                        s.qhead += 1
                        s.sp_cells = d[1]
                        s.sp_targets = d[2]
                        s.sp_pred = d[3]
                        s.sp_local = d[4]
                        s.sp_round_cost = d[5]
                        s.sp_phase = 0
                        s.sp_vals = None
                        continue  # first leg issues in this same block
                    elif k == _K_BARRIER:
                        s.qhead += 1
                        waiting = self._barrier_waiting
                        waiting.append(rank)
                        if len(waiting) < nranks:
                            s.status = _BARRIER
                            s = None
                            continue
                        release = max(states[r2].clock for r2 in waiting)
                        release += self.barrier_cost_us
                        for r2 in waiting:
                            ws = states[r2]
                            ws.clock = release
                            ws.status = 0
                            heappush(h, (release, r2))
                        self._barrier_waiting = []
                        s = None  # re-pick with fresh keys (ties break by rank)
                        continue
                    else:  # _K_END
                        s.qhead += 1
                        s.status = _FINISHED
                        s.finish_time = s.clock
                        s = None
                        continue
                else:
                    # Queue drained with nothing pending: the thread produces.
                    s.prio = True
                    if s is owner:
                        return
                    s.baton.release()
                    if owner is not None:
                        self._wait_for_turn(owner)
                    return

                # ---- key check vs heap top --------------------------- #
                c = s.clock
                while h:
                    top = h[0]
                    tc = top[0]
                    if c < tc or (c == tc and rank < top[1]):
                        break
                    tr = top[1]
                    cand = states[tr]
                    if cand.status == 0 and cand.clock == tc:
                        if scan_ok and cand.sp_phase >= 0:
                            # Crossing into a spinner wave: park the current
                            # rank in the heap and let the batch loop run it.
                            heappush(h, (c, rank))
                            s = None
                            break
                        heapreplace(h, (c, rank))  # swap in one sift
                        s = cand
                        rank = tr
                        queue = cand.queue
                        break
                    heappop(h)  # stale entry
        except _Aborted:
            raise
        except BaseException as exc:  # noqa: BLE001 - reroute driver failures
            # Effects/predicates raising on the driving thread must not
            # unwind through a foreign rank's program frames; record the
            # failure and unwind with the internal abort signal instead
            # (run() re-raises the original exception).
            with self._lock:
                if self._abort_exc is None:
                    self._abort_exc = exc
                self._abort = True
                self._wake_all_locked()
            raise _Aborted() from None

    def _drive(self, owner: Optional[_VRank]) -> None:
        heaps = self._heaps
        states = self._states
        ns = self._nshards
        single = ns == 1
        while True:
            if self._abort:
                if owner is None:
                    return
                raise _Aborted()
            # Global minimum over validated shard-heap tops; also track the
            # second-best key, the limit of the picked rank's batch run.
            best_c = _INF
            best_r = -1
            best_i = -1
            sec_c = _INF
            sec_r = -1
            for i in range(ns):
                h = heaps[i]
                while h:
                    c, r = h[0]
                    cand = states[r]
                    if cand.status == _READY and cand.clock == c:
                        break
                    heappop(h)  # stale entry
                if h:
                    c, r = h[0]
                    if c < best_c or (c == best_c and r < best_r):
                        sec_c = best_c
                        sec_r = best_r
                        best_c = c
                        best_r = r
                        best_i = i
                    elif c < sec_c or (c == sec_c and r < sec_r):
                        sec_c = c
                        sec_r = r
            if best_i < 0:
                self._no_runnable(owner)
                return
            h = heaps[best_i]
            heappop(h)
            # The picked shard's next key also bounds the batch.
            while h:
                c, r = h[0]
                cand = states[r]
                if cand.status == _READY and cand.clock == c:
                    if c < sec_c or (c == sec_c and r < sec_r):
                        sec_c = c
                        sec_r = r
                    break
                heappop(h)
            s = states[best_r]
            # Mode A: while s is the global minimum, everything (including
            # interacting slots) may run.
            code = self._run_rank(s, sec_c, sec_r, False)
            if code == _RUN_CROSSED and not single:
                # Mode B: extend with shard-local slots below every other
                # shard's fence and below the own shard's next key.
                fence = self._fence_excluding(s.shard)
                c = s.clock
                if c < fence:
                    oc, orr = self._peek_shard(s.shard)
                    if fence < oc:
                        lim_c, lim_r = fence, -1
                    else:
                        lim_c, lim_r = oc, orr
                    if c < lim_c or (c == lim_c and s.rank < lim_r):
                        code = self._run_rank(s, lim_c, lim_r, True)
            if code == _RUN_CROSSED or code == _RUN_INTERACT:
                heappush(heaps[s.shard], (s.clock, s.rank))
                continue
            if code == _RUN_BLOCKED:
                continue
            # _RUN_RESUME: hand the baton to s's thread.
            if s is owner:
                return
            s.baton.release()
            if owner is not None:
                self._wait_for_turn(owner)
            return

    def _peek_shard(self, si: int) -> Tuple[float, int]:
        """Smallest valid key of shard ``si``'s heap (or the sentinel)."""
        h = self._heaps[si]
        states = self._states
        while h:
            c, r = h[0]
            cand = states[r]
            if cand.status == _READY and cand.clock == c:
                return (c, r)
            heappop(h)
        return _INF_KEY

    def _fence_excluding(self, si: int) -> float:
        """Minimum cross-shard fence over every shard except ``si``.

        Per-shard minima are cached and recomputed lazily with one
        vectorized reduction over the per-rank fence array.
        """
        sxf = self._shard_xf
        dirty = self._xf_dirty
        xf = self._xf
        bounds = self._shard_bounds
        best = _INF
        for j in range(self._nshards):
            if j == si:
                continue
            if dirty[j]:
                lo, hi = bounds[j]
                sxf[j] = float(xf[lo:hi].min())
                dirty[j] = False
            v = sxf[j]
            if v < best:
                best = v
        return best

    # ------------------------------------------------------------------ #
    # Cross-shard fences
    # ------------------------------------------------------------------ #

    def _recompute_fence(self, st: _VRank) -> None:
        """Raise ``st``'s fence to a fresh lower bound on its next
        cross-shard interaction, scanning the buffered descriptors with
        exact (pre-perturbation) costs.  Fences are monotone: perturbation
        only inflates costs and ports/fabric only delay, so the scan is a
        sound lower bound; monotonicity is what lets a shard trust a fence
        it read before batching ahead.
        """
        shard_of = self._shard_of
        my = st.shard
        rank = st.rank
        t = st.clock
        bound = None
        pend = st.pending
        if pend is not None:
            k = pend[0]
            tg = pend[1]
            if shard_of[tg] != my or (
                k != _K_GET
                and k != _K_SPINREAD
                and self._foreign_watch.get((tg, pend[2]))
            ):
                bound = t
        if bound is None and st.sp_phase >= 0:
            bound = t  # mid-spin at a sync boundary: stay conservative
        if bound is None:
            cost = self._cost
            occ = self._occ
            nranks = self._nranks
            fw = self._foreign_watch
            q = st.queue
            for i in range(st.qhead, len(q)):
                d = q[i]
                k = d[0]
                if k <= _K_FLUSH:
                    tg = d[1]
                    idx = rank * nranks + tg
                    if shard_of[tg] != my:
                        if k == _K_FLUSH and occ[k][idx] == 0.0 and self.fabric is None:
                            t += cost[k][idx]
                            continue
                        bound = t
                        break
                    if k != _K_GET and k != _K_FLUSH and fw.get((tg, d[2])):
                        bound = t
                        break
                    t += cost[k][idx]
                elif k == _K_COMPUTE:
                    t += d[1]
                elif k == _K_NOW:
                    bound = t  # thread resumes (and may produce) at t
                    break
                elif k == _K_SPIN:
                    if not d[4]:
                        bound = t
                        break
                    t += d[5]
                elif k == _K_BARRIER:
                    bound = t
                    break
                else:  # _K_END
                    t = _INF
                    break
            if bound is None:
                bound = t
        xf = self._xf
        if bound > xf[rank]:
            xf[rank] = bound
            self._xf_dirty[my] = True

    # ------------------------------------------------------------------ #
    # Slot processor
    # ------------------------------------------------------------------ #

    def _run_rank(self, s: _VRank, lim_c: float, lim_r: int, local_only: bool) -> int:
        """Run ``s``'s slots while its key stays below ``(lim_c, lim_r)``.

        One slot = [apply the pending effect] + [take one step: issue the
        next descriptor / advance the spin machine], fused with no limit
        check in between — the effect of op N and the issue of op N+1 are
        one atomic block under the scheduling contract.
        """
        mems = self._mems
        versions = self._versions
        states = self._states
        heaps = self._heaps
        cost = self._cost
        occ = self._occ
        port_free = self._port_free
        nranks = self._nranks
        fabric = self.fabric
        tracer = self.tracer
        perturb = self._perturb
        max_ops = self.max_ops
        observer = self.observer
        shard_of = self._shard_of
        fw = self._foreign_watch
        my = s.shard
        rank = s.rank
        queue = s.queue
        qlen = len(queue)
        try:
            while True:
                # ---- pending effect -------------------------------------- #
                pend = s.pending
                if pend is not None:
                    k = pend[0]
                    tg = pend[1]
                    if local_only and (
                        shard_of[tg] != my
                        or (k != _K_GET and k != _K_SPINREAD and fw.get((tg, pend[2])))
                    ):
                        return _RUN_INTERACT
                    s.pending = None
                    if k == _K_SPINREAD:
                        s.sp_vals.append(int(mems[tg][pend[2]]))
                    elif k == _K_PUT:
                        mems[tg][pend[2]] = pend[3]
                        key = self._post_write(s, tg, pend[2])
                        if key is not None and (
                            key[0] < lim_c or (key[0] == lim_c and key[1] < lim_r)
                        ):
                            lim_c, lim_r = key
                    elif k == _K_GET:
                        s.value = int(mems[tg][pend[2]])
                        s.prio = True
                        return _RUN_RESUME
                    elif k == _K_ACC:
                        off = pend[2]
                        arr = mems[tg]
                        previous = int(arr[off])
                        if pend[4] is _SUM:
                            value = previous + pend[3]
                            if not _INT64_MIN <= value <= _INT64_MAX:
                                raise OverflowError(
                                    f"value {value} does not fit in a 64-bit window word"
                                )
                            arr[off] = value
                        elif pend[4] is _REPLACE:
                            arr[off] = pend[3]
                        else:
                            raise ValueError(f"unsupported atomic op {pend[4]!r}")
                        key = self._post_write(s, tg, off)
                        if key is not None and (
                            key[0] < lim_c or (key[0] == lim_c and key[1] < lim_r)
                        ):
                            lim_c, lim_r = key
                    elif k == _K_FAO:
                        off = pend[2]
                        arr = mems[tg]
                        previous = int(arr[off])
                        if pend[4] is _SUM:
                            value = previous + pend[3]
                            if not _INT64_MIN <= value <= _INT64_MAX:
                                raise OverflowError(
                                    f"value {value} does not fit in a 64-bit window word"
                                )
                            arr[off] = value
                        elif pend[4] is _REPLACE:
                            arr[off] = pend[3]
                        else:
                            raise ValueError(f"unsupported atomic op {pend[4]!r}")
                        key = self._post_write(s, tg, off)
                        if key is not None and (
                            key[0] < lim_c or (key[0] == lim_c and key[1] < lim_r)
                        ):
                            lim_c, lim_r = key
                        if observer is not None:
                            observer.on_rmw(rank, _FAO_CALL)
                        s.value = previous
                        s.prio = True
                        return _RUN_RESUME
                    else:  # _K_CAS
                        off = pend[2]
                        arr = mems[tg]
                        previous = int(arr[off])
                        if previous == pend[4]:
                            value = pend[3]
                            if _INT64_MIN <= value <= _INT64_MAX:
                                arr[off] = value
                            else:
                                raise OverflowError(
                                    f"value {value} does not fit in a 64-bit window word"
                                )
                        key = self._post_write(s, tg, off)
                        if key is not None and (
                            key[0] < lim_c or (key[0] == lim_c and key[1] < lim_r)
                        ):
                            lim_c, lim_r = key
                        if observer is not None:
                            observer.on_rmw(rank, _CAS_CALL)
                        s.value = previous
                        s.prio = True
                        return _RUN_RESUME

                # ---- one step -------------------------------------------- #
                if s.sp_phase >= 0:
                    # Spin-wait state machine: one leg per slot; round
                    # transitions (snapshot, predicate, park) are free.
                    if local_only and not s.sp_local:
                        return _RUN_INTERACT
                    cells = s.sp_cells
                    n = len(cells)
                    if s.sp_vals is None:
                        s.sp_snap = [versions[c] for c in cells]
                        s.sp_vals = []
                    p = s.sp_phase
                    if p < n:
                        tg, off = cells[p]
                        s.sp_phase = p + 1
                        s.pending = (_K_SPINREAD, tg, off)
                        ci = _K_GET
                    else:
                        targets = s.sp_targets
                        if p < n + len(targets):
                            tg = targets[p - n]
                            s.sp_phase = p + 1
                            ci = _K_FLUSH
                        else:
                            # Round end: deliver, re-poll, or park.
                            vals = s.sp_vals
                            if not s.sp_pred(vals):
                                s.sp_phase = -1
                                s.sp_cells = None
                                s.sp_targets = None
                                s.sp_pred = None
                                s.sp_vals = None
                                s.sp_snap = None
                                s.value = vals
                                s.prio = True
                                return _RUN_RESUME
                            if [versions[c] for c in cells] != s.sp_snap:
                                s.sp_phase = 0
                                s.sp_vals = None
                                continue  # a write raced the poll; re-read now
                            watchers = self._watchers
                            for c in cells:
                                watchers.setdefault(c, set()).add(rank)
                            s.watching.update(cells)
                            s.status = _PARKED
                            s.sp_phase = 0
                            s.sp_vals = None
                            if shard_of is not None:
                                for c in cells:
                                    if shard_of[c[0]] != my:
                                        fw[c] = fw.get(c, 0) + 1
                                if s.sp_local:
                                    xf = self._xf
                                    bound = s.clock + s.sp_round_cost
                                    if bound > xf[rank]:
                                        xf[rank] = bound
                                        self._xf_dirty[my] = True
                            return _RUN_BLOCKED
                    # Issue the leg (shared op body, ci selected above).
                    if self._abort:
                        raise _Aborted()
                    s.ops[ci] += 1
                    total = self._total_ops + 1
                    self._total_ops = total
                    if max_ops is not None and total > max_ops:
                        raise RuntimeError_(
                            f"simulation exceeded max_ops={max_ops}; possible livelock"
                        )
                    idx = rank * nranks + tg
                    c = cost[ci][idx]
                    if perturb is not None:
                        c = perturb[rank].perturb(c)
                    start = s.clock
                    o = occ[ci][idx]
                    if o > 0.0:
                        pf = port_free[tg]
                        if pf > start:
                            start = pf
                        port_free[tg] = start + o
                    if fabric is not None and ci != _K_FLUSH:
                        node_of = self._node_of
                        sn = node_of[rank]
                        dn = node_of[tg]
                        if sn != dn:
                            arrival = fabric.traverse(self._link_free, sn, dn, start)
                            c += arrival - start
                    if tracer is not None:
                        tracer.record(rank, CALLS[ci], tg, start, c)
                    s.clock = start + c
                elif s.qhead < qlen:
                    d = queue[s.qhead]
                    k = d[0]
                    if k <= _K_FLUSH:
                        tg = d[1]
                        if local_only and shard_of[tg] != my:
                            # A cross-shard *issue* touches the target's
                            # port/fabric state; costless flushes stay local.
                            if k != _K_FLUSH or occ[k][rank * nranks + tg] != 0.0 or fabric is not None:
                                return _RUN_INTERACT
                        s.qhead += 1
                        if self._abort:
                            raise _Aborted()
                        s.ops[k] += 1
                        total = self._total_ops + 1
                        self._total_ops = total
                        if max_ops is not None and total > max_ops:
                            raise RuntimeError_(
                                f"simulation exceeded max_ops={max_ops}; possible livelock"
                            )
                        idx = rank * nranks + tg
                        c = cost[k][idx]
                        if perturb is not None:
                            c = perturb[rank].perturb(c)
                        start = s.clock
                        o = occ[k][idx]
                        if o > 0.0:
                            pf = port_free[tg]
                            if pf > start:
                                start = pf
                            port_free[tg] = start + o
                        if fabric is not None and k != _K_FLUSH:
                            node_of = self._node_of
                            sn = node_of[rank]
                            dn = node_of[tg]
                            if sn != dn:
                                arrival = fabric.traverse(self._link_free, sn, dn, start)
                                c += arrival - start
                        if tracer is not None:
                            tracer.record(rank, CALLS[k], tg, start, c)
                        s.clock = start + c
                        if k != _K_FLUSH:
                            s.pending = d  # the descriptor doubles as the effect
                    elif k == _K_COMPUTE:
                        s.qhead += 1
                        if self._abort:
                            raise _Aborted()
                        s.clock += d[1]
                    elif k == _K_NOW:
                        s.qhead += 1
                        s.value = s.clock
                        s.prio = True
                        return _RUN_RESUME
                    elif k == _K_SPIN:
                        if local_only and not d[4]:
                            return _RUN_INTERACT
                        s.qhead += 1
                        s.sp_cells = d[1]
                        s.sp_targets = d[2]
                        s.sp_pred = d[3]
                        s.sp_local = d[4]
                        s.sp_round_cost = d[5]
                        s.sp_phase = 0
                        s.sp_vals = None
                        continue  # first leg issues in this same block
                    elif k == _K_BARRIER:
                        if local_only:
                            return _RUN_INTERACT
                        s.qhead += 1
                        if self._abort:
                            raise _Aborted()
                        waiting = self._barrier_waiting
                        waiting.append(rank)
                        if len(waiting) < nranks:
                            s.status = _BARRIER
                            return _RUN_BLOCKED
                        release = max(states[r].clock for r in waiting)
                        release += self.barrier_cost_us
                        for r in waiting:
                            ws = states[r]
                            ws.clock = release
                            ws.status = _READY
                            if r != rank:
                                heappush(heaps[ws.shard], (release, r))
                        self._barrier_waiting = []
                        if shard_of is not None:
                            for r in waiting:
                                self._recompute_fence(states[r])
                        # Re-pick with fresh keys (ties break by rank).
                        return _RUN_CROSSED
                    else:  # _K_END
                        s.qhead += 1
                        s.status = _FINISHED
                        s.finish_time = s.clock
                        if shard_of is not None:
                            xf = self._xf
                            xf[rank] = _INF
                            self._xf_dirty[my] = True
                        return _RUN_BLOCKED
                else:
                    # Queue drained with nothing pending: the thread produces.
                    s.prio = True
                    return _RUN_RESUME

                # ---- limit check ----------------------------------------- #
                c = s.clock
                if c < lim_c or (c == lim_c and rank < lim_r):
                    continue
                return _RUN_CROSSED
        except _Aborted:
            raise
        except BaseException as exc:  # noqa: BLE001 - reroute driver failures
            # Effects/predicates raising on the driving thread must not
            # unwind through a foreign rank's program frames; record the
            # failure and unwind with the internal abort signal instead
            # (run() re-raises the original exception).
            with self._lock:
                if self._abort_exc is None:
                    self._abort_exc = exc
                self._abort = True
                self._wake_all_locked()
            raise _Aborted() from None

    # ------------------------------------------------------------------ #
    # Write effects: version bump + wakes
    # ------------------------------------------------------------------ #

    def _post_write(self, s: _VRank, target: int, offset: int) -> Optional[Tuple[float, int]]:
        """Version-bump a written cell, wake parked watchers; returns the
        minimum woken key (so the caller can shrink its batch limit)."""
        cell = (target, offset)
        self._versions[cell] += 1
        waiters = self._watchers.pop(cell, None)
        if not waiters:
            return None
        states = self._states
        heaps = self._heaps
        shard_of = self._shard_of
        fw = self._foreign_watch
        xf = self._xf
        wc = s.clock
        best: Optional[Tuple[float, int]] = None
        for rank in waiters:
            ws = states[rank]
            if ws.status != _PARKED:
                continue
            watching = ws.watching
            for other in watching:
                if other != cell and other in self._watchers:
                    self._watchers[other].discard(rank)
            if shard_of is not None:
                wshard = ws.shard
                for other in watching:
                    if shard_of[other[0]] != wshard:
                        n = fw.get(other, 0) - 1
                        if n > 0:
                            fw[other] = n
                        else:
                            fw.pop(other, None)
            watching.clear()
            ws.status = _READY
            if wc > ws.clock:
                ws.clock = wc
            key = (ws.clock, rank)
            heappush(heaps[ws.shard], key)
            if shard_of is not None and ws.sp_local:
                # A locally parked spinner re-polls from its wake time: its
                # fence advances by one full poll round.
                bound = ws.clock + ws.sp_round_cost
                if bound > xf[rank]:
                    xf[rank] = bound
                    self._xf_dirty[ws.shard] = True
            if best is None or key < best:
                best = key
        return best

    # ------------------------------------------------------------------ #
    # Drain / abort plumbing (mirrors the horizon scheduler)
    # ------------------------------------------------------------------ #

    def _no_runnable(self, owner: Optional[_VRank]) -> None:
        """Handle an empty scheduler: clean drain, or deadlock."""
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
                cells = ", ".join(f"(rank {t}, offset {o})" for t, o in sorted(s.watching))
                lines.append(f"rank {s.rank}: parked on {cells} at t={s.clock:.2f}us")
            elif s.status == _BARRIER:
                lines.append(f"rank {s.rank}: waiting at barrier at t={s.clock:.2f}us")
        return "; ".join(lines) if lines else "(no blocked ranks)"

    def _wait_for_turn(self, state: _VRank) -> None:
        state.baton.acquire()
        if self._abort:
            raise _Aborted()

    def _watchdog_main(self, run_done: threading.Event) -> None:
        """Abort the run if no simulation progress happens for stall_timeout_s."""
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


# --------------------------------------------------------------------------- #
# Registry entry (see repro.api): the batched scheduler.
# --------------------------------------------------------------------------- #

@register_runtime(
    "vector",
    help="descriptor-batched state-machine scheduler with sharded lookahead: "
    "one thread per rank for every program, run-ahead buffering between syncs "
    "(bit-identical to 'horizon'/'baseline')",
    fault_injection=True,
)
def _make_vector_runtime(
    machine, *, window_words=64, seed=0, latency=None, fabric=None, tracer=None,
    perturbation=None, observer=None, shards="auto", fault_plan=None,
):
    return VectorRuntime(
        machine,
        window_words=window_words,
        latency=latency,
        fabric=fabric,
        tracer=tracer,
        seed=seed,
        perturbation=perturbation,
        observer=observer,
        shards=shards,
        fault_plan=fault_plan,
    )
