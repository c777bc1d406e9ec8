"""Common runtime interface shared by the simulated and threaded backends.

A *runtime* owns ``P`` ranks, one RMA window per rank, and executes a rank
program (``program(ctx)``) on every rank.  The per-rank handle
:class:`ProcessContext` exposes exactly the RMA call set of the paper's
Listing 1 plus a handful of helpers that the lock protocols need:

* ``spin_while`` — the ``do {Get; Flush} while (predicate)`` local/remote
  polling loop used throughout the protocols.  On the simulated backend this
  parks the rank on the polled memory cells instead of burning simulated
  events; on the threaded backend it really polls.
* ``compute`` — advance local time by a given number of microseconds (models
  critical-section work and back-off delays).
* ``barrier`` — synchronize all ranks (used to delimit measurement phases).

Values returned by ``get``/``fao``/``cas`` follow the paper's semantics of
being usable after the subsequent ``flush``; both backends return them
immediately but protocols still issue the flushes so that the simulated time
accounting matches the real protocols.

Deterministic scheduling contract
---------------------------------
The simulated backend executes rank programs under a *fixed total order* that
any conforming scheduler must reproduce bit-identically:

1. Every clock advance (RMA call or ``compute``) is a *scheduling point*.
   After rank ``p`` advances its clock, execution continues with the rank
   whose ``(clock, rank)`` key is the strict lexicographic minimum among all
   runnable ranks.
2. The *body* of an operation (port occupancy, fabric traversal, window
   mutation, waking parked ranks) runs under the scheduling decision of the
   rank's previous advance; bodies are atomic with respect to other ranks.
3. ``spin_on_cells`` polls (Get+Flush rounds) are ordinary operations in that
   order; a parked rank resumes polling at ``max(its clock, writer clock)``.

The seed scheduler realised this order by handing a baton between rank
threads at every scheduling point.  The horizon scheduler in
:mod:`repro.rma.sim_runtime` realises the *same* order with a min-heap, a
lock-free fast path for self-continuations, and threadless spin-wait tasks —
see the "Simulator internals" section of the README.  The golden tests in
``tests/rma/test_golden_determinism.py`` pin the contract down.

Step programs
-------------
A rank program may also be a **generator function**.  Instead of calling
``ctx.put(...)`` and blocking until the scheduler hands its thread the baton
back, a step program *yields* a request — a flat tuple whose first element
is one of the request kinds below and whose remaining elements are exactly
the arguments of the blocking call of the same name — and receives the
call's return value as the value of the ``yield`` expression::

    def program(ctx):
        lock = spec.make(ctx)
        yield (BARRIER,)
        yield from lock.acquire_steps()
        value = yield (GET, 0, offset)       # value = ctx.get(0, offset)
        yield (FLUSH, 0)
        yield (PUT, value + 1, 0, offset)    # ctx.put(value + 1, 0, offset)
        yield (FLUSH, 0)
        yield from lock.release_steps()
        return value

A request is a scheduling point exactly as the blocking call is (rules 1-3
apply unchanged: its issue runs under the rank's previous scheduling
decision, its effect and return value are delivered when the rank's
post-issue key is the minimum), and an error the blocking call would raise
is raised at the ``yield``.  The same program therefore produces the same
:class:`RunResult` on every runtime.  A runtime that has no native support
for step programs runs them on its rank threads through
:meth:`ProcessContext.run_steps`, the blocking trampoline
(:func:`blocking_program` wraps a whole program that way); the horizon
scheduler steps them inline on the calling thread with no rank threads at
all, so a scheduling point costs a generator resume instead of a thread
hand-off.  ``ctx.now()``, ``ctx.rank``, ``ctx.rng`` and the other
non-blocking members are used directly in both styles.
"""

from __future__ import annotations

import abc
import inspect
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Generator, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.rma.ops import CALL_INDEX, NUM_CALLS, AtomicOp, RMACall
from repro.rma.window import Window

__all__ = [
    "ACCUMULATE",
    "BARRIER",
    "CAS",
    "COMPUTE",
    "Cell",
    "FAO",
    "FLUSH",
    "FaultHorizonError",
    "GET",
    "PUT",
    "ProcessContext",
    "REQUEST_METHODS",
    "RMARuntime",
    "RunResult",
    "RuntimeError_",
    "SPIN",
    "SPIN_WHILE",
    "SimDeadlockError",
    "Steps",
    "WindowInit",
    "allocate_windows",
    "bad_request",
    "blocking_program",
    "is_step_program",
]

#: A (target_rank, offset) pair identifying one window word.
Cell = Tuple[int, int]

#: Callable mapping a rank to its initial window contents ({offset: value}).
WindowInit = Callable[[int], Mapping[int, int]]


def allocate_windows(nranks: int, num_words: int, window_init: Optional[WindowInit]) -> List[Window]:
    """Fresh zeroed windows for ``nranks`` ranks, each loaded from ``window_init(rank)``.

    Returns only once every rank is initialized, so a runtime that installs
    the result keeps its previous windows when ``window_init`` raises.
    """
    windows = [Window(num_words) for _ in range(nranks)]
    if window_init is not None:
        for rank, window in enumerate(windows):
            init = window_init(rank)
            if init:
                window.load(init)
    return windows


# --------------------------------------------------------------------------- #
# Step-program requests (see "Step programs" in the module docstring).  A
# request is ``(kind, *args)`` with ``args`` in the order of the blocking
# ProcessContext method named by ``REQUEST_METHODS[kind]``.  The six RMA
# calls are numbered by their CALL_INDEX, so one integer is request kind,
# op-counter index and cost-table row at once.
# --------------------------------------------------------------------------- #

PUT = CALL_INDEX[RMACall.PUT]  # (PUT, src_data, target, offset)
GET = CALL_INDEX[RMACall.GET]  # (GET, target, offset) -> value
ACCUMULATE = CALL_INDEX[RMACall.ACCUMULATE]  # (ACCUMULATE, operand, target, offset[, op])
FAO = CALL_INDEX[RMACall.FAO]  # (FAO, operand, target, offset, op) -> previous value
CAS = CALL_INDEX[RMACall.CAS]  # (CAS, src_data, cmp_data, target, offset) -> previous value
FLUSH = CALL_INDEX[RMACall.FLUSH]  # (FLUSH, target)
COMPUTE = NUM_CALLS  # (COMPUTE, duration_us)
BARRIER = NUM_CALLS + 1  # (BARRIER,)
SPIN = NUM_CALLS + 2  # (SPIN, cells, predicate) -> values      [spin_on_cells]
SPIN_WHILE = NUM_CALLS + 3  # (SPIN_WHILE, target, offset, predicate) -> value

#: Request kind -> name of the blocking :class:`ProcessContext` method.
REQUEST_METHODS: Tuple[str, ...] = (
    "put", "get", "accumulate", "fao", "cas", "flush",
    "compute", "barrier", "spin_on_cells", "spin_while",
)

#: A step generator: yields requests, receives their values, returns a result.
Steps = Generator[tuple, Any, Any]


def bad_request(rank: int, value: Any) -> TypeError:
    """The error for a step program that yielded something other than a request."""
    return TypeError(
        f"rank {rank} yielded {value!r}, which is not a request: a step program "
        f"yields (kind, *args) tuples such as (PUT, value, target, offset) — "
        f"see repro.rma.runtime_base"
    )


def is_step_program(program: Callable[..., Any]) -> bool:
    """Whether ``program`` is a step program (a generator function)."""
    return inspect.isgeneratorfunction(program)


def blocking_program(program: Callable[..., Any]) -> Callable[..., Any]:
    """``program`` as a blocking rank program.

    A step program is wrapped so that each rank drives its generator through
    :meth:`ProcessContext.run_steps` on its own thread; a blocking program is
    returned unchanged.  Every thread-backed runtime applies this to what it
    is given, so one program runs everywhere.
    """
    if not is_step_program(program):
        return program

    def run(ctx: "ProcessContext", *args: Any) -> Any:
        return ctx.run_steps(program(ctx, *args))

    return run


class RuntimeError_(RuntimeError):
    """Base class for runtime failures (name avoids shadowing the builtin)."""


class SimDeadlockError(RuntimeError_):
    """Raised when every unfinished rank is blocked and no progress is possible."""


class FaultHorizonError(RuntimeError_):
    """A faulted run passed its virtual-time ceiling without draining.

    Only raised when a :class:`repro.fault.FaultPlan` with a ``horizon_us``
    ceiling is installed: a crash can turn a polling lock into a livelock
    that never parks (so the structural deadlock detector cannot fire); the
    ceiling converts it into this deterministic abort at the first context
    call past the limit.
    """


@dataclass
class RunResult:
    """Outcome of one ``runtime.run(...)`` invocation.

    Attributes:
        returns: Per-rank return values of the rank program.
        finish_times_us: Per-rank completion times (virtual µs for the
            simulator, wall-clock µs for the thread backend).
        total_time_us: Makespan across all ranks.
        op_counts: Total number of RMA calls issued, keyed by call name.
        per_rank_op_counts: The same, broken down per rank.
        wall_time_s: Host wall-clock seconds the run took (simulator
            throughput metric; 0.0 when the backend does not record it).
    """

    returns: List[Any]
    finish_times_us: List[float]
    total_time_us: float
    op_counts: Dict[str, int] = field(default_factory=dict)
    per_rank_op_counts: List[Dict[str, int]] = field(default_factory=list)
    wall_time_s: float = 0.0

    @property
    def num_ranks(self) -> int:
        return len(self.returns)

    def total_ops(self) -> int:
        return int(sum(self.op_counts.values()))

    def ops_per_sec(self) -> float:
        """Simulator throughput: RMA operations executed per host second.

        The headline metric of the perf suite (``benchmarks/test_perf_runtime.py``
        and ``python -m repro perf``); 0.0 when wall time was not recorded.
        """
        if self.wall_time_s <= 0.0:
            return 0.0
        return self.total_ops() / self.wall_time_s


class ProcessContext(abc.ABC):
    """Per-rank handle through which a rank program issues RMA calls."""

    #: Rank of this process (0-based).
    rank: int
    #: Total number of ranks.
    nranks: int
    #: Per-rank deterministic random generator.
    rng: np.random.Generator

    # -- Listing 1 ------------------------------------------------------- #

    @abc.abstractmethod
    def put(self, src_data: int, target: int, offset: int) -> None:
        """Atomically place ``src_data`` in ``target``'s window at ``offset``."""

    @abc.abstractmethod
    def get(self, target: int, offset: int) -> int:
        """Atomically fetch the word at ``offset`` in ``target``'s window."""

    @abc.abstractmethod
    def accumulate(self, operand: int, target: int, offset: int, op: AtomicOp = AtomicOp.SUM) -> None:
        """Atomically apply ``op`` with ``operand`` to the word at ``target``."""

    @abc.abstractmethod
    def fao(self, operand: int, target: int, offset: int, op: AtomicOp) -> int:
        """Fetch-and-op: apply ``op`` and return the previous value."""

    @abc.abstractmethod
    def cas(self, src_data: int, cmp_data: int, target: int, offset: int) -> int:
        """Compare-and-swap; returns the previous value of the word."""

    @abc.abstractmethod
    def flush(self, target: int) -> None:
        """Complete all pending RMA calls issued by this rank at ``target``."""

    # -- helpers ---------------------------------------------------------- #

    @abc.abstractmethod
    def spin_on_cells(self, cells: Sequence[Cell], predicate: Callable[[Sequence[int]], bool]) -> List[int]:
        """Repeat ``Get``+``Flush`` over ``cells`` while ``predicate(values)`` is true.

        Returns the first observed values for which the predicate is false.
        """

    def spin_while(self, target: int, offset: int, predicate: Callable[[int], bool]) -> int:
        """Single-cell convenience wrapper around :meth:`spin_on_cells`."""
        values = self.spin_on_cells([(target, offset)], lambda vs: predicate(vs[0]))
        return values[0]

    @abc.abstractmethod
    def compute(self, duration_us: float) -> None:
        """Model ``duration_us`` microseconds of local computation."""

    @abc.abstractmethod
    def barrier(self) -> None:
        """Synchronize all ranks."""

    @abc.abstractmethod
    def now(self) -> float:
        """Current local time in microseconds (virtual or wall-clock)."""

    # -- step programs ------------------------------------------------------ #

    def run_steps(self, steps: Steps) -> Any:
        """Drive a step generator to completion through this context's blocking calls.

        The blocking trampoline: every request ``steps`` yields is executed
        by the blocking method it names and the method's value is sent back;
        an exception the call raises is raised at the ``yield``.  Returns the
        generator's return value.  This is how a thread-backed runtime runs a
        step program, and how the blocking ``acquire()``/``release()`` of a
        lock handle are derived from its ``*_steps`` generators.
        """
        try:
            calls = self._request_calls
        except AttributeError:
            # Bound once per context: blocking acquire()/release() come
            # through here on every call.
            calls = self._request_calls = tuple(
                getattr(self, name) for name in REQUEST_METHODS
            )
        try:
            request = steps.send(None)
            while True:
                try:
                    kind = request[0]
                    if kind < 0:  # would index the table from its end
                        raise IndexError(kind)
                    call = calls[kind]
                except (TypeError, IndexError, KeyError):
                    raise bad_request(self.rank, request) from None
                try:
                    value = call(*request[1:])
                except Exception as exc:  # noqa: BLE001 - delivered at the yield
                    request = steps.throw(exc)
                else:
                    request = steps.send(value)
        except StopIteration as stop:
            return stop.value

    # -- optional hooks ---------------------------------------------------- #

    def log(self, message: str) -> None:  # pragma: no cover - debugging aid
        """Diagnostic hook; backends may route this to stderr or discard it."""


class RMARuntime(abc.ABC):
    """A backend capable of running rank programs over RMA windows."""

    #: One window per rank, installed by the most recent ``run``.
    windows: Sequence[Window] = ()

    @property
    @abc.abstractmethod
    def num_ranks(self) -> int:
        """Number of ranks this runtime simulates/executes."""

    def window(self, rank: int) -> Window:
        """The window of ``rank`` from the most recent run (for inspection in tests)."""
        return self.windows[rank]

    @abc.abstractmethod
    def run(
        self,
        program: Callable[[ProcessContext], Any],
        *,
        window_init: Optional[WindowInit] = None,
        program_args: Optional[Sequence[Any]] = None,
    ) -> RunResult:
        """Execute ``program`` on every rank and return the collected result.

        ``window_init(rank)`` may supply initial non-zero window contents
        (e.g. null-pointer sentinels).  ``program_args`` optionally provides a
        per-rank extra argument passed as ``program(ctx, arg)``.
        """
