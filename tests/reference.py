"""The reference interpreter: README "The determinism contract", executable.

A thread-free interpreter of step programs (see "Step programs" in
:mod:`repro.rma.runtime_base`), written from the nine rules of that README
section and numbered after them.  It is slow where being fast would need a
second design: one ready set keyed ``(clock, rank)`` with a push and a pop
per scheduling point, the latency model's own ``cost`` / ``occupancy``
methods per request (no ``CostTable``), tuple cells and a write count per
cell.

Every golden fingerprint and every differential test holds ``horizon`` to
this interpreter, and ``tools/record_golden.py`` records on it.  The tests
that use it through the registry register it as runtime ``reference`` for
their own duration (:func:`registered`, and the ``reference`` fixture in
``tests/conftest.py``); nothing in ``src/`` can pick it.
"""

from __future__ import annotations

from contextlib import contextmanager
from functools import partial
from heapq import heappop, heappush
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Set, Tuple

from repro.api import registry
from repro.rma.latency import LatencyModel
from repro.rma.ops import CALLS, NUM_CALLS, AtomicOp
from repro.rma.perturbation import perturbation_rng
from repro.rma.runtime_base import (
    ACCUMULATE, BARRIER, CAS, COMPUTE, FAO, FLUSH, GET, PUT, SPIN, SPIN_WHILE,
    FaultHorizonError, RMARuntime, RunResult, RuntimeError_, SimDeadlockError, Steps,
    WindowInit, allocate_windows, bad_request, is_step_program, observer_hook,
)
from repro.topology.machine import Machine
from repro.util.rng import rank_rng

__all__ = ["REFERENCE", "ReferenceRuntime", "ScalarRankPerturbation", "factory", "registered"]

#: The runtime name the tests register the interpreter under.
REFERENCE = "reference"

_READY, _PARKED, _BARRIER, _FINISHED = range(4)
_INF = float("inf")
_RMA_KINDS = frozenset(range(NUM_CALLS))
#: Where an RMA request carries its target rank (its offset follows), by kind.
_TARGET_AT = tuple(3 if kind == CAS else 1 if kind in (GET, FLUSH) else 2 for kind in range(NUM_CALLS))

Cell = Tuple[int, int]

#: What a poll round yields when it must park (never a program's request).
_PARK = object()
#: What resuming a rank returns once its program has returned.
_DONE = object()


class ScalarRankPerturbation:
    """Rule 3's draws for one rank of a ``PerturbationModel``: one scalar
    ``Generator`` call per uniform, in the rank's issue order.

    The slowdown multiplier is the first draw of the stream keyed on the
    seed's complement; jitter, pause test and pause length (the
    ``Generator.uniform`` formula, ``lo + (hi - lo) * u``) are the next draws
    of the stream keyed on the seed.
    """

    def __init__(self, model: Any, rank: int):
        self.slowdown = 1.0
        if model.rank_slowdown > 0.0:
            draw = float(perturbation_rng(~model.seed & 0xFFFFFFFFFFFFFFFF, rank).random())
            self.slowdown = 1.0 + model.rank_slowdown * draw
        self._rng = perturbation_rng(model.seed, rank)
        self._jitter = model.latency_jitter
        self._pause_rate = model.pause_rate
        self._pause_lo, self._pause_hi = model.pause_us

    def perturb(self, cost: float) -> float:
        """One operation's cost, after the slowdown: jitter, then a pause."""
        rng = self._rng
        if self._jitter > 0.0:
            cost = cost * (1.0 + self._jitter * float(rng.random()))
        if self._pause_rate > 0.0 and float(rng.random()) < self._pause_rate:
            cost = cost + float(rng.uniform(self._pause_lo, self._pause_hi))
        return cost


class _Killed(BaseException):
    """A fault plan's kill, raised at a program request or a poll round."""


class _Rank:
    """One rank: its clock, its generators and what its next turn owes it."""

    def __init__(self, rank: int, ctx: "ReferenceContext", start: Callable[[], Steps], kill_us: float):
        self.rank = rank
        self.ctx = ctx
        self.start = start
        self.program: Optional[Steps] = start()
        #: The active poll while the program waits in a SPIN / SPIN_WHILE.
        self.poll: Optional[Steps] = None
        #: The request whose effect (and value) the rank's next turn applies.
        self.pending: Optional[tuple] = None
        self.clock, self.status, self.kill_us = 0.0, _READY, kill_us
        #: The cells a parked rank polls.
        self.cells: Set[Cell] = set()
        self.ops = [0] * NUM_CALLS
        self.result: Any = None
        self.finish_time = 0.0


class ReferenceContext:
    """What a step program may touch: ``rank``, ``nranks``, ``random()``,
    ``rng``, ``now()``, ``observer`` and, under a fault plan, ``fault`` and
    ``incarnation``.  It has no blocking calls: the interpreter runs step
    programs only."""

    incarnation: int = 0

    def __init__(self, runtime: "ReferenceRuntime", rank: int, clock: Callable[[], float]):
        self.rank = rank
        self.nranks = runtime.num_ranks
        self.rng = rank_rng(runtime.seed, rank)
        self.random = self.rng.random
        self.observer = runtime.observer
        self.fault = runtime.fault_plan
        self._clock = clock

    def now(self) -> float:
        return self._clock()


class ReferenceRuntime(RMARuntime):
    """Runs step programs by README "The determinism contract"."""

    def __init__(
        self, machine: Machine, *, window_words: int = 64, seed: int = 0, latency: Optional[LatencyModel] = None,
        fabric: Any = None, perturbation: Any = None, observer: Any = None,
        fault_plan: Any = None, max_ops: Optional[int] = None, barrier_cost_us: float = 2.0,
    ):
        self.machine = machine
        self.window_words = int(window_words)
        if self.window_words < 1:
            raise ValueError("window_words must be >= 1")
        self.seed = int(seed)
        self.latency = latency if latency is not None else LatencyModel.cray_xc30()
        self.fabric = fabric
        if fabric is not None:
            fabric.validate_machine(machine)
        self.perturbation, self.observer, self.max_ops = perturbation, observer, max_ops
        self.fault_plan = fault_plan if fault_plan is not None and not fault_plan.is_null else None
        self.barrier_cost_us = float(barrier_cost_us)

    @property
    def num_ranks(self) -> int:
        return self.machine.num_processes

    def run(
        self, program: Callable[..., Any], *, window_init: Optional[WindowInit] = None,
        program_args: Optional[Sequence[Any]] = None,
    ) -> RunResult:
        n = self.num_ranks
        if program_args is not None and len(program_args) != n:
            raise ValueError(f"program_args must have one entry per rank ({n})")
        if not is_step_program(program):
            raise TypeError(
                f"the reference interpreter runs step programs only; {program!r} is not a generator function"
            )
        self.windows = allocate_windows(n, self.window_words, window_init)
        plan = self.fault_plan
        kill_at: Dict[int, float] = {}
        self._ceiling = _INF
        if plan is not None:
            plan.validate_for(n)
            kill_at = {fault.rank: fault.kill_us for fault in plan.faults}
            if plan.horizon_us is not None:
                self._ceiling = plan.horizon_us
        perturbation = self.perturbation
        self._perturb = None
        if perturbation is not None:  # rule 3: the slowdown multiplier, then jitter and pauses
            self._perturb = [ScalarRankPerturbation(perturbation, rank) for rank in range(n)]
        self._ranks: List[_Rank] = []
        for rank in range(n):
            ctx = ReferenceContext(self, rank, lambda rank=rank: self._ranks[rank].clock)
            args = () if program_args is None else (program_args[rank],)
            self._ranks.append(_Rank(rank, ctx, partial(program, ctx, *args), kill_at.get(rank, _INF)))
        self._ready = [(0.0, rank) for rank in range(n)]  # rule 1
        self._versions: Dict[Cell, int] = {}
        self._barrier: List[int] = []
        self._barrier_size = n
        self._port_free = [0.0] * n
        self._link_free = self.fabric.new_state() if self.fabric is not None else {}
        self._total = 0
        # Rule 9: only the per-request hooks the observer's class overrides.
        self._on_request = observer_hook(self.observer, "on_request")
        self._on_rmw = observer_hook(self.observer, "on_rmw")
        if self.observer is not None:
            self.observer.on_run_start(n)
        try:
            while self._ready or self._no_ready_rank():
                r = self._ranks[heappop(self._ready)[1]]
                self._turn(r)
                if r.status == _READY:
                    heappush(self._ready, (r.clock, r.rank))
        finally:
            for r in self._ranks:
                for steps in (r.poll, r.program):
                    if steps is not None:
                        steps.close()
        if self.observer is not None:
            self.observer.on_run_end()
        finish = [r.finish_time for r in self._ranks]
        return RunResult(
            returns=[r.result for r in self._ranks],
            finish_times_us=finish,
            total_time_us=max(finish) if finish else 0.0,
            op_counts={call.value: n for call, n in zip(CALLS, map(sum, zip(*(r.ops for r in self._ranks)))) if n},
            per_rank_op_counts=[{call.value: n for call, n in zip(CALLS, r.ops) if n} for r in self._ranks],
        )

    def _turn(self, r: _Rank) -> None:
        """Run ``r`` from its pick to its next scheduling point (or its end)."""
        value: Any = None
        error: Optional[Exception] = None
        request, r.pending = r.pending, None
        if r.program is None:  # rule 7: a restarted rank's next incarnation
            on_restart = observer_hook(self.observer, "on_restart")
            if on_restart is not None:
                on_restart(r.rank, r.clock)
            r.ctx.incarnation += 1
            r.program = r.start()
        elif request is not None:
            try:
                value = self._effect(r, request)
            except Exception as exc:  # noqa: BLE001 - rule 4: raised at the request's yield
                error = exc
        try:
            while True:
                request = self._resume(r, value, error)
                if request is _DONE:
                    return
                value = error = None
                if request is _PARK:
                    r.status = _PARKED
                    return
                try:
                    if r.poll is None:
                        self._checkpoint(r)  # a program request, not a poll leg
                    if self._issue(r, request):
                        return
                except Exception as exc:  # noqa: BLE001 - rule 4: raised at the request's yield
                    error = exc
        except _Killed:
            self._kill(r)

    def _resume(self, r: _Rank, value: Any, error: Optional[Exception]) -> Any:
        """Hand ``value`` (or ``error``) to ``r``'s poll or program (rule 5);
        returns the next request, or ``_DONE`` once the program returned."""
        poll, r.poll = r.poll, None
        if poll is not None:
            if error is not None:
                poll.close()
            else:
                try:
                    request = poll.send(value)
                except StopIteration as stop:
                    value = stop.value
                except Exception as exc:  # noqa: BLE001 - the SPIN request's error
                    error = exc
                else:
                    r.poll = poll
                    return request
        try:
            return r.program.send(value) if error is None else r.program.throw(error)
        except StopIteration as stop:
            self._finish(r, stop.value)
            return _DONE

    def _issue(self, r: _Rank, request: Any) -> bool:
        """Issue ``request`` at ``r``'s clock (rule 3); False for a SPIN, which
        is no scheduling point of its own (its first round is issued next)."""
        try:
            kind = request[0]
            is_rma = kind in _RMA_KINDS
        except (TypeError, IndexError, KeyError):
            raise bad_request(r.rank, request) from None
        if is_rma:
            self._charge(r, kind, request[_TARGET_AT[kind]])
            if kind != FLUSH:
                r.pending = request
        elif kind == COMPUTE:
            if not 0 <= request[1] < _INF:
                raise ValueError(f"compute duration must be non-negative and finite, got {request[1]!r}")
            r.clock += float(request[1])
        elif kind == SPIN:
            r.poll = self._poll(r, request[1], request[2], False)
            return False
        elif kind == SPIN_WHILE:
            r.poll = self._poll(r, [request[1:3]], request[3], True)
            return False
        elif kind == BARRIER:  # rule 6
            self._barrier.append(r.rank)
            if len(self._barrier) < self._barrier_size:
                r.status = _BARRIER
            else:
                self._release_barrier(r.rank)
        else:
            raise bad_request(r.rank, request)
        return True

    def _charge(self, r: _Rank, kind: int, target: int) -> None:
        """Account and time one RMA request of ``r`` at ``target``."""
        n = self.num_ranks
        if not 0 <= target < n:
            raise ValueError(f"target rank {target} out of range 0..{n - 1}")
        r.ops[kind] += 1
        self._total += 1
        if self.max_ops is not None and self._total > self.max_ops:
            raise RuntimeError_(f"simulation exceeded max_ops={self.max_ops}; possible livelock")
        call, machine, origin = CALLS[kind], self.machine, r.rank
        cost = self.latency.cost(call, machine, origin, target)
        if self._perturb is not None:
            perturb = self._perturb[origin]
            cost = perturb.perturb(cost * perturb.slowdown)
        start = r.clock
        occupancy = self.latency.occupancy(call, origin, target)
        if occupancy > 0.0:  # remote accesses serialize at the target's port
            start = max(start, self._port_free[target])
            self._port_free[target] = start + occupancy
        if self.fabric is not None and kind != FLUSH and not machine.same_node(origin, target):
            arrival = self.fabric.traverse(self._link_free, machine.node_of(origin), machine.node_of(target), start)
            cost += arrival - start
        if self._on_request is not None:
            self._on_request(origin, call, target, start, cost)
        r.clock = start + cost

    def _effect(self, r: _Rank, request: tuple) -> Any:
        """Apply the effect of ``r``'s last RMA request (rule 2); returns its value."""
        kind = request[0]
        if kind == GET:
            return self.windows[request[1]].read(request[2])
        at = _TARGET_AT[kind]
        target, offset = request[at], request[at + 1]
        window = self.windows[target]
        value = None
        if kind == PUT:
            window.write(offset, int(request[1]))
        elif kind == ACCUMULATE:
            window.apply(offset, int(request[1]), request[4] if len(request) > 4 else AtomicOp.SUM)
        elif kind == FAO:
            value = window.fetch_and_op(offset, int(request[1]), request[4])
        else:
            value = window.compare_and_swap(offset, int(request[2]), int(request[1]))
        if kind in (FAO, CAS) and self._on_rmw is not None:
            self._on_rmw(r.rank, CALLS[kind])
        cell = (target, offset)
        self._versions[cell] = self._versions.get(cell, 0) + 1
        for woken in self._ranks:
            if woken.status == _PARKED and cell in woken.cells:
                woken.status, woken.cells = _READY, set()
                woken.clock = max(woken.clock, r.clock)
                heappush(self._ready, (woken.clock, woken.rank))
        return value

    def _poll(self, r: _Rank, cells: Sequence[Cell], predicate: Callable[..., bool], single: bool) -> Steps:
        """``do {Get; Flush} while (predicate)``, one round at a time (rule 5)."""
        cells = [(int(target), int(offset)) for target, offset in cells]
        targets = sorted({target for target, _ in cells})
        versions = self._versions
        while True:
            self._checkpoint(r)
            before = [versions.get(cell, 0) for cell in cells]
            values = []
            for target, offset in cells:
                values.append((yield (GET, target, offset)))
            for target in targets:
                yield (FLUSH, target)
            observed = values[0] if single else values
            if not predicate(observed):
                return observed
            if [versions.get(cell, 0) for cell in cells] == before:
                r.cells = set(cells)
                yield _PARK

    def _release_barrier(self, me: Optional[int]) -> None:
        """Release every waiter at the latest arrival + the barrier's cost;
        all but ``me`` (whose turn ends) become ready here."""
        release = max(self._ranks[rank].clock for rank in self._barrier) + self.barrier_cost_us
        for rank in self._barrier:
            waiter = self._ranks[rank]
            waiter.clock, waiter.status = release, _READY
            if rank != me:
                heappush(self._ready, (release, rank))
        self._barrier = []

    def _finish(self, r: _Rank, result: Any) -> None:
        r.result, r.status, r.finish_time = result, _FINISHED, r.clock
        if self.fault_plan is not None:  # rule 7: the barrier stops waiting for this rank
            self._barrier_size -= 1
            if self._barrier and len(self._barrier) >= self._barrier_size:
                self._release_barrier(None)

    def _no_ready_rank(self) -> bool:
        """Nobody is ready: reap blocked crash victims until someone is (True),
        False once every rank finished, else deadlock (rules 7 and 8)."""
        while not self._ready:
            blocked = [r for r in self._ranks if r.status != _FINISHED]
            if not blocked:
                return False
            victims = [r for r in blocked if r.kill_us < _INF]
            if not victims:
                raise SimDeadlockError(
                    f"ranks {[r.rank for r in blocked]} are blocked forever with no "
                    f"runnable rank left: {self._blocked_report()}"
                )
            victim = min(victims, key=lambda r: (r.kill_us, r.rank))
            victim.clock = max(victim.clock, victim.kill_us)
            victim.cells = set()
            if victim.rank in self._barrier:
                self._barrier.remove(victim.rank)
            self._kill(victim)
            if victim.status == _READY:
                heappush(self._ready, (victim.clock, victim.rank))
        return True

    def _blocked_report(self) -> str:
        lines = []
        for r in self._ranks:
            if r.status == _PARKED:
                cells = ", ".join(f"(rank {t}, offset {o})" for t, o in sorted(r.cells))
                lines.append(f"rank {r.rank}: parked on {cells} at t={r.clock:.2f}us")
            elif r.status == _BARRIER:
                lines.append(f"rank {r.rank}: waiting at barrier at t={r.clock:.2f}us")
        return "; ".join(lines) if lines else "(no blocked ranks)"

    def _checkpoint(self, r: _Rank) -> None:
        """A program request's or poll round's fault check (rule 7)."""
        if r.clock >= r.kill_us:
            raise _Killed()
        if r.clock >= self._ceiling:
            raise FaultHorizonError(
                f"rank {r.rank} passed the fault plan's virtual-time ceiling "
                f"of {self._ceiling:g}us at t={r.clock:.2f}us (livelock under a crash?)"
            )

    def _kill(self, r: _Rank) -> None:
        for steps in (r.poll, r.program):
            if steps is not None:
                steps.close()
        r.poll = r.program = None
        r.kill_us = _INF  # one crash per rank per run
        on_crash = observer_hook(self.observer, "on_crash")
        if on_crash is not None:
            on_crash(r.rank, r.clock)
        fault = self.fault_plan.fault_for(r.rank)
        if fault is None or fault.restart_us is None:
            self._finish(r, {"__crashed__": True, "rank": r.rank, "t_us": r.clock})
        else:  # program None: its next turn starts a fresh incarnation
            r.clock = max(r.clock, fault.restart_us)
            r.status = _READY


def factory(name: str) -> Callable[..., RMARuntime]:
    """The runtime factory for ``name``: the reference, or a registered runtime's."""
    return ReferenceRuntime if name == REFERENCE else registry.get_runtime(name).factory


@contextmanager
def registered(name: str = REFERENCE) -> Iterator[str]:
    """The interpreter registered as runtime ``name`` for the block's duration."""
    registry.register_runtime(
        name, help="thread-free reference interpreter of step programs (tests only)",
    )(ReferenceRuntime)
    try:
        yield name
    finally:
        registry.unregister("runtime", name)
