"""Stateless model checker over the registered schemes' own step programs.

The paper verifies its protocols with SPIN (Section 4.4).  This module checks
the code that runs instead of a transcription of it: :class:`Explorer` builds
a registered scheme through the registry, gives every rank a role-pinned
acquire / critical section / release loop over the scheme's ``*_steps``
generators, and runs every interleaving of their requests depth-first, on
sequentially consistent windows with no costs.

* Each RMA request is one atomic transition.  ``SPIN`` / ``SPIN_WHILE`` is
  one that stays blocked while its predicate holds (a multi-cell ``SPIN``
  reads its cells at once, where the simulator polls them one by one);
  ``COMPUTE`` and ``FLUSH`` are no scheduling points; ``BARRIER`` is a
  rendezvous.  The critical
  section holds one scheduling point (a read of the rank's own window), so
  two holders can be inside together.
* CPython cannot copy a generator, so a state is rebuilt by replaying its
  schedule on fresh generators.  A state is the window bytes, each rank's
  generator stack (per frame the code object, ``f_lasti`` and plain
  locals) with the plain attributes of its handles, which ranks are
  spin-blocked, and each waiter's bypass count so far.  Plain values are
  ints, floats, bools, strings, None, enum members and tuples of them; the
  key does not see any other value (an object, a list, a dict, a set, a
  callable), so a handle that keeps protocol state in one is under-explored.
* Spin reduction: a request re-issued at the same program position with no
  shared write since its last issue stays blocked until some cell changes;
  the rank went round a loop to no effect.  This makes the CAS / backoff
  retry loops finite.  A loop whose exit hangs on a local that changes
  without a shared write (a retry budget) runs one round per write.
* Sleep sets prune transitions, not states: once the search has run ``t``
  from a state, a later sibling ``u`` independent of it (no cell that one
  writes and the other touches, not both moving the oracles) leaves ``t``
  asleep below it, since ``u t`` reaches what ``t u`` did.  A state met
  again runs what slept at its first visit but is awake now.

The judge is the live :class:`~repro.verification.oracles.RecoveryOracleObserver`
(mutual exclusion, reader/writer exclusion, handoff, the registered
``fairness_bound``, and with a crash no re-grant before a dead holder's lease
expired), attached through ``observe_lock`` and ``on_rmw``.  A state where
no rank can move, no kill or tick is left and a live rank is unfinished is a
deadlock; a spin-blocked rank cannot move, so a livelock is one too.

Crashes (``crash=``, the :data:`~repro.fault.plan.FAULT_SCENARIOS` a kill
can stage without a restart):

* A *kill* of rank v closes v's generator (contract rule 7), calls the
  oracle's ``on_crash`` and retires v: a dead rank is finished, never
  deadlocked.  A run has at most one; the search picks the victim and the
  moment, and runs without one too.  ``"holder-crash"`` kills a rank the
  oracle counts as a holder (between its ``acquired`` and ``released``
  events); ``"waiter-crash"`` a rank inside acquire that cannot move, while
  no other rank's pending request writes a cell it waits on (a releaser that
  has issued the grant already saw it alive: its death then is a holder's).
* ``ctx.fault.dead_at`` answers from the run's dead set, a perfect detector
  like :meth:`~repro.fault.FaultPlan.dead_at`.  ``ctx.now()`` is the run's
  clock, 0 until a *tick* sets it to the lease deadline a dead holder
  announced (``on_lease``); a tick is possible only while that deadline is
  ahead, so time passes a lease only for a dead holder and an unexpired
  lease implies a live one.  The fencing of a live holder's stale release
  is therefore out of reach.
* A kill or a tick wakes every rank the spin reduction holds, as a write
  does (the detector's answer or the clock changed), and commutes with
  nothing.  The state adds the clock, the dead set, the crashed holds with
  their deadlines and the live lease deadlines.  Witness schedules record
  kills (``"kill 1"``) and ticks (``"tick"``).

Without ``crash`` no rank has a detector (``ctx.fault`` is None, as on an
unfaulted run), time stands still and no rank dies.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from enum import Enum
from types import GeneratorType
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.api.registry import get_scheme
from repro.fault.plan import recovery_info
from repro.rma.ops import CALLS, AtomicOp
from repro.rma.runtime_base import (
    ACCUMULATE, BARRIER, CAS, COMPUTE, FAO, FLUSH, GET, PUT, REQUEST_METHODS, SPIN, SPIN_WHILE, Steps,
    bad_request,
)
from repro.topology.machine import Machine
from repro.util.rng import rank_rng
from repro.verification.oracles import RecoveryOracleObserver, observe_lock

__all__ = [
    "CRASHES", "KNOWN_MUTANTS", "MAX_STATES", "PARAMS", "TICK", "Exploration", "Explorer", "NotExplorable",
    "StateExplosionError",
]

_PRIMITIVE = frozenset((int, float, bool, str, type(None)))
_TRANSITIONS = frozenset((PUT, GET, ACCUMULATE, FAO, CAS, SPIN, SPIN_WHILE))
#: Distinct states an exploration may visit before it gives up.
MAX_STATES = 500_000
#: Requests a rank may yield in a row without a scheduling point.
_INLINE_LIMIT = 100_000
#: Scheme parameters an exploration uses unless it is given its own: rma-rw
#: at small thresholds, where its reader reset, the stranded-counter
#: recovery and the switch back to readers are reachable with three ranks.
PARAMS: Mapping[str, Mapping[str, Any]] = {"rma-rw": {"t_r": 1, "t_w": 2}}
#: A state-key item for a value the key does not see.
_OPAQUE = object()
#: The crash scenarios an exploration can stage.
CRASHES = ("holder-crash", "waiter-crash")
#: A witness schedule's tick; a kill of rank v is ``f"kill {v}"``.
TICK = "tick"
#: Registered schemes that ship a planted bug: ``repro verify`` passes one
#: only if its crash exploration finds a violation, and the fault sweep
#: leaves them out (its sampled kills would pass what it cannot catch).
KNOWN_MUTANTS: Tuple[str, ...] = ("repair-mcs-racy",)


class StateExplosionError(RuntimeError):
    """The exploration exceeded its state budget (:data:`MAX_STATES`)."""


class NotExplorable(TypeError):
    """The scheme has no step programs to explore (blocking-only handles, or
    no plain lock handles at all)."""


class _World:
    """A run's clock and dead set, which ``ctx.now()`` and ``ctx.fault`` read.

    Kept apart from the run: contexts that referenced the run would put every
    replayed run in a reference cycle, freed only by the garbage collector."""

    __slots__ = ("clock", "dead")

    def __init__(self) -> None:
        self.clock, self.dead = 0.0, frozenset()

    def dead_at(self, rank: int, t: float) -> bool:
        """``ctx.fault``: the perfect failure detector."""
        return rank in self.dead


class _Context:
    """What a handle sees: ``rank``, ``nranks``, ``observer``, ``rng``,
    ``now()`` (the run's clock) and, in a crash exploration, ``fault`` (the
    run's failure detector).  No blocking calls."""

    def __init__(self, rank: int, nranks: int, observer: Any, world: _World, crash: Optional[str] = None):
        self.rank, self.nranks, self.observer, self._world = rank, nranks, observer, world
        self.fault = world if crash is not None else None
        self._rng = None

    @property
    def rng(self) -> Any:
        # Only backoff durations draw from it, and they cost nothing here.
        if self._rng is None:
            self._rng = rank_rng(0, self.rank)
        return self._rng

    def now(self) -> float:
        return self._world.clock


@dataclass(frozen=True)
class Exploration:
    """Outcome of one exhaustive exploration.

    ``schedule`` is the witness of ``violation``: the ranks in the order
    their transitions ran, with kills and ticks, which :meth:`Explorer.replay`
    re-executes; :attr:`witness` is its text form, which it accepts too.
    """

    states: int
    transitions: int
    bypass_bound: Optional[int]
    max_bypass: int
    violation: Optional[str] = None
    schedule: Tuple[Any, ...] = ()

    @property
    def ok(self) -> bool:
        return self.violation is None

    @property
    def witness(self) -> str:
        return ", ".join(map(str, self.schedule))


def _rank_program(lock: Any, role: str, rounds: int, rank: int) -> Steps:
    if role == "-":
        return
    acquire, release = (
        (lock.acquire_read_steps, lock.release_read_steps) if role == "r" else (lock.acquire_steps, lock.release_steps)
    )
    done = 0
    while done < rounds:
        yield from acquire()
        yield (GET, rank, 0)  # the critical section's scheduling point
        yield from release()
        done += 1


def _frames(gen: Any):
    """The frames of ``gen``'s ``yield from`` chain, outermost first."""
    while type(gen) is GeneratorType and gen.gi_frame is not None:
        yield gen.gi_frame
        gen = gen.gi_yieldfrom


def _handles(lock: Any) -> List[Any]:
    """``lock`` and the handles it holds (objects with a ``ctx`` of their own,
    as attributes or inside a tuple, list or dict attribute)."""
    found, todo = {}, [lock]
    while todo:
        handle = todo.pop()
        found[id(handle)] = handle
        for value in vars(handle).values():
            kind = type(value)
            for item in value if kind is tuple or kind is list else value.values() if kind is dict else (value,):
                if hasattr(item, "ctx") and hasattr(item, "__dict__") and id(item) not in found:
                    todo.append(item)
    return list(found.values())


def _plain(value: Any) -> Any:
    """``value`` as a state-key item: primitives, enum members and tuples of
    them as they are, anything else opaque.  A tuple's item depends on its
    identity alone: what it holds never changes, and a list in it is opaque."""
    kind = type(value)
    if kind in _PRIMITIVE:
        return value
    if kind is tuple:
        items = tuple(map(_plain, value))
        return items if _OPAQUE not in items else _OPAQUE
    return value if isinstance(value, Enum) else _OPAQUE


class _Oracle(RecoveryOracleObserver):
    """The live oracles, counting the events that change their state: two
    transitions that both do never commute."""

    touches = 0

    def on_rmw(self, rank: int, call: Any) -> None:
        # Mirrors LockOracleObserver.on_rmw: an RMW counts against a waiter
        # (``_wait_baseline``) until it is ordered (``_ordered``).
        # ``_Run.identity`` reads the same two books and ``_entries``.
        self.touches += rank in self._wait_baseline and not self._ordered.get(rank, False)
        super().on_rmw(rank, call)

    def wait_start(self, rank: int, mode: str, t: float) -> None:
        self.touches += 1
        super().wait_start(rank, mode, t)

    def acquired(self, rank: int, mode: str, t: float) -> None:
        self.touches += 1
        super().acquired(rank, mode, t)

    def released(self, rank: int, mode: str, t: float) -> None:
        self.touches += 1
        super().released(rank, mode, t)


def _independent(a: tuple, b: tuple) -> bool:
    """Whether two transitions' ``(cells, writes, touches)`` commute (``cells``
    is None for one that may touch anything)."""
    if a[0] is None or b[0] is None or (a[2] and b[2]):
        return False
    return not (a[1] or b[1]) or a[0].isdisjoint(b[0])


class _Rank:
    __slots__ = ("program", "lock", "handles", "tuples", "request", "key", "issued", "blocked")

    def __init__(self, program: Steps, lock: Any):
        self.program, self.lock, self.handles = program, lock, None
        #: id -> (tuple, its state-key item); holding the tuple pins its id.
        self.tuples: Dict[int, tuple] = {}
        #: The scheduling request the rank waits to run; None once finished.
        self.request: Optional[tuple] = None
        self.key: Optional[int] = None
        #: (program position, request) -> write version at its last issue.
        self.issued: Dict[tuple, int] = {}
        #: The write version the rank is spin-blocked at (-1: none).
        self.blocked = -1

    def state(self) -> tuple:
        """The generator stack and the handles' plain attributes."""
        stack = []
        for frame in _frames(self.program):
            # Sorted: a frame's f_locals dict keeps the order its names were
            # first seen in, which depends on when it was read.
            stack.append((frame.f_code, frame.f_lasti, tuple(sorted(self.items(frame.f_locals)))))
        if self.handles is None:
            self.handles = _handles(self.lock)
        return tuple(stack), tuple(item for handle in self.handles for item in self.items(vars(handle)))

    def items(self, names: Mapping[str, Any]) -> List[tuple]:
        """``(name, state-key item)`` for the values of ``names`` the key sees."""
        out = []
        for name, value in names.items():
            kind = type(value)
            if kind is tuple:
                hit = self.tuples.get(id(value))
                if hit is None:
                    hit = self.tuples[id(value)] = (value, _plain(value))
                item = hit[1]
            else:
                item = value if kind in _PRIMITIVE else _plain(value)
            if item is not _OPAQUE:
                out.append((name, item))
        return out


class _Run:
    """One execution of an :class:`Explorer` setup, driven transition by transition.

    ``track=False`` skips the spin reduction's books, for a replay to a
    state whose books :meth:`restore` then puts back.
    """

    def __init__(self, explorer: "Explorer", *, track: bool = True):
        self.track, self.crash = track, explorer.crash
        self.words, self.nranks = explorer.words, explorer.nranks
        self.mem = array("q", explorer.image)
        self.version = 0  # cell changes (and kills and ticks) so far
        self.releases = 0  # barrier releases so far
        self.world = _World()
        #: The lease deadline the dead holder announced, if it did.
        self.expiry: Optional[float] = None
        self.error: Optional[str] = None
        self.observer = _Oracle(lease_us=explorer.lease_us, bypass_bound=explorer.bypass_bound)
        self.observer.on_run_start(self.nranks)
        self.ranks: List[_Rank] = []
        for rank in range(self.nranks):
            ctx = _Context(rank, self.nranks, self.observer, self.world, self.crash)
            lock = observe_lock(explorer.spec.make(ctx), ctx, self.observer)
            self.ranks.append(_Rank(_rank_program(lock, explorer.roles[rank], explorer.rounds, rank), lock))
        for index in range(self.nranks):
            self._advance(index, None)

    def _cell(self, target: int, offset: int) -> int:
        if not 0 <= target < self.nranks:
            raise ValueError(f"target rank {target} out of range 0..{self.nranks - 1}")
        if not 0 <= offset < self.words:
            raise IndexError(f"window offset {offset} out of range 0..{self.words - 1}")
        return target * self.words + offset

    def footprint(self, index: Any) -> Tuple[Optional[frozenset], bool]:
        """The cells rank ``index``'s pending request touches, and whether it
        writes (a kill or a tick may touch anything)."""
        if type(index) is not int:
            return None, True
        request = self.ranks[index].request
        kind = request[0]
        try:
            if kind == SPIN:
                return frozenset(self._cell(t, o) for t, o in request[1]), False
            if kind == GET or kind == SPIN_WHILE:
                return frozenset((self._cell(request[1], request[2]),)), False
            at = 3 if kind == CAS else 2
            return frozenset((self._cell(request[at], request[at + 1]),)), True
        except (TypeError, ValueError, IndexError):  # the step raises it at the yield
            return None, True

    def _crash_step(self, action: str) -> None:
        """A tick, or a kill of rank ``int(action[5:])``."""
        self.version += 1  # wakes the ranks the spin reduction holds
        if action == TICK:
            self.world.clock = self.expiry
            return
        index = int(action[5:])
        r, obs = self.ranks[index], self.observer
        if index in obs._holders:
            self.expiry = obs._lease_deadline.get(index)
        try:
            r.program.close()
        except Exception as exc:  # noqa: BLE001 - a generator that ignores the close
            self.error = self.error or f"[error] rank {index}: {type(exc).__name__}: {exc}"
        r.request, r.key, r.blocked = None, None, -1
        world = self.world
        world.dead = world.dead | {index}
        obs.on_crash(index, world.clock)

    def step(self, index: Any) -> None:
        """Run rank ``index``'s pending request and advance it to its next one
        (or run a kill or a tick: any schedule item)."""
        if type(index) is not int:
            self._crash_step(index)
            return
        request = self.ranks[index].request
        kind, mem = request[0], self.mem
        try:
            if kind == GET:
                value = mem[self._cell(request[1], request[2])]
            elif kind == SPIN_WHILE:
                value = mem[self._cell(request[1], request[2])]
                request[3](value)  # a predicate that raises does so at the yield
            elif kind == SPIN:
                value = [mem[self._cell(t, o)] for t, o in request[1]]
                request[2](value)
            else:
                value = self._write(kind, request)
        except Exception as exc:  # noqa: BLE001 - raised at the request's yield
            self._advance(index, None, exc)
            return
        if kind == FAO or kind == CAS:
            self.observer.on_rmw(index, CALLS[kind])
        self._advance(index, value)

    def _write(self, kind: int, request: tuple) -> Any:
        mem = self.mem
        if kind == CAS:
            at = self._cell(request[3], request[4])
            value = old = mem[at]
            new = int(request[1]) if old == int(request[2]) else old
        else:
            at = self._cell(request[2], request[3])
            old, operand = mem[at], int(request[1])
            if kind == PUT:
                value, new = None, operand
            else:
                op = request[4] if len(request) > 4 else AtomicOp.SUM
                new = old + operand if op is AtomicOp.SUM else operand
                value = old if kind == FAO else None
        if new != old:
            mem[at] = new  # OverflowError outside int64, as a window raises
            self.version += 1
        return value

    def _advance(self, index: int, value: Any, error: Optional[BaseException] = None) -> None:
        r = self.ranks[index]
        gen, r.key, r.request = r.program, None, None
        try:
            request = gen.send(value) if error is None else gen.throw(error)
            for _ in range(_INLINE_LIMIT):
                try:
                    kind = request[0]
                except (TypeError, IndexError, KeyError):
                    raise bad_request(index, request) from None
                if kind != FLUSH and kind != COMPUTE:
                    break
                request = gen.send(None)
            else:
                raise RuntimeError(f"rank {index} yielded {_INLINE_LIMIT} requests without a scheduling point")
            if kind != BARRIER and kind not in _TRANSITIONS:
                raise bad_request(index, request)
        except StopIteration:
            return
        except Exception as exc:  # noqa: BLE001 - a crashing protocol is a verdict
            self.error = self.error or f"[error] rank {index}: {type(exc).__name__}: {exc}"
            return
        r.request = request
        if kind == BARRIER:
            if all(other.request is not None and other.request[0] == BARRIER for other in self.ranks):
                self.releases += 1
                for other in self.ranks:
                    other.request = None
                for other in range(self.nranks):
                    self._advance(other, None)
            return
        if not self.track:
            return
        # The spin reduction's key: the program position and the request's
        # data (a spin's predicate is a fresh closure on every issue).
        data = (SPIN, tuple(map(tuple, request[1]))) if kind == SPIN else request[:3] if kind == SPIN_WHILE else request
        issue = (tuple((frame.f_code, frame.f_lasti) for frame in _frames(gen)), data)
        if r.issued.get(issue) == self.version:
            r.blocked = self.version
        else:
            r.issued[issue], r.blocked = self.version, -1

    def snapshot(self) -> tuple:
        """What a replay to this state does not rebuild: the spin books and keys."""
        return tuple((dict(r.issued), r.blocked, r.key) for r in self.ranks)

    def restore(self, snapshot: tuple) -> None:
        self.track = True
        for r, (issued, blocked, key) in zip(self.ranks, snapshot):
            r.issued, r.blocked, r.key = dict(issued), blocked, key

    def enabled(self) -> List[int]:
        out, mem = [], self.mem
        for index, r in enumerate(self.ranks):
            request = r.request
            if request is None or r.blocked == self.version or request[0] == BARRIER:
                continue
            try:
                if request[0] == SPIN and request[2]([mem[self._cell(t, o)] for t, o in request[1]]):
                    continue
                if request[0] == SPIN_WHILE and request[3](mem[self._cell(request[1], request[2])]):
                    continue
            except Exception:  # noqa: BLE001 - enabled: the step raises it at the yield
                pass
            out.append(index)
        return out

    def actions(self) -> List[Any]:
        """The enabled ranks, then the kills and the tick the crash allows."""
        enabled = self.enabled()
        if self.crash is None:
            return enabled
        out = list(enabled)
        if self.expiry is not None and self.world.clock < self.expiry:
            out.append(TICK)
        if self.world.dead:
            return out
        obs = self.observer
        if self.crash == "holder-crash":
            victims = sorted(obs._holders)
        else:
            victims = [
                v for v in sorted(obs._wait_baseline)
                if v not in enabled and self.ranks[v].request is not None and not self._written(v)
            ]
        return out + [f"kill {v}" for v in victims]

    def _written(self, index: int) -> bool:
        """Whether another rank's pending request writes a cell ``index`` waits on."""
        cells = self.footprint(index)[0]
        for other, r in enumerate(self.ranks):
            if other != index and r.request is not None:
                touched, writes = self.footprint(other)
                if writes and (cells is None or touched is None or not touched.isdisjoint(cells)):
                    return True
        return False

    def identity(self, intern: Dict[tuple, int]) -> tuple:
        keys, blocked = [], 0
        for index, r in enumerate(self.ranks):
            if r.key is None:
                r.key = intern.setdefault(r.state(), len(intern))
            keys.append(r.key)
            blocked |= (r.blocked == self.version) << index
        obs = self.observer  # each waiter's bypass count so far
        waiters = tuple(
            (rank, obs._ordered.get(rank, False), obs._entries - base)
            for rank, base in sorted(obs._wait_baseline.items())
        )
        if self.crash is None:
            return self.mem.tobytes(), tuple(keys), blocked, waiters
        crashed = tuple((rank, hold["mode"], hold["deadline"]) for rank, hold in sorted(obs._crashed_holds.items()))
        leases = (self.world.clock, self.expiry, self.world.dead, crashed, tuple(sorted(obs._lease_deadline.items())))
        return self.mem.tobytes(), tuple(keys), blocked, waiters, leases

    def violation(self) -> Optional[str]:
        violations = self.observer.report().violations
        return self.error or (str(violations[0]) if violations else None)

    def settle(self) -> Tuple[List[Any], Optional[str]]:
        """The possible actions, and the violation a state without any is."""
        actions = self.actions()
        if actions:
            return actions, None
        waiting = [(index, r) for index, r in enumerate(self.ranks) if r.request is not None]
        if not waiting:
            self.observer.on_run_end()
            return actions, self.violation()
        where = []
        for index, r in waiting:
            code = list(_frames(r.program))[-1].f_code
            how = "spins without effect" if r.blocked == self.version else "waits"
            name = getattr(code, "co_qualname", code.co_name)  # co_qualname: Python 3.11+
            where.append(f"rank {index} {how} at {REQUEST_METHODS[r.request[0]]} in {name}")
        return actions, "[deadlock] no rank can move: " + "; ".join(where)


class Explorer:
    """Every interleaving of one registered scheme's step programs.

    Args:
        scheme: A registered scheme name.  A ``harness=False`` scheme is
            checked through its ``conformance_adapter``.
        machine: The machine the scheme is built for (one rank per process).
        roles: One letter per rank, ``"r"`` (reader), ``"w"`` (writer) or
            ``"-"`` (idle: the rank runs nothing); readers need an RW scheme.
            Default: all writers, or for an RW scheme readers with one
            writer last.
        rounds: Acquire / critical section / release rounds per rank.
        params: Scheme parameters, as for ``SchemeInfo.build``.  Default:
            the scheme's entry in :data:`PARAMS`, else its registry defaults.
        crash: None, or one of :data:`CRASHES`: the scenario whose kills the
            search adds (see the module docstring).  The lease term the
            oracle judges by is the scheme's ``recovery_info`` one.

    Raises:
        NotExplorable: The scheme's handles are blocking-only (they implement
            no ``acquire_steps()`` generator to step), or it has no plain
            lock handles and no adapter.
    """

    def __init__(
        self,
        scheme: str,
        machine: Machine,
        *,
        roles: Optional[str] = None,
        rounds: int = 1,
        params: Optional[Mapping[str, Any]] = None,
        crash: Optional[str] = None,
    ):
        info = get_scheme(scheme)
        if crash is not None and crash not in CRASHES:
            raise ValueError(f"crash must be None or one of {CRASHES}, got {crash!r}")
        self.crash, self.lease_us = crash, recovery_info(scheme).lease_us
        self.scheme, self.nranks = scheme, machine.num_processes
        n = self.nranks
        if params is None:
            params = PARAMS.get(scheme)
        if info.harness:
            self.spec = info.build(machine, **dict(params or {}))
        elif info.conformance_adapter is not None and not params:
            self.spec = info.conformance_adapter(machine)
        else:
            raise NotExplorable(f"scheme {scheme!r} has no plain lock handles to explore with these parameters")
        if roles is None:
            roles = "r" * (n - 1) + "w" if info.rw else "w" * n
        if len(roles) != n or set(roles) - {"r", "w", "-"}:
            raise ValueError(f"roles must be one 'r', 'w' or '-' per rank ({n}), got {roles!r}")
        if "r" in roles and not info.rw:
            raise ValueError(f"scheme {scheme!r} has no reader side")
        if rounds < 1:
            raise ValueError("rounds must be >= 1")
        self.roles, self.rounds = roles, rounds
        self.bypass_bound = info.fairness_bound(n) if info.fairness_bound is not None else None
        handle = self.spec.make(_Context(0, n, None, _World()))
        if not handle.implements_steps():
            raise NotExplorable(
                f"scheme {scheme!r}: {type(handle).__name__} is blocking-only; the explorer steps "
                f"acquire_steps() / release_steps() generators, which it does not implement"
            )
        self.words = self.spec.window_words
        self.image = array("q", bytes(8 * n * self.words))
        for rank in range(n):
            for offset, value in self.spec.init_window(rank).items():
                self.image[rank * self.words + offset] = value

    def replay(self, schedule: "Sequence[Any] | str") -> Optional[str]:
        """Run ``schedule`` (or its :attr:`Exploration.witness` text) on fresh
        generators; the violation it ends in, if any."""
        if isinstance(schedule, str):
            schedule = [int(item) if item.isdigit() else item for item in map(str.strip, schedule.split(",")) if item]
        run = _Run(self)
        for action in schedule:
            if run.violation() is not None:
                break
            run.step(action)
        return run.violation() or run.settle()[1]

    def explore(self) -> Exploration:
        """Depth-first search of every reachable state (see the module docstring).

        Stops at the first violation or deadlock; raises
        :class:`StateExplosionError` past :data:`MAX_STATES` distinct states.
        """
        intern: Dict[tuple, int] = {}
        live = _Run(self)
        actions, bad = live.settle()
        bad = live.violation() or bad
        seen: Dict[tuple, frozenset] = {live.identity(intern): frozenset()}
        transitions, max_bypass = 0, live.observer.report().max_bypass
        # Each frame: a state's schedule, the actions still to run from it,
        # its snapshot, and the transitions asleep there (action -> footprint).
        frames = [((), actions[::-1], live.snapshot(), {})]
        at: Tuple[Any, ...] = ()
        while frames and bad is None:
            prefix, todo, snapshot, asleep = frames[-1]
            if not todo:
                frames.pop()
                continue
            action = todo.pop()
            if at != prefix:
                live = _Run(self, track=False)
                for earlier in prefix:
                    live.step(earlier)
                live.restore(snapshot)
            cells, writes = live.footprint(action)
            touches, releases = live.observer.touches, live.releases
            live.step(action)
            transitions, at = transitions + 1, prefix + (action,)
            info = (cells if live.releases == releases else None, writes, live.observer.touches != touches)
            sleep = {other: done for other, done in asleep.items() if _independent(done, info)}
            asleep[action] = info
            max_bypass = max(max_bypass, live.observer.report().max_bypass)
            bad = live.violation()
            if bad is not None:
                break
            key = live.identity(intern)
            slept = seen.get(key)
            if slept is None:
                seen[key] = frozenset(sleep)
                if len(seen) > MAX_STATES:
                    raise StateExplosionError(f"{self.scheme}: exceeded the budget of {MAX_STATES} explored states")
                actions, bad = live.settle()
                todo = [a for a in actions if a not in sleep]
            else:
                woken = slept.difference(sleep)
                if not woken:
                    continue
                seen[key] = slept.intersection(sleep)
                todo = [a for a in live.actions() if a in woken]
            if todo:
                frames.append((at, todo[::-1], live.snapshot(), sleep))
        return Exploration(
            states=len(seen), transitions=transitions, bypass_bound=self.bypass_bound, max_bypass=max_bypass,
            violation=bad, schedule=at if bad is not None else (),
        )
