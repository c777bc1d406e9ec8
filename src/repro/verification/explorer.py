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

The judge is the live :class:`~repro.verification.oracles.LockOracleObserver`
(mutual exclusion, reader/writer exclusion, handoff, the registered
``fairness_bound``), attached through ``observe_lock`` and ``on_rmw``.  A
state where no rank can move and one is unfinished is a deadlock; a
spin-blocked rank cannot move, so a livelock is one too.  Time stands still
(``ctx.now()`` is 0) and no rank crashes: crash and lease-expiry
exploration is out of scope.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from enum import Enum
from types import GeneratorType
from typing import Any, Dict, List, Mapping, Optional, Tuple

from repro.api.registry import get_scheme
from repro.rma.ops import CALLS, AtomicOp
from repro.rma.runtime_base import (
    ACCUMULATE, BARRIER, CAS, COMPUTE, FAO, FLUSH, GET, PUT, REQUEST_METHODS, SPIN, SPIN_WHILE, Steps,
    bad_request,
)
from repro.topology.machine import Machine
from repro.util.rng import rank_rng
from repro.verification.interleaving import StateExplosionError
from repro.verification.oracles import LockOracleObserver, observe_lock

__all__ = ["MAX_STATES", "PARAMS", "Exploration", "Explorer", "NotExplorable"]

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


class NotExplorable(TypeError):
    """The scheme has no step programs to explore (blocking-only handles, or
    no plain lock handles at all)."""


class _Context:
    """What a handle sees: ``rank``, ``nranks``, ``observer``, ``rng`` and
    ``now()``, which is always 0.  No fault plan, no blocking calls."""

    def __init__(self, rank: int, nranks: int, observer: Any):
        self.rank, self.nranks, self.observer = rank, nranks, observer
        self._rng = None

    @property
    def rng(self) -> Any:
        # Only backoff durations draw from it, and they cost nothing here.
        if self._rng is None:
            self._rng = rank_rng(0, self.rank)
        return self._rng

    def now(self) -> float:
        return 0.0


@dataclass(frozen=True)
class Exploration:
    """Outcome of one exhaustive exploration.

    ``schedule`` is the witness of ``violation``: the ranks in the order
    their transitions ran, which :meth:`Explorer.replay` re-executes.
    """

    states: int
    transitions: int
    bypass_bound: Optional[int]
    max_bypass: int
    violation: Optional[str] = None
    schedule: Tuple[int, ...] = ()

    @property
    def ok(self) -> bool:
        return self.violation is None


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


class _Oracle(LockOracleObserver):
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
        self.track = track
        self.words, self.nranks = explorer.words, explorer.nranks
        self.mem = array("q", explorer.image)
        self.version = 0  # cell changes so far
        self.releases = 0  # barrier releases so far
        self.error: Optional[str] = None
        self.observer = _Oracle(bypass_bound=explorer.bypass_bound)
        self.observer.on_run_start(self.nranks)
        self.ranks: List[_Rank] = []
        for rank in range(self.nranks):
            ctx = _Context(rank, self.nranks, self.observer)
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

    def footprint(self, index: int) -> Tuple[Optional[frozenset], bool]:
        """The cells rank ``index``'s pending request touches, and whether it writes."""
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

    def step(self, index: int) -> None:
        """Run rank ``index``'s pending request and advance it to its next one."""
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
        return self.mem.tobytes(), tuple(keys), blocked, waiters

    def violation(self) -> Optional[str]:
        violations = self.observer.report().violations
        return self.error or (str(violations[0]) if violations else None)

    def settle(self) -> Tuple[List[int], Optional[str]]:
        """The enabled ranks, and the violation a state without any is."""
        enabled = self.enabled()
        if enabled:
            return enabled, None
        waiting = [(index, r) for index, r in enumerate(self.ranks) if r.request is not None]
        if not waiting:
            self.observer.on_run_end()
            return enabled, self.violation()
        where = []
        for index, r in waiting:
            code = list(_frames(r.program))[-1].f_code
            how = "spins without effect" if r.blocked == self.version else "waits"
            name = getattr(code, "co_qualname", code.co_name)  # co_qualname: Python 3.11+
            where.append(f"rank {index} {how} at {REQUEST_METHODS[r.request[0]]} in {name}")
        return enabled, "[deadlock] no rank can move: " + "; ".join(where)


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
    ):
        info = get_scheme(scheme)
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
        handle = self.spec.make(_Context(0, n, None))
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

    def replay(self, schedule: Tuple[int, ...]) -> Optional[str]:
        """Run ``schedule`` on fresh generators; the violation it ends in, if any."""
        run = _Run(self)
        for index in schedule:
            if run.violation() is not None:
                break
            run.step(index)
        return run.violation() or run.settle()[1]

    def explore(self) -> Exploration:
        """Depth-first search of every reachable state (see the module docstring).

        Stops at the first violation or deadlock; raises
        :class:`~repro.verification.interleaving.StateExplosionError` past
        :data:`MAX_STATES` distinct states.
        """
        intern: Dict[tuple, int] = {}
        live = _Run(self)
        enabled, bad = live.settle()
        bad = live.violation() or bad
        seen: Dict[tuple, frozenset] = {live.identity(intern): frozenset()}
        transitions, max_bypass = 0, live.observer.report().max_bypass
        # Each frame: a state's schedule, the ranks still to run from it, its
        # snapshot, and the transitions asleep there (rank -> footprint).
        frames = [((), enabled[::-1], live.snapshot(), {})]
        at: Tuple[int, ...] = ()
        while frames and bad is None:
            prefix, todo, snapshot, asleep = frames[-1]
            if not todo:
                frames.pop()
                continue
            index = todo.pop()
            if at != prefix:
                live = _Run(self, track=False)
                for earlier in prefix:
                    live.step(earlier)
                live.restore(snapshot)
            cells, writes = live.footprint(index)
            touches, releases = live.observer.touches, live.releases
            live.step(index)
            transitions, at = transitions + 1, prefix + (index,)
            info = (cells if live.releases == releases else None, writes, live.observer.touches != touches)
            sleep = {rank: other for rank, other in asleep.items() if _independent(other, info)}
            asleep[index] = info
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
                enabled, bad = live.settle()
                todo = [rank for rank in enabled if rank not in sleep]
            else:
                woken = slept.difference(sleep)
                if not woken:
                    continue
                seen[key] = slept.intersection(sleep)
                todo = [rank for rank in live.enabled() if rank in woken]
            if todo:
                frames.append((at, todo[::-1], live.snapshot(), sleep))
        return Exploration(
            states=len(seen), transitions=transitions, bypass_bound=self.bypass_bound, max_bypass=max_bypass,
            violation=bad, schedule=at if bad is not None else (),
        )
