"""Shared helpers for the test-suite.

The lock tests all follow the same pattern: run an SPMD program in which
every rank repeatedly enters a critical section guarded by the lock under
test, and instrument the critical section so that any mutual-exclusion
violation is recorded in the windows (rather than raising inside the
simulated program).  The helpers here build those programs for both the
mutual-exclusion and the reader-writer cases, as step programs, and run them
in either of the :data:`STYLES` on horizon or on another runtime class
(:func:`check_on_every_path` runs all three paths and compares them).
:data:`MUTANTS` holds the known-unsafe protocol variants the model checker
must find, as step methods to patch into the real handles.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterator, List, Mapping, Optional, Sequence, Tuple

import pytest

from repro.bench.campaign import run_result_sha
from repro.core.constants import NULL_RANK, WRITE_FLAG
from repro.core.counter import DistributedCounterHandle
from repro.core.dmcs import QueueNode
from repro.core.lock_base import LockSpec, RWLockSpec
from repro.fault import lease_lock as lease_module
from repro.fault.lease_lock import LeaseLockHandle
from repro.fault.repair_mcs import RacyRepairMCSLockHandle, RepairMCSLockHandle
from repro.related import alock as alock_module
from repro.related.lock_server import LockServerHandle
from repro.rma.ops import AtomicOp
from repro.rma.runtime_base import (
    ACCUMULATE, BARRIER, CAS, COMPUTE, FAO, FLUSH, GET, PUT, SPIN_WHILE, RMARuntime, RunResult,
    WindowInit, blocking_program,
)
from repro.rma.sim_runtime import SimRuntime
from repro.topology.machine import Machine

from tests.reference import ReferenceRuntime

__all__ = [
    "MUTANTS",
    "Mutant",
    "MutexOutcome",
    "RWOutcome",
    "STYLES",
    "check_on_every_path",
    "isolated_result_cache",
    "rank_threads_started",
    "run_mutex_check",
    "run_rw_check",
]


@pytest.fixture(autouse=True, scope="session")
def isolated_result_cache(tmp_path_factory) -> Iterator[None]:
    """Point the result cache (``REPRO_CACHE_DIR``) at a session tmp dir.

    Every sweep caches by default, the figure drivers included; without this
    a test run would fill the checkout's ``.repro-cache``.  Subprocesses
    started by tests inherit the variable.
    """
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("REPRO_CACHE_DIR", str(tmp_path_factory.mktemp("repro-cache")))
        yield


def smoke(suite: str) -> Mapping[str, Any]:
    """The values ``--smoke`` gives the sweep subcommand ``suite``."""
    from repro.bench.suites import SUITES

    return next(record.smoke for record in SUITES if record.name == suite)


@contextmanager
def rank_threads_started() -> Iterator[List[str]]:
    """Names of the simulator rank threads started inside the block.

    The horizon runtime steps a step program inline, on the calling thread,
    and gives a blocking program one bridged ``sim-rank-*`` thread per rank;
    "no ``sim-rank-*`` thread was started" is how the tests assert that the
    inline driver stayed engaged (and a full set, that a run was bridged).
    Also checks that the block leaves no thread running.
    """
    before = set(threading.enumerate())
    names: List[str] = []
    start = threading.Thread.start

    def recording_start(thread: threading.Thread) -> None:
        if thread.name.startswith("sim-rank-"):
            names.append(thread.name)
        start(thread)

    threading.Thread.start = recording_start
    try:
        yield names
    finally:
        threading.Thread.start = start
    assert set(threading.enumerate()) <= before, "a run left threads behind"


#: How the instrumented programs run.  Each is written once, as a step program:
#: ``"blocking"`` runs it through :func:`~repro.rma.runtime_base.blocking_program`
#: (on horizon, one bridged rank thread per rank: the path user code takes),
#: ``"step"`` as it is (stepped inline; the only style the reference runs).
STYLES = ("blocking", "step")

#: Simulated "hold the lock" time inside instrumented critical sections (µs).
CS_HOLD_US = 0.4


@dataclass
class MutexOutcome:
    """Result of an instrumented mutual-exclusion run."""

    violations: int
    acquisitions: int
    expected_acquisitions: int
    total_time_us: float
    #: :func:`~repro.bench.campaign.run_result_sha` of the run.
    fingerprint: str

    @property
    def ok(self) -> bool:
        return self.violations == 0 and self.acquisitions == self.expected_acquisitions


@dataclass
class RWOutcome:
    """Result of an instrumented reader-writer run."""

    violations: int
    acquisitions: int
    expected_acquisitions: int
    max_concurrent_readers: int
    reads: int
    writes: int
    total_time_us: float
    #: :func:`~repro.bench.campaign.run_result_sha` of the run.
    fingerprint: str

    @property
    def ok(self) -> bool:
        return self.violations == 0 and self.acquisitions == self.expected_acquisitions


def _run_check(
    program: Callable[..., Any],
    machine: Machine,
    window_words: int,
    *,
    window_init: WindowInit,
    style: str,
    make_runtime: Callable[..., RMARuntime],
    seed: int,
) -> Tuple[RMARuntime, RunResult]:
    if style not in STYLES:
        raise ValueError(f"style must be one of {STYLES}, got {style!r}")
    rt = make_runtime(machine, window_words=window_words, seed=seed)
    if style == "blocking":
        program = blocking_program(program)
    return rt, rt.run(program, window_init=window_init)


def run_mutex_check(
    spec: LockSpec,
    machine: Machine,
    *,
    iterations: int = 5,
    seed: int = 0,
    style: str = "blocking",
    make_runtime: Callable[..., RMARuntime] = SimRuntime,
) -> MutexOutcome:
    """Run every rank through ``iterations`` instrumented critical sections."""
    owner_off = spec.window_words
    counter_off = spec.window_words + 1
    violations_off = spec.window_words + 2

    def window_init(rank: int) -> Dict[int, int]:
        values = dict(spec.init_window(rank))
        if rank == 0:
            values[owner_off] = NULL_RANK
        return values

    def program(ctx):
        lock = spec.make(ctx)
        yield (BARRIER,)
        for _ in range(iterations):
            yield from lock.acquire_steps()
            owner = yield (GET, 0, owner_off)
            yield (FLUSH, 0)
            if owner != NULL_RANK:
                yield (ACCUMULATE, 1, 0, violations_off)
            yield (PUT, ctx.rank, 0, owner_off)
            yield (FLUSH, 0)
            yield (COMPUTE, CS_HOLD_US)
            still_me = yield (GET, 0, owner_off)
            yield (FLUSH, 0)
            if still_me != ctx.rank:
                yield (ACCUMULATE, 1, 0, violations_off)
            yield (PUT, NULL_RANK, 0, owner_off)
            yield (ACCUMULATE, 1, 0, counter_off)
            yield (FLUSH, 0)
            yield from lock.release_steps()
        yield (BARRIER,)

    rt, result = _run_check(
        program, machine, spec.window_words + 3, window_init=window_init,
        style=style, make_runtime=make_runtime, seed=seed,
    )
    window = rt.window(0)
    return MutexOutcome(
        violations=window.read(violations_off),
        acquisitions=window.read(counter_off),
        expected_acquisitions=machine.num_processes * iterations,
        total_time_us=result.total_time_us,
        fingerprint=run_result_sha(result),
    )


def run_rw_check(
    spec: RWLockSpec,
    machine: Machine,
    *,
    iterations: int = 5,
    writer_ranks: Optional[Sequence[int]] = None,
    fw: Optional[float] = None,
    seed: int = 0,
    style: str = "blocking",
    make_runtime: Callable[..., RMARuntime] = SimRuntime,
) -> RWOutcome:
    """Run an instrumented reader/writer workload.

    Roles: if ``writer_ranks`` is given those ranks always write and everyone
    else always reads; otherwise each operation is a write with probability
    ``fw`` (default 0.2).
    """
    if fw is None:
        fw = 0.2
    readers_off = spec.window_words
    writer_off = spec.window_words + 1
    counter_off = spec.window_words + 2
    violations_off = spec.window_words + 3
    max_readers_off = spec.window_words + 4

    writer_set = set(writer_ranks) if writer_ranks is not None else None

    def program(ctx):
        lock = spec.make(ctx)
        rng = ctx.rng
        yield (BARRIER,)
        reads = 0
        writes = 0
        for _ in range(iterations):
            if writer_set is not None:
                as_writer = ctx.rank in writer_set
            else:
                as_writer = bool(rng.random() < fw)
            if as_writer:
                yield from lock.acquire_write_steps()
                readers = yield (GET, 0, readers_off)
                other_writer = yield (GET, 0, writer_off)
                yield (FLUSH, 0)
                if readers != 0 or other_writer != 0:
                    yield (ACCUMULATE, 1, 0, violations_off)
                yield (PUT, 1, 0, writer_off)
                yield (FLUSH, 0)
                yield (COMPUTE, CS_HOLD_US)
                yield (PUT, 0, 0, writer_off)
                yield (ACCUMULATE, 1, 0, counter_off)
                yield (FLUSH, 0)
                yield from lock.release_write_steps()
                writes += 1
            else:
                yield from lock.acquire_read_steps()
                writer_present = yield (GET, 0, writer_off)
                yield (FLUSH, 0)
                if writer_present != 0:
                    yield (ACCUMULATE, 1, 0, violations_off)
                concurrent = (yield (FAO, 1, 0, readers_off, AtomicOp.SUM)) + 1
                yield (FLUSH, 0)
                prev_max = yield (GET, 0, max_readers_off)
                yield (FLUSH, 0)
                if concurrent > prev_max:
                    yield (PUT, concurrent, 0, max_readers_off)
                    yield (FLUSH, 0)
                yield (COMPUTE, CS_HOLD_US)
                yield (ACCUMULATE, -1, 0, readers_off)
                yield (ACCUMULATE, 1, 0, counter_off)
                yield (FLUSH, 0)
                yield from lock.release_read_steps()
                reads += 1
        yield (BARRIER,)
        return {"reads": reads, "writes": writes}

    rt, result = _run_check(
        program, machine, spec.window_words + 5, window_init=spec.init_window,
        style=style, make_runtime=make_runtime, seed=seed,
    )
    window = rt.window(0)
    return RWOutcome(
        violations=window.read(violations_off),
        acquisitions=window.read(counter_off),
        expected_acquisitions=machine.num_processes * iterations,
        max_concurrent_readers=window.read(max_readers_off),
        reads=sum(r["reads"] for r in result.returns),
        writes=sum(r["writes"] for r in result.returns),
        total_time_us=result.total_time_us,
        fingerprint=run_result_sha(result),
    )


def check_on_every_path(check: Callable[..., Any], spec: Any, machine: Machine, **kwargs: Any) -> Any:
    """Run ``check`` (:func:`run_mutex_check` or :func:`run_rw_check`) bridged
    and inline on horizon and on the reference interpreter; assert that every
    run is clean and that the three produce one :class:`RunResult`."""
    outcomes = [
        check(spec, machine, style="blocking", **kwargs),
        check(spec, machine, style="step", **kwargs),
        check(spec, machine, style="step", make_runtime=ReferenceRuntime, **kwargs),
    ]
    for outcome in outcomes:
        assert outcome.ok, outcome
    assert len({outcome.fingerprint for outcome in outcomes}) == 1, outcomes
    return outcomes[0]


# --------------------------------------------------------------------------- #
# Known-unsafe protocol variants, patched into the real handles as step methods
# --------------------------------------------------------------------------- #

@dataclass(frozen=True)
class Mutant:
    """A known-unsafe variant of one scheme: ``steps`` replaces the step
    method ``method`` of ``handle`` (a lock handle, or the queue node that
    several locks share); ``machine``, ``params``, ``crash`` and ``roles``
    are where the model checker (:mod:`repro.verification.explorer`) finds
    it, and ``finding`` the oracle its first violation comes from."""

    handle: type
    method: str
    steps: Callable[..., Any]
    scheme: str
    machine: Machine
    params: Dict[str, Any]
    finding: str = "[mutual-exclusion]"
    crash: Optional[str] = None
    roles: Optional[str] = None


def _racy_reset_steps(self, rank, *, clear_write_flag=True):
    """The seed port's counter reset: two unconditional accumulates from a
    stale read, clearing the WRITE flag in every caller."""
    spec = self.spec
    arrive = yield (GET, rank, spec.arrive_offset)
    depart = yield (GET, rank, spec.depart_offset)
    yield (FLUSH, rank)
    sub = -depart - (WRITE_FLAG if arrive >= WRITE_FLAG else 0)
    yield (ACCUMULATE, sub, rank, spec.arrive_offset, AtomicOp.SUM)
    yield (ACCUMULATE, -depart, rank, spec.depart_offset, AtomicOp.SUM)
    yield (FLUSH, rank)


def _skip_drain_steps(self):
    """The writer does not wait for the readers that arrived before WRITE mode."""
    return
    yield


def _listing_9_spin_steps(self, t_r, writer_waiting=None):
    """Listing 9 as printed: a saturated reader spins while ``ARRIVE >= T_R``,
    with no stranded-counter recovery (see ``spin_until_read_mode_steps``)."""
    yield (SPIN_WHILE, self.my_counter, self.spec.arrive_offset, lambda arrive: arrive >= t_r)


def _skip_owner_cas_steps(self):
    """ALock's remote queue head trusts the hand-off and skips the owner-word CAS."""
    if self._local:
        yield from self._claim_owner(self.spec.local_cap_us)
        return
    yield from self._queue.join()


def _unlinked_join_steps(self):
    """The shared MCS join without the PUT that links a waiter to its
    predecessor: the predecessor never sees it, so nobody hands it the lock."""
    yield self.clear_next
    yield self.set_wait
    yield self.flush_node
    pred = yield self.enqueue
    yield self.flush_tail
    if pred == NULL_RANK:
        return None
    return (yield self.spin_status)


def _blind_fast_path_steps(self):
    """A lock-server client that saw an empty queue takes ticket ``nt`` without
    checking that its claiming CAS won: the loser of the race waits for a
    ticket that was served before it."""
    spec = self.spec
    server = spec.server_rank
    while True:
        nt = yield (GET, server, spec.next_offset)
        grant = yield (GET, server, spec.grant_offset)
        yield (FLUSH, server)
        if nt - grant > spec.queue_threshold:
            ticket = yield (FAO, 1, server, spec.next_offset, AtomicOp.SUM)
            break
        if nt == grant:
            yield (CAS, nt + 1, nt, server, spec.next_offset)
            ticket = nt
            break
    yield (FLUSH, server)
    self._ticket = ticket
    yield (SPIN_WHILE, server, spec.grant_offset, lambda g: g != ticket)


def _steal_live_lease_steps(self):
    """A lease takeover that ignores the deadline: a waiter that finds the
    lock taken installs its own word over a live holder's."""
    ctx, spec = self.ctx, self.spec
    home, off = spec.home_rank, spec.lock_offset
    while True:
        word = yield (GET, home, off)
        yield (FLUSH, home)
        deadline = self._deadline(ctx.now())
        new = lease_module._pack(deadline, lease_module._unpack(word)[1] + 1 if word else 0, ctx.rank)
        prev = yield (CAS, new, word, home, off)
        yield (FLUSH, home)
        if prev == word:
            self._held_word = new
            self._announce_lease(deadline)
            return


#: The mutants the model checker must find on the real code, each in the
#: crash scenario ``crash`` names (the racy repair walk, ``repair-mcs-racy``'s
#: own, only goes wrong past a dead waiter).
MUTANTS: Dict[str, Mutant] = {
    "racy-reset": Mutant(
        DistributedCounterHandle, "reset_counter_steps", _racy_reset_steps,
        "rma-rw", Machine.single_node(3), {"t_r": 1, "t_w": 2},
    ),
    "skip-drain": Mutant(
        DistributedCounterHandle, "wait_readers_drained_steps", _skip_drain_steps,
        "rma-rw", Machine.single_node(2), {},
    ),
    "listing-9-spin": Mutant(
        DistributedCounterHandle, "spin_until_read_mode_steps", _listing_9_spin_steps,
        "rma-rw", Machine.single_node(3), {"t_r": 1, "t_w": 2}, finding="[deadlock]",
    ),
    "skip-owner-cas": Mutant(
        alock_module.ALockHandle, "acquire_steps", _skip_owner_cas_steps, "alock", Machine.cluster(3, 1), {},
    ),
    "blind-fast-path": Mutant(
        LockServerHandle, "acquire_steps", _blind_fast_path_steps, "lock-server", Machine.single_node(3), {},
        finding="[deadlock]",
    ),
    "steal-live-lease": Mutant(
        LeaseLockHandle, "acquire_steps", _steal_live_lease_steps, "lease-lock", Machine.single_node(2), {},
        crash="holder-crash",
    ),
    "racy-repair-walk": Mutant(
        RepairMCSLockHandle, "_settle_race", RacyRepairMCSLockHandle._settle_race, "repair-mcs",
        Machine.single_node(3), {}, finding="[deadlock]", crash="waiter-crash",
    ),
    # One planted bug in the one join, caught in every lock that runs it
    # (rma-rw's queues need two writers; alock's, two remote ranks;
    # repair-mcs's acquire is the join itself).
    **{
        f"unlinked-join[{scheme}]": Mutant(
            QueueNode, "join", _unlinked_join_steps, scheme, machine, {}, finding="[deadlock]", roles=roles,
        )
        for scheme, machine, roles in (
            ("d-mcs", Machine.single_node(2), None),
            ("rma-mcs", Machine.cluster(1, 2), None),
            ("rma-rw", Machine.cluster(1, 2), "ww"),
            ("alock", Machine.cluster(3, 1), None),
            ("repair-mcs", Machine.single_node(2), None),
        )
    },
}
