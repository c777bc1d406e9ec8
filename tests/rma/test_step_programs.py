"""Step programs: the inline driver against its bridged twin.

A rank program that is a generator function yields its RMA requests (see
"Step programs" in :mod:`repro.rma.runtime_base`).  The ``horizon`` runtime
steps such a program inline, on the calling thread; every other path — the
same program as a blocking program (``blocking_program``), whose rank threads
hand each call to the same loop through the bridge, the thread-free reference
interpreter (``tests/reference.py``), a run under a fault plan — must produce
the same
:class:`~repro.rma.runtime_base.RunResult` bit for bit, the same oracle
report field for field, and the same failures.

The first half is the registry-wide differential check (every built-in
scheme the harness can drive, including ``striped-rw`` through its adapter);
"the inline driver must stay engaged" is asserted by checking that no
``sim-rank-*`` thread is started.  The second half covers what a differential
run cannot: deadlocks, raising programs and predicates, misuse, ``max_ops``,
``program_args``, the re-entry guard, fault plans, the bridge's threads, and
one point through each suite entry the ledger measures.
"""

from __future__ import annotations

import heapq
import os
import threading
from collections import Counter
from dataclasses import asdict, replace

import pytest

from repro.api.registry import get_scheme, scheme_names
from repro.bench.campaign import CampaignPoint, get_campaign, run_result_sha
from repro.bench.conformance import ConformancePoint, run_conformance_point
from repro.bench.harness import (
    build_lock_spec,
    make_lock_program,
    run_lock_benchmark_detailed,
)
from repro.bench.workloads import LockBenchConfig
from repro.core.lock_base import LockHandle
from repro.fault import FaultPlan, TimelineObserver
from repro.rma.ops import AtomicOp, RMACall
from repro.rma.perturbation import PerturbationModel
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
    RunObserver,
    RuntimeError_,
    SimDeadlockError,
    blocking_program,
    is_step_program,
)
from repro.rma import sim_runtime
from repro.rma.sim_runtime import SimRuntime
from repro.topology.builder import cached_machine
from repro.topology.machine import Machine
from repro.traffic.engine import run_traffic, traffic_spec
from repro.verification.explorer import KNOWN_MUTANTS
from repro.verification.oracles import LockOracleObserver

from tests.reference import REFERENCE, ReferenceRuntime, factory
from tests.support import rank_threads_started, smoke


def _builtin_schemes():
    """Registered schemes the harness can drive whose specs live in ``repro``."""
    machine = cached_machine(8, 4)
    names = []
    for name in scheme_names():
        info = get_scheme(name)
        if not (info.harness or info.conformance_adapter is not None):
            continue
        spec, _ = build_lock_spec(LockBenchConfig(machine=machine, scheme=name, benchmark="ecsb"))
        if type(spec).__module__.startswith("repro."):
            names.append(name)
    return names


SCHEMES = _builtin_schemes()
#: The ``repro faults --smoke`` grid's schemes.
FAULT_SMOKE_SCHEMES = smoke("faults")["schemes"]


@pytest.fixture(scope="module", autouse=True)
def one_cpu():
    """Confine this module's runs to one CPU where the OS allows it.

    A third of the runs below are bridged on purpose; exactly one thread is
    runnable at a time, and letting the threads that hand calls back and
    forth migrate between CPUs makes those runs 2-4x slower for nothing.
    """
    if not hasattr(os, "sched_setaffinity"):
        yield
        return
    allowed = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(allowed)})
    try:
        yield
    finally:
        os.sched_setaffinity(0, allowed)
CHAOS = dict(latency_jitter=0.3, rank_slowdown=0.5, pause_rate=0.01, pause_us=(5.0, 40.0))


def _run(config, program, spec, scheduler, *, chaos_seed=None, **kwargs):
    """One run; returns (fingerprint, oracle report dict or None)."""
    observer = None
    if chaos_seed is not None:
        info = get_scheme(config.scheme)
        bound = info.fairness_bound(config.machine.num_processes) if info.fairness_bound else None
        observer = LockOracleObserver(bypass_bound=bound)
        kwargs.update(perturbation=PerturbationModel(seed=chaos_seed, **CHAOS), observer=observer)
    runtime = factory(scheduler)(
        config.machine, window_words=spec.window_words + 2, seed=config.seed, **kwargs
    )
    result = runtime.run(program, window_init=spec.init_window)
    return run_result_sha(result), (asdict(observer.report()) if observer else None)


class TestRegistryWideDifferential:
    def test_every_builtin_family_is_covered(self):
        assert {"rma-rw", "rma-mcs", "d-mcs", "fompi-spin", "fompi-rw", "ticket", "hbo",
                "cohort", "numa-rw", "alock", "lock-server", "lease-lock", "repair-mcs",
                "striped-rw"} <= set(SCHEMES)

    @pytest.mark.parametrize("procs", [8, 32])
    @pytest.mark.parametrize("workload", ["ecsb", "wcsb", "warb"])
    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_inline_equals_threads_equals_reference(self, scheme, workload, procs):
        machine = cached_machine(procs, 8 if procs == 32 else 4)
        for seed in (3, 7):
            config = LockBenchConfig(
                machine=machine, scheme=scheme, benchmark=workload,
                iterations=4 if procs == 8 else 2, fw=0.2, seed=seed,
            )
            spec, is_rw = build_lock_spec(config)
            program = make_lock_program(config, spec, is_rw, spec.window_words)
            assert is_step_program(program)
            for chaos_seed in (None, seed):
                with rank_threads_started() as threads:
                    inline = _run(config, program, spec, "horizon", chaos_seed=chaos_seed)
                assert not threads, "the inline driver must stay engaged"
                with rank_threads_started() as threads:
                    bridged = _run(
                        config, blocking_program(program), spec, "horizon",
                        chaos_seed=chaos_seed,
                    )
                assert len(threads) == procs
                reference = _run(config, program, spec, REFERENCE, chaos_seed=chaos_seed)
                assert inline == bridged == reference, (scheme, workload, procs, seed, chaos_seed)
                if chaos_seed is not None:
                    assert inline[1]["acquires"] == procs * config.iterations
                    assert not inline[1]["violations"]


class _ThreadTracer(RunObserver):
    """Counts the ops the runtime charges, by the thread that charged them."""

    def __init__(self):
        self.threads = Counter()

    def on_request(self, rank, call, target, start_us, duration_us):
        self.threads[threading.get_ident()] += 1


class TestOneSiteForEveryRequest:
    """Count-based guard: every request of every run — a step program's, a
    poll leg's, a bridged blocking program's, a faulted rank's — is charged
    by ``SimRuntime._drive``, entered once per run, on the thread that called
    ``run()``.  An op charged on a rank thread, or by a second loop, means a
    second scheduler is back."""

    @staticmethod
    def _point(scheme):
        config = LockBenchConfig(
            machine=cached_machine(8, 4), scheme=scheme, benchmark="wcsb",
            iterations=4, fw=0.2, seed=11,
        )
        spec, is_rw = build_lock_spec(config)
        return config, spec, make_lock_program(config, spec, is_rw, spec.window_words)

    @staticmethod
    def _charged(monkeypatch, config, program, spec, **kwargs):
        """One horizon run; returns (fingerprint, rank threads started)."""
        entries = []
        drive = SimRuntime._drive

        def counted_drive(self, s):
            entries.append(threading.get_ident())
            return drive(self, s)

        monkeypatch.setattr(SimRuntime, "_drive", counted_drive)
        tracer = _ThreadTracer()
        runtime = SimRuntime(
            config.machine, window_words=spec.window_words + 2, seed=config.seed,
            observer=tracer, **kwargs,
        )
        with rank_threads_started() as threads:
            result = runtime.run(program, window_init=spec.init_window)
        monkeypatch.setattr(SimRuntime, "_drive", drive)
        assert entries == [threading.get_ident()]
        assert tracer.threads == {threading.get_ident(): result.total_ops()}
        return run_result_sha(result), len(threads)

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_one_site_charges_inline_and_bridged_runs_alike(self, scheme, monkeypatch):
        config, spec, program = self._point(scheme)
        inline, inline_threads = self._charged(monkeypatch, config, program, spec)
        bridged, bridged_threads = self._charged(monkeypatch, config, blocking_program(program), spec)
        # Not vacuous: the bridged twin ran on rank threads, yet charged nothing there.
        assert (inline_threads, bridged_threads) == (0, 8)
        assert inline == bridged == _run(config, program, spec, REFERENCE)[0], scheme

    @pytest.mark.parametrize("scheme", ["lease-lock", "repair-mcs"])
    def test_one_site_charges_a_faulted_run(self, scheme, monkeypatch):
        config, spec, program = self._point(scheme)
        plan = FaultPlan.single(2, kill_us=6.0, restart_us=300.0)
        inline, threads = self._charged(monkeypatch, config, program, spec, fault_plan=plan)
        assert threads == 0
        assert inline == _run(config, program, spec, REFERENCE, fault_plan=plan)[0]


class TestOnlyOverriddenHooks:
    """Count-based guard: a runtime calls only the per-request hooks an
    observer's class overrides, so a hook nobody overrides costs a run
    nothing.  The base class's no-ops are counted: a runtime that calls a
    hook regardless shows up as a non-zero count."""

    @staticmethod
    def _counted(monkeypatch, observer, scheduler):
        config, spec, program = TestOneSiteForEveryRequest._point("rma-rw")
        calls = Counter()

        def counting(name):
            return lambda self, *args: calls.update((name,))

        for name in ("on_rmw", "on_request"):
            monkeypatch.setattr(RunObserver, name, counting(name))
        runtime = factory(scheduler)(
            config.machine, window_words=spec.window_words + 2, seed=config.seed, observer=observer
        )
        result = runtime.run(program, window_init=spec.init_window)
        return calls, result

    @pytest.mark.parametrize("scheduler", ["horizon", REFERENCE])
    def test_overridden_hooks_only_timeline_takes_no_request_hook(self, monkeypatch, scheduler):
        timeline = TimelineObserver()
        calls, result = self._counted(monkeypatch, timeline, scheduler)
        assert calls == Counter()
        assert result.op_counts["fao"] and len(timeline.holds) == 8 * 4  # not vacuous

    @pytest.mark.parametrize("scheduler", ["horizon", REFERENCE])
    def test_overridden_hooks_only_oracle_takes_one_rmw_per_atomic(self, monkeypatch, scheduler):
        rmws = Counter()
        on_rmw = LockOracleObserver.on_rmw

        def counted_rmw(self, rank, call):
            rmws[call] += 1
            on_rmw(self, rank, call)

        monkeypatch.setattr(LockOracleObserver, "on_rmw", counted_rmw)
        calls, result = self._counted(monkeypatch, LockOracleObserver(), scheduler)
        assert calls == Counter()
        assert {call.value: n for call, n in rmws.items()} == {
            name: result.op_counts[name] for name in ("fao", "cas") if name in result.op_counts
        }
        assert rmws[RMACall.FAO] > 0


# --------------------------------------------------------------------------- #
# Failure modes, lifecycle, misuse
# --------------------------------------------------------------------------- #

def make_runtime(**kwargs) -> SimRuntime:
    kwargs.setdefault("window_words", 8)
    return SimRuntime(Machine.cluster(nodes=2, procs_per_node=2), **kwargs)


def make_reference():
    """The reference interpreter on ``make_runtime``'s machine and window."""
    return ReferenceRuntime(Machine.cluster(nodes=2, procs_per_node=2), window_words=8)


def _observed_point(workload, scheduler):
    """One perturbed + observed conformance point."""
    return ConformancePoint(
        CampaignPoint(scheme="rma-rw", benchmark=workload, procs=8, procs_per_node=4,
                      iterations=5, fw=0.2, seed=5, scheduler=scheduler),
        perturb_seed=2,
    )


def _on(point, scheduler):
    """A verdict-sweep point with its grid point moved to ``scheduler``."""
    return replace(point, point=replace(point.point, scheduler=scheduler))


def _traffic_point():
    return traffic_spec(
        schemes=("d-mcs", "striped-rw"), scenarios=("traffic-zipf",),
        process_counts=(8,), iterations=6,
    )


def _failure(program, **kwargs):
    """The exception ``program`` fails with, inline (asserted) or on threads."""
    runtime = make_runtime(**kwargs)
    with rank_threads_started() as threads:
        with pytest.raises(Exception) as info:
            runtime.run(program)
    assert bool(threads) != is_step_program(program)
    return info.value


class TestFailuresMatchTheBlockingTwin:
    def test_deadlock_report_is_identical(self):
        def steps(ctx):
            yield (COMPUTE, 1.5 * ctx.rank)
            if ctx.rank == 3:
                yield (BARRIER,)
            elif ctx.rank:
                yield (SPIN, [(2, 5), (ctx.rank, 0), (0, 7), (2, 1)], lambda vs: vs[0] == 0)
            return ctx.rank

        def blocking(ctx):
            ctx.compute(1.5 * ctx.rank)
            if ctx.rank == 3:
                ctx.barrier()
            elif ctx.rank:
                ctx.spin_on_cells([(2, 5), (ctx.rank, 0), (0, 7), (2, 1)], lambda vs: vs[0] == 0)
            return ctx.rank

        inline, threaded = _failure(steps), _failure(blocking)
        assert type(inline) is type(threaded) is SimDeadlockError
        assert str(inline) == str(threaded)
        # Cells of several targets, given out of order: listed by (rank, offset).
        report = str(inline).split(": ", 1)[1]
        assert report.startswith(
            "rank 1: parked on (rank 0, offset 7), (rank 1, offset 0), (rank 2, offset 1), "
            "(rank 2, offset 5) at t="
        )
        assert "; rank 2: parked on (rank 0, offset 7), (rank 2, offset 0), (rank 2, offset 1), " in report
        assert "; rank 3: waiting at barrier at t=4.50us" in report
        with pytest.raises(SimDeadlockError) as seed:
            make_reference().run(steps)
        assert str(seed.value).split(": ", 1)[1] == report

    def test_raising_program_surfaces_its_exception(self):
        def steps(ctx):
            yield (BARRIER,)
            if ctx.rank == 1:
                raise ValueError("boom from rank 1")
            yield (BARRIER,)

        error = _failure(steps)
        assert type(error) is ValueError and str(error) == "boom from rank 1"

    def test_raising_spin_predicate_surfaces_and_never_leaks_across_ranks(self):
        def flaky(v):
            if v != 0:
                raise ValueError("predicate exploded")
            return True

        leaked = []

        def steps(ctx):
            if ctx.rank == 1:
                yield (SPIN_WHILE, 1, 0, flaky)
            elif ctx.rank == 0:
                try:
                    yield (COMPUTE, 50.0)
                    yield (PUT, 1, 1, 0)  # wakes rank 1, whose re-poll raises
                    yield (FLUSH, 1)
                    yield (COMPUTE, 50.0)
                except ValueError:
                    leaked.append(ctx.rank)

        error = _failure(steps)
        assert type(error) is ValueError and str(error) == "predicate exploded"
        assert not leaked

    def test_first_poll_predicate_error_is_raised_at_the_yield(self):
        """While the spinner stays below the horizon its first poll round is
        part of its own turn, so the error is the program's to catch."""
        seen = []

        def steps(ctx):
            if ctx.rank == 3:  # runs last, with every other rank far ahead
                try:
                    yield (SPIN_WHILE, 3, 0, lambda v: 1 / 0 > 0)
                except ZeroDivisionError:
                    seen.append("steps")
                    raise
            yield (COMPUTE, 100.0)

        def blocking(ctx):
            if ctx.rank == 3:
                try:
                    ctx.spin_while(3, 0, lambda v: 1 / 0 > 0)
                except ZeroDivisionError:
                    seen.append("blocking")
                    raise
            ctx.compute(100.0)

        assert type(_failure(steps)) is type(_failure(blocking)) is ZeroDivisionError
        assert seen == ["steps", "blocking"]

    def test_a_spinner_catches_its_own_later_poll_predicate_error_as_on_the_reference(self):
        """Every poll round is part of the spinner's own turn — also the
        rounds after a park — so the error is raised at *its* ``yield``,
        as the reference interpreter raises it."""

        def flaky(v):
            if v != 0:
                raise ValueError(f"predicate saw {v}")
            return True

        def steps(ctx):
            if ctx.rank == 1:
                try:
                    yield (SPIN_WHILE, 1, 0, flaky)  # parks; rank 0's put wakes it
                except ValueError as exc:
                    yield (COMPUTE, 2.0)
                    return (str(exc), ctx.now())
            elif ctx.rank == 0:
                yield (COMPUTE, 50.0)
                yield (PUT, 5, 1, 0)
                yield (FLUSH, 1)
            return ctx.now()

        with rank_threads_started() as threads:
            inline = make_runtime().run(steps)
        assert not threads
        assert inline.returns[1][0] == "predicate saw 5"
        assert run_result_sha(inline) == run_result_sha(make_reference().run(steps))

    def test_request_errors_are_raised_at_the_yield_like_the_blocking_call(self):
        """Bad target, bad offset, negative or non-finite compute: same
        exception, catchable.  (A ``nan`` duration used to pass ``< 0``, poison
        the rank's clock and end the run as a deadlock with no blocked rank.)"""
        nan, inf = float("nan"), float("inf")

        def steps(ctx):
            caught = []
            for request in ((GET, 99, 0), (PUT, 1, 0, 99), (COMPUTE, -1.0),
                            (COMPUTE, nan), (COMPUTE, inf)):
                try:
                    yield request
                    if request[0] == PUT:
                        yield (FLUSH, 0)  # the put's effect lands here at the latest
                except (ValueError, IndexError) as exc:
                    caught.append((type(exc).__name__, str(exc)))
            return caught

        def blocking(ctx):
            caught = []
            for call in (lambda: ctx.get(99, 0), lambda: ctx.put(1, 0, 99), lambda: ctx.compute(-1.0),
                         lambda: ctx.compute(nan), lambda: ctx.compute(inf)):
                try:
                    call()
                except (ValueError, IndexError) as exc:
                    caught.append((type(exc).__name__, str(exc)))
            return caught

        inline = make_runtime().run(steps)
        threaded = make_runtime().run(blocking)
        assert inline.returns == threaded.returns
        assert [kind for kind, _ in inline.returns[0]] == ["ValueError", "IndexError"] + ["ValueError"] * 3
        assert all(
            message.startswith("compute duration must be non-negative")
            for _, message in inline.returns[0][2:]
        )
        assert inline.op_counts == threaded.op_counts
        assert inline.finish_times_us == threaded.finish_times_us  # no clock was poisoned

        # A poll on a cell that does not exist fails as its first Get does: a
        # bad target before the leg is counted, a bad offset when its value is
        # due (and never as an index error of the runtime's own cell tables,
        # nor by aliasing offset -1 to another word).  Every rank polls the
        # bad cells at once, so legs cross the horizon and raise at a later
        # turn: the error is still raised at the poll, as on the reference.
        # Each bad one-cell SPIN has its SPIN_WHILE twin, which takes the
        # one-cell poll round.
        bad_polls = ((SPIN, [(99, 0)], lambda vs: True), (SPIN_WHILE, 99, 0, lambda v: True),
                     (SPIN_WHILE, 0, 9999, lambda v: True),
                     (SPIN, [(0, -1)], lambda vs: True), (SPIN_WHILE, 0, -1, lambda v: True),
                     (SPIN, [(1, 0), (0, 8)], lambda vs: True),
                     (SPIN, [(1, 0), (0, 9999)], lambda vs: True))

        def spin_steps(ctx):
            caught = []
            for request in bad_polls:
                try:
                    yield request
                except (ValueError, IndexError) as exc:
                    caught.append((type(exc).__name__, str(exc)))
                yield (COMPUTE, 1.0)
            return caught

        def spin_blocking(ctx):
            caught = []
            for call in (lambda: ctx.spin_on_cells([(99, 0)], lambda vs: True),
                         lambda: ctx.spin_while(99, 0, lambda v: True),
                         lambda: ctx.spin_while(0, 9999, lambda v: True),
                         lambda: ctx.spin_on_cells([(0, -1)], lambda vs: True),
                         lambda: ctx.spin_while(0, -1, lambda v: True),
                         lambda: ctx.spin_on_cells([(1, 0), (0, 8)], lambda vs: True),
                         lambda: ctx.spin_on_cells([(1, 0), (0, 9999)], lambda vs: True)):
                try:
                    call()
                except (ValueError, IndexError) as exc:
                    caught.append((type(exc).__name__, str(exc)))
                ctx.compute(1.0)
            return caught

        with rank_threads_started() as threads:
            inline = make_runtime().run(spin_steps)
        assert not threads
        assert inline.returns == [[
            ("ValueError", "target rank 99 out of range 0..3"),
            ("ValueError", "target rank 99 out of range 0..3"),
            ("IndexError", "offset 9999 out of range 0..7"),
            ("IndexError", "offset -1 out of range 0..7"),
            ("IndexError", "offset -1 out of range 0..7"),
            ("IndexError", "offset 8 out of range 0..7"),
            ("IndexError", "offset 9999 out of range 0..7"),
        ]] * 4
        assert inline.op_counts == {"get": 28}  # the bad-target legs are not counted
        for twin in (make_runtime().run(spin_blocking), make_runtime().run(blocking_program(spin_steps)),
                     make_reference().run(spin_steps)):
            assert twin.returns == inline.returns
            assert twin.per_rank_op_counts == inline.per_rank_op_counts
            assert twin.finish_times_us == inline.finish_times_us

    def test_request_errors_of_a_poll_request_too_short_for_its_kind(self):
        """A ``SPIN`` / ``SPIN_WHILE`` request missing its fields raises at its
        yield, where the program can catch it, as any malformed request does
        and as on the reference."""

        def steps(ctx):
            caught = []
            for request in ((PUT, 1), (SPIN,), (SPIN, [(0, 0)]), (SPIN_WHILE, 0, 0)):
                try:
                    yield request
                except IndexError as exc:
                    caught.append(str(exc))
                yield (COMPUTE, 1.0)
            return caught

        inline = make_runtime().run(steps)
        assert inline.returns == [["tuple index out of range"] * 4] * 4
        assert run_result_sha(inline) == run_result_sha(make_reference().run(steps))

    def test_max_ops(self):
        def steps(ctx):
            for _ in range(1000):
                yield (GET, 0, 0)
                yield (FLUSH, 0)

        error = _failure(steps, max_ops=50)
        assert type(error) is RuntimeError_ and "max_ops=50" in str(error)
        assert str(error) == str(_failure(blocking_program(steps), max_ops=50))


class TestLifecycle:
    def test_program_args_and_return_values(self):
        def steps(ctx, arg):
            previous = yield (FAO, arg, 0, 1, AtomicOp.SUM)
            yield (FLUSH, 0)
            yield (BARRIER,)
            total = yield (GET, 0, 1)
            return (ctx.rank, arg, previous, total)

        runtime = make_runtime()
        with rank_threads_started() as threads:
            result = runtime.run(steps, program_args=[10, 20, 30, 40])
        assert not threads
        assert [r[:2] for r in result.returns] == [(0, 10), (1, 20), (2, 30), (3, 40)]
        assert {r[3] for r in result.returns} == {100}
        assert result.op_counts == {"fao": 4, "flush": 4, "get": 4}
        threaded = make_runtime().run(blocking_program(steps), program_args=[10, 20, 30, 40])
        assert run_result_sha(result) == run_result_sha(threaded)
        with pytest.raises(ValueError, match="one entry per rank"):
            runtime.run(steps, program_args=[1])

    def test_run_is_not_reentrant_from_inside_an_inline_run(self):
        runtime = make_runtime()

        def steps(ctx):
            if ctx.rank == 0:
                runtime.run(lambda inner: inner.rank)
            yield (BARRIER,)

        with pytest.raises(RuntimeError_, match="not reentrant"):
            runtime.run(steps)
        assert runtime.run(lambda ctx: ctx.rank).returns == [0, 1, 2, 3]

    def test_accumulate_defaults_to_sum_and_spin_returns_the_observed_values(self):
        def steps(ctx):
            yield (ACCUMULATE, ctx.rank + 1, 0, 2)
            yield (FLUSH, 0)
            values = yield (SPIN, [(0, 2), (0, 3)], lambda vs: vs[0] < 10)
            single = yield (SPIN_WHILE, 0, 2, lambda v: v < 10)
            return (values, single, ctx.now())

        inline = make_runtime().run(steps)
        assert {tuple(r[0]) for r in inline.returns} == {(10, 0)}
        assert {r[1] for r in inline.returns} == {10}
        threaded = make_runtime().run(blocking_program(steps))
        assert run_result_sha(inline) == run_result_sha(threaded)


class TestMisuseFailsLoudly:
    """A blocking call inside an inline run has no thread to park."""

    @pytest.mark.parametrize(
        "misuse",
        [
            lambda ctx, lock: ctx.put(1, 0, 7),
            lambda ctx, lock: ctx.spin_while(0, 7, lambda v: False),
            lambda ctx, lock: ctx.compute(1.0),
            lambda ctx, lock: (lock.acquire(), lock.release()),
            lambda ctx, lock: (ctx.run_steps(lock.acquire_steps()), lock.release()),
        ],
        ids=["ctx.put", "ctx.spin_while", "ctx.compute", "lock.acquire", "ctx.run_steps"],
    )
    def test_blocking_call_raises_and_the_runtime_stays_usable(self, misuse):
        from repro.core.dmcs import DMCSLockSpec

        spec = DMCSLockSpec(num_processes=4)
        runtime = make_runtime()

        def steps(ctx):
            lock = spec.make(ctx)
            yield (BARRIER,)
            if ctx.rank == 2:
                misuse(ctx, lock)
            yield from lock.acquire_steps()
            yield from lock.release_steps()

        with pytest.raises(RuntimeError_, match=r"rank 2 made a blocking context call") as info:
            runtime.run(steps, window_init=spec.init_window)
        assert "yield the request" in str(info.value)
        assert "yield from lock.acquire_steps()" in str(info.value)
        # The very same program as a blocking program is fine — and so is a rerun.
        ok = runtime.run(blocking_program(steps), window_init=spec.init_window)
        assert sum(ok.op_counts.values()) > 0
        assert runtime.run(lambda ctx: ctx.rank).returns == [0, 1, 2, 3]

    @pytest.mark.parametrize(
        "value",
        # The last two: the poll sub-program's park request is the runtime's
        # own, and no negative kind may index the trampoline's table from the end.
        [None, 7, "put", (), (99, 0), ("put", 1, 0, 0), (-1, [(0, 0)]), (-4, 0, 0)],
        ids=repr,
    )
    def test_yielding_a_non_request_names_the_rank_and_the_value(self, value):
        def steps(ctx):
            yield (BARRIER,)
            if ctx.rank == 3:
                yield value

        for program in (steps, blocking_program(steps)):
            runtime = make_runtime()
            with pytest.raises(TypeError) as info:
                runtime.run(program)
            assert f"rank 3 yielded {value!r}" in str(info.value)
            assert runtime.run(lambda ctx: ctx.rank).returns == [0, 1, 2, 3]

    def test_the_reference_runs_step_programs_only(self):
        with pytest.raises(TypeError, match="runs step programs only"):
            make_reference().run(lambda ctx: ctx.rank)

    def test_forgetting_yield_from_is_reported_as_a_non_request(self):
        from repro.core.dmcs import DMCSLockSpec

        spec = DMCSLockSpec(num_processes=4)

        def steps(ctx):
            lock = spec.make(ctx)
            yield lock.acquire_steps()  # should have been `yield from`

        with pytest.raises(TypeError, match=r"rank 0 yielded <generator object"):
            make_runtime().run(steps, window_init=spec.init_window)


# --------------------------------------------------------------------------- #
# Fault plans run inline; the bridge leaves no thread behind
# --------------------------------------------------------------------------- #

class TestFaultPlansRunInline:
    def test_kill_and_restart_inline_equals_bridged_equals_reference(self):
        config = LockBenchConfig(
            machine=cached_machine(4, 4, "xc30"), scheme="lease-lock",
            benchmark="wcsb", iterations=4, fw=0.2, seed=5,
        )
        plan = FaultPlan.single(1, kill_us=3.0, restart_us=4000.0)
        spec, is_rw = build_lock_spec(config)
        program = make_lock_program(config, spec, is_rw, spec.window_words)
        assert is_step_program(program)
        shas = {}
        for name, prog, scheduler, rank_threads in (
            ("steps", program, "horizon", 0),
            # The victim's thread unwinds at the kill; its restart gets a fresh one.
            ("bridged", blocking_program(program), "horizon", 5),
            (REFERENCE, program, REFERENCE, 0),
        ):
            runtime = factory(scheduler)(
                config.machine, window_words=spec.window_words + 2,
                seed=config.seed, fault_plan=plan,
            )
            with rank_threads_started() as threads:
                result = runtime.run(prog, window_init=spec.init_window)
            assert len(threads) == rank_threads, name
            assert not any(isinstance(r, dict) and r.get("__crashed__") for r in result.returns)
            shas[name] = run_result_sha(result)
        assert len(set(shas.values())) == 1, shas

    def test_a_null_plan_keeps_the_inline_driver(self):
        config = LockBenchConfig(
            machine=cached_machine(4, 4, "xc30"), scheme="d-mcs", benchmark="ecsb",
            iterations=3, seed=5,
        )
        with rank_threads_started() as threads:
            _, faulted = run_lock_benchmark_detailed(config, fault_plan=FaultPlan())
        assert not threads
        _, plain = run_lock_benchmark_detailed(config)
        assert run_result_sha(faulted) == run_result_sha(plain)


class _BlockingTAS(LockHandle):
    """A blocking-only test-and-set lock: a handle written without step programs."""

    def __init__(self, ctx, offset):
        self.ctx = ctx
        self.offset = offset

    def acquire(self):
        while self.ctx.cas(1, 0, 0, self.offset) != 0:
            self.ctx.flush(0)
            self.ctx.spin_while(0, self.offset, lambda v: v != 0)
        self.ctx.flush(0)

    def release(self):
        self.ctx.put(0, 0, self.offset)
        self.ctx.flush(0)


class _StepTAS(_BlockingTAS):
    """``_BlockingTAS``'s step twin: the same requests, yielded."""

    def acquire_steps(self):
        while (yield (CAS, 1, 0, 0, self.offset)) != 0:
            yield (FLUSH, 0)
            yield (SPIN_WHILE, 0, self.offset, lambda v: v != 0)
        yield (FLUSH, 0)

    def release_steps(self):
        yield (PUT, 0, 0, self.offset)
        yield (FLUSH, 0)


class _CrashLog:
    """Observer hooks of a faulted run, plus what the victim was doing."""

    def __init__(self, acquiring):
        self.acquiring = acquiring
        self.events = []

    def on_run_start(self, nranks):
        self.events.clear()

    def on_run_end(self):
        pass

    def on_rmw(self, rank, call):
        pass

    def on_crash(self, rank, t_us):
        self.events.append(("crash", rank, t_us, self.acquiring[rank]))

    def on_restart(self, rank, t_us):
        self.events.append(("restart", rank, t_us))


class TestBridge:
    """A blocking program runs on one thread per rank, each call handed to
    ``_drive``; closing a rank's generator unwinds its thread."""

    def test_blocking_only_handle_killed_mid_acquire_and_restarted(self):
        """The bridged blocking program equals its step twin, inline and on
        the reference: same fingerprint, crash log and returns."""
        acquiring = [False] * 4

        def program(ctx):
            lock = _BlockingTAS(ctx, 0)
            ctx.barrier()
            for _ in range(3):
                acquiring[ctx.rank] = True
                lock.acquire()  # the kill unwinds the thread from in here
                acquiring[ctx.rank] = False
                ctx.compute(4.0)
                lock.release()
            return (ctx.incarnation, ctx.now())

        def steps(ctx):
            lock = _StepTAS(ctx, 0)
            yield (BARRIER,)
            for _ in range(3):
                acquiring[ctx.rank] = True
                yield from lock.acquire_steps()
                acquiring[ctx.rank] = False
                yield (COMPUTE, 4.0)
                yield from lock.release_steps()
            return (ctx.incarnation, ctx.now())

        plan = FaultPlan.single(3, kill_us=9.0, restart_us=200.0)
        runs = {}
        for name, prog, scheduler, rank_threads in (
            # The restart runs on a fresh thread.
            ("bridged", program, "horizon", 5),
            ("steps", steps, "horizon", 0),
            (REFERENCE, steps, REFERENCE, 0),
        ):
            log = _CrashLog(acquiring)
            runtime = factory(scheduler)(
                Machine.cluster(nodes=2, procs_per_node=2), window_words=2,
                fault_plan=plan, observer=log,
            )
            with rank_threads_started() as threads:
                result = runtime.run(prog)
            runs[name] = (run_result_sha(result), list(log.events), result.returns)
            assert len(threads) == rank_threads, name
        sha, events, returns = runs["bridged"]
        assert [event[:2] for event in events] == [("crash", 3), ("restart", 3)]
        assert events[0][3], "rank 3 was killed inside acquire()"
        assert events[1][2] == 200.0
        assert returns[3][0] == 1 and all(r[0] == 0 for r in returns[:3])
        assert runs["steps"] == runs[REFERENCE] == runs["bridged"]

    def test_handoffs_survive_preemption_at_every_bytecode(self):
        """Stress: with the interpreter switching threads as often as it can,
        a bridged polling lock at P=32 still equals its inline run, so no
        handoff reads a request, value or error the other side has not
        finished writing."""
        import sys

        config = LockBenchConfig(
            machine=cached_machine(32, 8), scheme="fompi-spin", benchmark="wcsb",
            iterations=4, fw=0.2, seed=21,
        )
        spec, is_rw = build_lock_spec(config)
        program = make_lock_program(config, spec, is_rw, spec.window_words)
        inline = _run(config, program, spec, "horizon")
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            bridged = _run(config, blocking_program(program), spec, "horizon")
        finally:
            sys.setswitchinterval(interval)
        assert bridged == inline

    def test_a_deadlocked_blocking_program_leaves_no_thread(self):
        def program(ctx):
            ctx.barrier()
            if ctx.rank:
                ctx.spin_while(0, 1, lambda v: v == 0)  # nobody writes it

        before = set(threading.enumerate())
        with pytest.raises(SimDeadlockError):
            make_runtime().run(program)
        assert set(threading.enumerate()) == before

    def test_a_raising_blocking_program_leaves_no_thread(self):
        def program(ctx):
            ctx.barrier()
            if ctx.rank == 2:
                raise KeyError("boom from rank 2")
            ctx.spin_while(0, 1, lambda v: v == 0)

        before = set(threading.enumerate())
        with pytest.raises(KeyError, match="boom from rank 2"):
            make_runtime().run(program)
        assert set(threading.enumerate()) == before


class TestNoRankThreads:
    """Registry-wide guard: only a blocking program starts rank threads.  Every
    built-in loop below — faulted runs of every scheme in the ``repro faults
    --smoke`` grid and of the known mutants, the paper's DHT, elastic and adaptive traffic, the
    hand-off ablation — is a step program, runs with no ``sim-rank-*``
    thread and equals the reference interpreter."""

    @pytest.mark.parametrize("scenario", ["holder-crash", "waiter-crash", "restart"])
    @pytest.mark.parametrize("scheme", FAULT_SMOKE_SCHEMES + KNOWN_MUTANTS)
    def test_no_rank_thread_in_a_faulted_run(self, scheme, scenario, reference):
        from repro.bench import faults as engine

        # The fault grid's point, built here: the grid leaves the known
        # mutants out, but their faulted runs are held to the contract too.
        [grid] = replace(get_campaign("conformance"), schemes=(scheme,), benchmarks=("wcsb",),
                         process_counts=(4,), iterations=6).points()
        point = engine.FaultPoint(grid, scenario, 1)
        probe, makespan = engine._probe(point.point.config())
        plans = engine._candidate_plans(point, probe, makespan)
        assert plans, point.case
        for plan, _ in plans[:2]:
            with rank_threads_started() as threads:
                inline = engine._run_faulted(point, plan)
            assert not threads, point.case
            assert inline[2]["crashes"] == 1, point.case
            assert inline == engine._run_faulted(_on(point, reference), plan), point.case

    def test_no_rank_thread_in_the_faults_smoke_sweep(self, reference, monkeypatch):
        """``repro faults --smoke`` through ``run_faults`` starts no rank
        thread, and the plan that stands for each point, re-run on the
        reference, gives the same (fingerprint, abort, oracle): the check
        ``run_fault_point`` once made on every point."""
        from repro.bench import faults as engine

        run_faulted = engine._run_faulted
        standing = {}

        def recording(point, plan):
            outcome = run_faulted(point, plan)
            standing[point.case] = (point, plan, outcome)  # the last try stands
            return outcome

        monkeypatch.setattr(engine, "_run_faulted", recording)
        with rank_threads_started() as threads:
            report = engine.run_faults(seeds=2, schemes=FAULT_SMOKE_SCHEMES, jobs=1, cache=False)
        assert not threads
        assert report.ok and len(report.rows) == len(FAULT_SMOKE_SCHEMES) * 3 * 2
        assert len(standing) == sum(row["status"] != "no-crash-window" for row in report.rows) > 0
        for point, plan, outcome in standing.values():
            assert outcome == run_faulted(_on(point, reference), plan), point.case

    def test_no_rank_thread_in_a_faulted_crash_traffic_run(self, reference):
        """``traffic-crash`` under a holder crash of the lease lock: the
        open-loop client is stepped inline, through the kill and the lease
        takeover, and equals the reference interpreter."""
        from repro.bench import faults as engine

        [point] = engine.fault_points(seeds=1, schemes=["lease-lock"],
                                      scenarios=["holder-crash"], benchmark="traffic-crash")
        probe, makespan = engine._probe(point.point.config())
        for plan, _ in engine._candidate_plans(point, probe, makespan):
            with rank_threads_started() as threads:
                inline = engine._run_faulted(point, plan)
            assert not threads
            if inline[2]["holder_deaths"]:
                break
        assert inline[1] is None and inline[2]["ok"] and inline[2]["holder_deaths"] == 1
        assert inline == engine._run_faulted(_on(point, reference), plan)

    @pytest.mark.parametrize("scheme", ["fompi-a", "fompi-rw", "rma-rw", "striped-rw"])
    def test_no_rank_thread_in_the_dht(self, scheme):
        from repro.dht.workload import DHTWorkloadConfig, run_dht_benchmark

        for access_pattern in ("victim", "by-key"):
            config = DHTWorkloadConfig(
                machine=cached_machine(8, 4), scheme=scheme, ops_per_process=6, fw=0.3,
                access_pattern=access_pattern,
            )
            with rank_threads_started() as threads:
                inline = run_dht_benchmark(config)
            assert not threads
            reference = run_dht_benchmark(
                config, runtime=ReferenceRuntime(config.machine, window_words=4096, seed=config.seed)
            )
            assert (inline.total_time_us, inline.op_counts, inline.inserts) == (
                reference.total_time_us, reference.op_counts, reference.inserts
            )
            assert inline.inserts > 0 and inline.lookups > 0

    @pytest.mark.parametrize("scenario", ["scale-elastic", "traffic-adaptive"])
    def test_no_rank_thread_in_elastic_and_adaptive_traffic(self, scenario, reference):
        config = LockBenchConfig(
            machine=cached_machine(8, 4), scheme="rma-rw", benchmark=scenario,
            iterations=24, seed=3,
        )
        with rank_threads_started() as threads:
            bench, inline = run_lock_benchmark_detailed(config)
        assert not threads
        _, on_reference = run_lock_benchmark_detailed(config, scheduler=reference)
        assert run_result_sha(inline) == run_result_sha(on_reference)
        events = "resizes" if scenario == "scale-elastic" else "swaps"
        assert all(r[events] > 0 for r in inline.returns), events

    def test_no_rank_thread_in_the_handoff_ablation(self):
        from repro.bench.experiments import ablation_handoff_locality

        # Inline and uncached, so the points run here where the counter looks.
        with rank_threads_started() as threads:
            rows = ablation_handoff_locality(
                t_l2_values=(1, 4), process_counts=(8,), iterations=3, procs_per_node=4,
                jobs=1, cache=False,
            ).rows
        assert not threads
        assert rows[0]["grants"] == rows[1]["grants"] > 0


class TestSuiteEntryPoints:
    def test_traffic_point_runs_inline_and_matches_the_reference(self, reference):
        spec = _traffic_point()
        with rank_threads_started() as threads:
            inline = run_traffic(spec, schedulers=("horizon",), jobs=1, cache=False)
        assert not threads, "the open-loop program must be stepped inline"
        twin = run_traffic(spec, schedulers=(reference,), jobs=1, cache=False)
        assert [r["fingerprint"] for r in inline.rows] == [r["fingerprint"] for r in twin.rows]
        assert [r["percentiles"] for r in inline.rows] == [r["percentiles"] for r in twin.rows]

    @pytest.mark.parametrize("workload", ["wcsb", "traffic-zipf"])
    def test_observed_point_runs_inline_and_matches_the_reference(self, workload, reference):
        def row(scheduler):
            row = run_conformance_point(_observed_point(workload, scheduler), recheck=True)
            return {k: v for k, v in row.items() if k not in ("case", "scheduler")}

        with rank_threads_started() as threads:
            inline = row("horizon")
        assert not threads
        assert inline["ok"] and inline["reproducible"] and inline["acquires"] > 0
        assert inline == row(reference)


# --------------------------------------------------------------------------- #
# Inline heap keys are live
# --------------------------------------------------------------------------- #

class TestLiveKeys:
    """Count-based guard, like ``-k one_site``: ``_drive`` takes the key it pops
    as its pick and ``heap[0]`` as the horizon without validating either, so
    every key popped during an inline run must name a rank that is ready at
    exactly that clock.  (A rank has one key while it waits its turn and none
    while it runs, is parked, waits at the barrier or has finished.)"""

    @pytest.fixture
    def popped(self, monkeypatch):
        """Checks every key ``sim_runtime`` pops while ``_drive`` runs; yields their count."""
        count = [0]
        driving = []
        drive = SimRuntime._drive

        def recording_drive(self, s):
            driving.append(self)
            try:
                return drive(self, s)
            finally:
                driving.pop()

        def checked(pop):
            def wrapper(heap, *item):
                key = pop(heap, *item)
                if driving:
                    count[0] += 1
                    state = driving[-1]._states[key[1]]
                    assert (state.status, state.clock) == (sim_runtime._READY, key[0]), (
                        f"stale key {key}: rank {state.rank} has status {state.status} "
                        f"at t={state.clock}"
                    )
                return key

            return wrapper

        monkeypatch.setattr(SimRuntime, "_drive", recording_drive)
        monkeypatch.setattr(sim_runtime, "heappop", checked(heapq.heappop))
        monkeypatch.setattr(sim_runtime, "heappushpop", checked(heapq.heappushpop))
        return count

    @pytest.mark.parametrize("procs", [8, 32])
    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_live_keys_for_every_builtin_scheme(self, scheme, procs, popped):
        config = LockBenchConfig(
            machine=cached_machine(procs, 8 if procs == 32 else 4), scheme=scheme,
            benchmark="wcsb", iterations=4 if procs == 8 else 2, fw=0.2, seed=13,
        )
        spec, is_rw = build_lock_spec(config)
        program = make_lock_program(config, spec, is_rw, spec.window_words)
        with rank_threads_started() as threads:
            inline = _run(config, program, spec, "horizon")
        assert not threads and popped[0] >= procs, popped
        assert inline == _run(config, program, spec, REFERENCE)

    def test_live_keys_on_a_perturbed_observed_point_and_a_traffic_point(self, popped):
        assert run_conformance_point(_observed_point("wcsb", "horizon"), recheck=True)["ok"]
        chaos_pops = popped[0]
        spec = _traffic_point()
        with rank_threads_started() as threads:
            run_traffic(spec, schedulers=("horizon",), jobs=1, cache=False)
        assert not threads and chaos_pops > 0 and popped[0] > chaos_pops

    def test_live_keys_up_to_the_abort_exits(self, popped):
        """A deadlock and a raising program leave ``_drive`` at once; the keys
        they strand are never popped."""

        def deadlocks(ctx):
            yield (COMPUTE, 1.5 * ctx.rank)
            yield (PUT, 1, (ctx.rank + 1) % 4, 0)
            yield (FLUSH, (ctx.rank + 1) % 4)
            if ctx.rank == 3:
                yield (BARRIER,)
            elif ctx.rank:
                yield (SPIN_WHILE, ctx.rank, 1, lambda v: v == 0)

        def raises(ctx):
            yield (BARRIER,)
            yield (GET, 0, 0)
            yield (FLUSH, 0)
            if ctx.rank == 1:
                raise ValueError("boom from rank 1")
            yield (BARRIER,)

        assert type(_failure(deadlocks)) is SimDeadlockError
        deadlock_pops = popped[0]
        assert str(_failure(raises)) == "boom from rank 1"
        assert deadlock_pops > 0 and popped[0] > deadlock_pops

    def test_live_keys_through_kills_restarts_and_the_bridge(self, popped):
        """A kill, a reaped parked victim's kill and a restart each give the
        rank a fresh key (or none); a bridged run pops the same keys."""
        config = LockBenchConfig(
            machine=cached_machine(8, 4), scheme="lease-lock", benchmark="wcsb",
            iterations=4, fw=0.2, seed=13,
        )
        spec, is_rw = build_lock_spec(config)
        program = make_lock_program(config, spec, is_rw, spec.window_words)
        for plan in (FaultPlan.single(2, kill_us=6.0), FaultPlan.single(5, kill_us=6.0, restart_us=300.0)):
            runtime = SimRuntime(config.machine, window_words=spec.window_words + 2,
                                 seed=config.seed, fault_plan=plan)
            runtime.run(program, window_init=spec.init_window)
        faulted_pops = popped[0]
        _run(config, blocking_program(program), spec, "horizon")
        assert faulted_pops > 0 and popped[0] > faulted_pops

        def parks_then_dies(ctx):  # rank 1 is reaped while parked, then restarts
            if ctx.rank == 1 and ctx.incarnation == 0:
                yield (SPIN_WHILE, 1, 0, lambda v: v == 0)
            yield (BARRIER,)

        runtime = make_runtime(fault_plan=FaultPlan.single(1, kill_us=50.0, restart_us=80.0))
        assert runtime.run(parks_then_dies).finish_times_us == [82.0] * 4

    def test_live_keys_guard_sees_a_stale_key(self, popped):
        """The guard is not vacuous: a key left behind for a parked rank is caught."""

        def steps(ctx):
            if ctx.rank == 1:
                yield (SPIN_WHILE, 1, 0, lambda v: v == 0)
            else:
                yield (COMPUTE, 10.0 * (ctx.rank + 1))
                if ctx.rank == 0:
                    yield (PUT, 1, 1, 0)
                    yield (FLUSH, 1)

        park = SimRuntime._park

        def leaky_park(self, state, cells):
            park(self, state, cells)
            sim_runtime.heappush(self._heap, (state.clock, state.rank))

        make_runtime().run(steps)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(SimRuntime, "_park", leaky_park)
            with pytest.raises(AssertionError, match="stale key"):
                make_runtime().run(steps)
