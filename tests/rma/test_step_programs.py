"""Step programs: the inline driver against its thread-backed twin.

A rank program that is a generator function yields its RMA requests (see
"Step programs" in :mod:`repro.rma.runtime_base`).  The ``horizon`` runtime
steps such a program inline, on the calling thread; every other path — the
same program driven by rank threads through ``ctx.run_steps``, the
``baseline`` seed scheduler, a run under a fault plan — must produce the
same :class:`~repro.rma.runtime_base.RunResult` bit for bit, the same oracle
report field for field, and the same failures.

The first half is the registry-wide differential check (every built-in
scheme the harness can drive, including ``striped-rw`` through its adapter);
"the inline driver must stay engaged" is asserted by checking that no
``sim-rank-*`` thread is started.  The second half covers what a differential
run cannot: deadlocks, raising programs and predicates, misuse, ``max_ops``,
``program_args``, the re-entry guard, fault-plan fallback, and one point
through each suite entry the ledger measures.
"""

from __future__ import annotations

import heapq
import os
from dataclasses import asdict

import pytest

from repro.api.registry import get_runtime, get_scheme, scheme_names
from repro.bench.campaign import run_result_sha
from repro.bench.conformance import ConformancePoint, run_conformance_point
from repro.bench.harness import (
    build_lock_spec,
    make_lock_program,
    run_lock_benchmark_detailed,
)
from repro.bench.workloads import LockBenchConfig
from repro.fault import FaultPlan
from repro.rma.ops import AtomicOp
from repro.rma.perturbation import PerturbationModel
from repro.rma.runtime_base import (
    ACCUMULATE,
    BARRIER,
    COMPUTE,
    FAO,
    FLUSH,
    GET,
    PUT,
    SPIN,
    SPIN_WHILE,
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
from repro.verification.oracles import LockOracleObserver

from tests.support import rank_threads_started


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


@pytest.fixture(scope="module", autouse=True)
def one_cpu():
    """Confine this module's runs to one CPU where the OS allows it.

    Two thirds of the runs below are thread-backed on purpose; exactly one
    rank thread is runnable at a time, and letting the baton-passing threads
    migrate between CPUs makes those runs 2-4x slower for nothing.
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


def _run(config, program, spec, scheduler, *, chaos_seed=None):
    """One run; returns (fingerprint, oracle report dict or None)."""
    kwargs = {}
    observer = None
    if chaos_seed is not None:
        info = get_scheme(config.scheme)
        bound = info.fairness_bound(config.machine.num_processes) if info.fairness_bound else None
        observer = LockOracleObserver(bypass_bound=bound)
        kwargs = dict(perturbation=PerturbationModel(seed=chaos_seed, **CHAOS), observer=observer)
    runtime = get_runtime(scheduler).factory(
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
    def test_inline_equals_threads_equals_baseline(self, scheme, workload, procs):
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
                    threaded = _run(
                        config, blocking_program(program), spec, "horizon",
                        chaos_seed=chaos_seed,
                    )
                assert len(threads) == procs
                baseline = _run(config, program, spec, "baseline", chaos_seed=chaos_seed)
                assert inline == threaded == baseline, (scheme, workload, procs, seed, chaos_seed)
                if chaos_seed is not None:
                    assert inline[1]["acquires"] == procs * config.iterations
                    assert not inline[1]["violations"]


class TestOneSiteForEveryRequest:
    """Count-based guard: an inline run sends every request — a program's and
    a poll leg's alike — through ``SimRuntime._drive``.  ``_op_body`` and
    ``_step_spin`` serve thread-backed runs only; one call during an inline
    run means a second path is back."""

    @staticmethod
    def _counted(monkeypatch):
        calls = {"_op_body": 0, "_step_spin": 0}

        def counting(name, original):
            def wrapper(self, *args, **kwargs):
                calls[name] += 1
                return original(self, *args, **kwargs)

            return wrapper

        for name in calls:
            monkeypatch.setattr(SimRuntime, name, counting(name, getattr(SimRuntime, name)))
        return calls

    @staticmethod
    def _point(scheme):
        config = LockBenchConfig(
            machine=cached_machine(8, 4), scheme=scheme, benchmark="wcsb",
            iterations=4, fw=0.2, seed=11,
        )
        spec, is_rw = build_lock_spec(config)
        return config, spec, make_lock_program(config, spec, is_rw, spec.window_words)

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_inline_runs_have_one_site_and_equal_threads_and_baseline(self, scheme, monkeypatch):
        calls = self._counted(monkeypatch)
        config, spec, program = self._point(scheme)
        for chaos_seed in (None, 11):  # plain; perturbed + observed
            with rank_threads_started() as threads:
                inline = _run(config, program, spec, "horizon", chaos_seed=chaos_seed)
            assert not threads and not any(calls.values()), (calls, threads)
            threaded = _run(
                config, blocking_program(program), spec, "horizon", chaos_seed=chaos_seed
            )
            baseline = _run(config, program, spec, "baseline", chaos_seed=chaos_seed)
            assert inline == threaded == baseline, (scheme, chaos_seed)
            calls.update(_op_body=0, _step_spin=0)

    def test_one_site_guard_counts_what_thread_backed_runs_call(self, monkeypatch):
        """The guard above is not vacuous: the rank-thread twin of a polling
        lock goes through both counted methods."""
        calls = self._counted(monkeypatch)
        config, spec, program = self._point("fompi-spin")
        _run(config, blocking_program(program), spec, "horizon")
        assert calls["_op_body"] > 0 and calls["_step_spin"] > 0, calls


# --------------------------------------------------------------------------- #
# Failure modes, lifecycle, misuse
# --------------------------------------------------------------------------- #

def make_runtime(**kwargs) -> SimRuntime:
    kwargs.setdefault("window_words", 8)
    return SimRuntime(Machine.cluster(nodes=2, procs_per_node=2), **kwargs)


def make_baseline():
    """The seed scheduler on ``make_runtime``'s machine and window."""
    return get_runtime("baseline").factory(Machine.cluster(nodes=2, procs_per_node=2), window_words=8)


def _observed_point(workload, scheduler):
    """One perturbed + observed conformance point."""
    return ConformancePoint(
        scheme="rma-rw", benchmark=workload, procs=8, procs_per_node=4,
        iterations=5, scheduler=scheduler, perturb_seed=2, **CHAOS,
    )


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
            make_baseline().run(steps)
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

    def test_a_spinner_catches_its_own_later_poll_predicate_error_as_on_baseline(self):
        """Every poll round is part of the spinner's own turn — also the
        rounds after a park — so the error is raised at *its* ``yield``,
        as the seed scheduler raises it on the spinner's own thread."""

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
        assert run_result_sha(inline) == run_result_sha(make_baseline().run(steps))

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
        # nor by aliasing offset -1 to another word).  Rank 3 polls alone, below
        # the horizon: a thread-backed leg that crossed it would fail the run.
        def spin_steps(ctx):
            caught = []
            if ctx.rank != 3:
                yield (COMPUTE, 100.0)
                return caught
            for request in ((SPIN, [(99, 0)], lambda vs: True), (SPIN_WHILE, 0, 9999, lambda v: True),
                            (SPIN, [(0, -1)], lambda vs: True), (SPIN, [(1, 0), (0, 8)], lambda vs: True)):
                try:
                    yield request
                except (ValueError, IndexError) as exc:
                    caught.append((type(exc).__name__, str(exc)))
                yield (COMPUTE, 1.0)
            return caught

        def spin_blocking(ctx):
            caught = []
            if ctx.rank != 3:
                ctx.compute(100.0)
                return caught
            for call in (lambda: ctx.spin_on_cells([(99, 0)], lambda vs: True),
                         lambda: ctx.spin_while(0, 9999, lambda v: True),
                         lambda: ctx.spin_on_cells([(0, -1)], lambda vs: True),
                         lambda: ctx.spin_on_cells([(1, 0), (0, 8)], lambda vs: True)):
                try:
                    call()
                except (ValueError, IndexError) as exc:
                    caught.append((type(exc).__name__, str(exc)))
                ctx.compute(1.0)
            return caught

        with rank_threads_started() as threads:
            inline = make_runtime().run(spin_steps)
        assert not threads
        assert inline.returns == [[]] * 3 + [[
            ("ValueError", "target rank 99 out of range 0..3"),
            ("IndexError", "offset 9999 out of range 0..7"),
            ("IndexError", "offset -1 out of range 0..7"),
            ("IndexError", "offset 8 out of range 0..7"),
        ]]
        assert inline.op_counts == {"get": 4}  # the bad-target leg is not counted
        for twin in (make_runtime().run(spin_blocking), make_runtime().run(blocking_program(spin_steps)),
                     make_baseline().run(spin_steps)):
            assert twin.returns == inline.returns
            assert twin.per_rank_op_counts == inline.per_rank_op_counts
            assert twin.finish_times_us == inline.finish_times_us

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
        # The very same program, thread-backed, is fine — and so is a rerun.
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

    def test_forgetting_yield_from_is_reported_as_a_non_request(self):
        from repro.core.dmcs import DMCSLockSpec

        spec = DMCSLockSpec(num_processes=4)

        def steps(ctx):
            lock = spec.make(ctx)
            yield lock.acquire_steps()  # should have been `yield from`

        with pytest.raises(TypeError, match=r"rank 0 yielded <generator object"):
            make_runtime().run(steps, window_init=spec.init_window)


# --------------------------------------------------------------------------- #
# Fault plans fall back to threads; the suites stay inline
# --------------------------------------------------------------------------- #

class TestFaultPlanFallsBackToThreads:
    def test_kill_and_restart_matches_the_thread_backed_run(self):
        config = LockBenchConfig(
            machine=cached_machine(4, 4, "xc30"), scheme="lease-lock",
            benchmark="wcsb", iterations=4, fw=0.2, seed=5,
        )
        plan = FaultPlan.single(1, kill_us=3.0, restart_us=4000.0)
        spec, is_rw = build_lock_spec(config)
        program = make_lock_program(config, spec, is_rw, spec.window_words)
        assert is_step_program(program)
        shas = {}
        for name, prog, scheduler in (
            ("steps", program, "horizon"),
            ("threads", blocking_program(program), "horizon"),
            ("baseline", program, "baseline"),
        ):
            runtime = get_runtime(scheduler).factory(
                config.machine, window_words=spec.window_words + 2,
                seed=config.seed, fault_plan=plan,
            )
            with rank_threads_started() as threads:
                result = runtime.run(prog, window_init=spec.init_window)
            if scheduler == "horizon":
                assert len(threads) == 4, "a fault plan needs one thread per rank"
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


class TestSuiteEntryPoints:
    def test_traffic_point_runs_inline_and_matches_baseline(self):
        spec = _traffic_point()
        with rank_threads_started() as threads:
            inline = run_traffic(spec, schedulers=("horizon",), jobs=1, cache=False)
        assert not threads, "the open-loop program must be stepped inline"
        baseline = run_traffic(spec, schedulers=("baseline",), jobs=1, cache=False)
        assert [r["fingerprint"] for r in inline.rows] == [r["fingerprint"] for r in baseline.rows]
        assert [r["percentiles"] for r in inline.rows] == [r["percentiles"] for r in baseline.rows]

    @pytest.mark.parametrize("workload", ["wcsb", "traffic-zipf"])
    def test_observed_point_runs_inline_and_matches_baseline(self, workload):
        def row(scheduler):
            row = run_conformance_point(_observed_point(workload, scheduler), recheck=True)
            return {k: v for k, v in row.items() if k not in ("case", "scheduler")}

        with rank_threads_started() as threads:
            inline = row("horizon")
        assert not threads
        assert inline["ok"] and inline["reproducible"] and inline["acquires"] > 0
        assert inline == row("baseline")


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
        assert inline == _run(config, program, spec, "baseline")

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
