"""Tests for the deterministic discrete-event RMA runtime."""

from __future__ import annotations

import threading

import pytest

from repro.rma.latency import LatencyModel
from repro.rma.ops import AtomicOp
from repro.rma.runtime_base import BARRIER, FLUSH, PUT, RuntimeError_, SimDeadlockError
from repro.rma.sim_runtime import SimRuntime
from repro.topology.machine import Machine


def make_runtime(machine=None, **kwargs) -> SimRuntime:
    machine = machine or Machine.cluster(nodes=2, procs_per_node=2)
    kwargs.setdefault("window_words", 8)
    return SimRuntime(machine, **kwargs)


class TestBasics:
    def test_put_and_get_across_ranks(self):
        rt = make_runtime()

        def program(ctx):
            if ctx.rank == 1:
                ctx.put(111, 0, 3)
                ctx.flush(0)
            ctx.barrier()
            value = ctx.get(0, 3)
            ctx.flush(0)
            return value

        result = rt.run(program)
        assert result.returns == [111, 111, 111, 111]

    def test_returns_in_rank_order(self):
        rt = make_runtime()
        result = rt.run(lambda ctx: ctx.rank * 10)
        assert result.returns == [0, 10, 20, 30]

    def test_window_init_applied(self):
        rt = make_runtime()

        def init(rank):
            return {0: rank + 100}

        def program(ctx):
            value = ctx.get(ctx.rank, 0)
            ctx.flush(ctx.rank)
            return value

        result = rt.run(program, window_init=init)
        assert result.returns == [100, 101, 102, 103]

    def test_program_args_passed_per_rank(self):
        rt = make_runtime()
        result = rt.run(lambda ctx, arg: arg * 2, program_args=[1, 2, 3, 4])
        assert result.returns == [2, 4, 6, 8]

    def test_program_args_length_checked(self):
        rt = make_runtime()
        with pytest.raises(ValueError):
            rt.run(lambda ctx, arg: arg, program_args=[1, 2])

    def test_fao_accumulates_atomically_across_ranks(self):
        rt = make_runtime()

        def program(ctx):
            total = 0
            for _ in range(10):
                ctx.fao(1, 0, 0, AtomicOp.SUM)
                ctx.flush(0)
            ctx.barrier()
            return total

        rt.run(program)
        assert rt.window(0).read(0) == 4 * 10

    def test_cas_only_one_winner(self):
        rt = make_runtime()

        def program(ctx):
            prev = ctx.cas(ctx.rank + 1, 0, 0, 1)
            ctx.flush(0)
            return prev == 0  # True for the single winner

        result = rt.run(program)
        assert sum(result.returns) == 1
        assert rt.window(0).read(1) in {1, 2, 3, 4}

    def test_accumulate_replace(self):
        rt = make_runtime()

        def program(ctx):
            if ctx.rank == 2:
                ctx.accumulate(77, 1, 5, AtomicOp.REPLACE)
                ctx.flush(1)

        rt.run(program)
        assert rt.window(1).read(5) == 77

    def test_invalid_target_raises(self):
        rt = make_runtime()
        with pytest.raises(ValueError):
            rt.run(lambda ctx: ctx.put(1, 99, 0))

    def test_window_words_validated(self):
        with pytest.raises(ValueError):
            make_runtime(window_words=0)


class TestVirtualTime:
    def test_clock_advances_with_operations(self):
        rt = make_runtime()

        def program(ctx):
            start = ctx.now()
            ctx.put(1, (ctx.rank + 1) % ctx.nranks, 0)
            ctx.flush((ctx.rank + 1) % ctx.nranks)
            return ctx.now() - start

        result = rt.run(program)
        assert all(delta > 0 for delta in result.returns)

    def test_remote_costs_more_than_local(self):
        machine = Machine.cluster(nodes=2, procs_per_node=2)
        rt = SimRuntime(machine, window_words=4)

        def program(ctx):
            start = ctx.now()
            ctx.get(ctx.rank, 0)          # local
            local = ctx.now() - start
            start = ctx.now()
            ctx.get((ctx.rank + 2) % 4, 0)  # other node
            remote = ctx.now() - start
            return local, remote

        result = rt.run(program)
        for local, remote in result.returns:
            assert remote > local

    def test_compute_advances_clock(self):
        rt = make_runtime()

        def program(ctx):
            start = ctx.now()
            ctx.compute(12.5)
            return ctx.now() - start

        result = rt.run(program)
        assert all(abs(delta - 12.5) < 1e-9 for delta in result.returns)

    def test_compute_rejects_negative(self):
        rt = make_runtime()
        with pytest.raises(ValueError):
            rt.run(lambda ctx: ctx.compute(-1))

    def test_barrier_synchronizes_clocks(self):
        rt = make_runtime()

        def program(ctx):
            ctx.compute(float(ctx.rank) * 10.0)
            ctx.barrier()
            return ctx.now()

        result = rt.run(program)
        assert len(set(result.returns)) == 1
        assert result.returns[0] >= 30.0

    def test_total_time_is_max_finish_time(self):
        rt = make_runtime()

        def program(ctx):
            ctx.compute(5.0 * (ctx.rank + 1))

        result = rt.run(program)
        assert result.total_time_us == pytest.approx(max(result.finish_times_us))
        assert result.total_time_us == pytest.approx(20.0)

    def test_hot_target_serializes(self):
        """Concurrent atomics on one rank take longer than on distinct ranks."""
        machine = Machine.cluster(nodes=2, procs_per_node=4)

        def hammer_shared(ctx):
            for _ in range(20):
                ctx.fao(1, 0, 0, AtomicOp.SUM)
                ctx.flush(0)

        def hammer_private(ctx):
            for _ in range(20):
                ctx.fao(1, ctx.rank, 0, AtomicOp.SUM)
                ctx.flush(ctx.rank)

        hot = SimRuntime(machine, window_words=4).run(hammer_shared).total_time_us
        spread = SimRuntime(machine, window_words=4).run(hammer_private).total_time_us
        assert hot > spread


class TestDeterminism:
    def test_identical_runs_produce_identical_results(self):
        machine = Machine.cluster(nodes=2, procs_per_node=4)

        def program(ctx):
            for i in range(5):
                ctx.fao(int(ctx.rng.integers(1, 10)), 0, 0, AtomicOp.SUM)
                ctx.flush(0)
            return ctx.now()

        r1 = SimRuntime(machine, window_words=4, seed=9).run(program)
        r2 = SimRuntime(machine, window_words=4, seed=9).run(program)
        assert r1.returns == r2.returns
        assert r1.total_time_us == r2.total_time_us
        assert r1.op_counts == r2.op_counts

    def test_different_seed_changes_rng_draws(self):
        machine = Machine.cluster(nodes=1, procs_per_node=2)

        def program(ctx):
            return int(ctx.rng.integers(0, 1_000_000))

        r1 = SimRuntime(machine, window_words=2, seed=1).run(program)
        r2 = SimRuntime(machine, window_words=2, seed=2).run(program)
        assert r1.returns != r2.returns


class TestSpinAndWakeup:
    def test_spin_while_sees_remote_update(self):
        rt = make_runtime()

        def program(ctx):
            if ctx.rank == 0:
                ctx.compute(50.0)
                ctx.put(1, 1, 0)
                ctx.flush(1)
                return None
            if ctx.rank == 1:
                value = ctx.spin_while(1, 0, lambda v: v == 0)
                return value
            return None

        result = rt.run(program)
        assert result.returns[1] == 1

    def test_spin_on_multiple_cells(self):
        rt = make_runtime()

        def program(ctx):
            if ctx.rank == 0:
                ctx.compute(10.0)
                ctx.put(5, 0, 2)
                ctx.flush(0)
                ctx.compute(10.0)
                ctx.put(7, 0, 3)
                ctx.flush(0)
                return None
            if ctx.rank == 3:
                values = ctx.spin_on_cells([(0, 2), (0, 3)], lambda vs: vs[0] + vs[1] < 12)
                return tuple(values)
            return None

        result = rt.run(program)
        assert result.returns[3] == (5, 7)

    def test_woken_spinner_time_is_after_writer(self):
        rt = make_runtime()

        def program(ctx):
            if ctx.rank == 0:
                ctx.compute(100.0)
                ctx.put(1, 1, 0)
                ctx.flush(1)
                return ctx.now()
            if ctx.rank == 1:
                ctx.spin_while(1, 0, lambda v: v == 0)
                return ctx.now()
            return 0.0

        result = rt.run(program)
        assert result.returns[1] >= 100.0


class TestFailureModes:
    def test_deadlock_detected_when_everyone_spins(self):
        rt = make_runtime()

        def program(ctx):
            ctx.spin_while(ctx.rank, 0, lambda v: v == 0)  # nobody will ever write

        with pytest.raises(SimDeadlockError):
            rt.run(program)

    def test_deadlock_detected_when_barrier_is_missed(self):
        rt = make_runtime()

        def program(ctx):
            if ctx.rank != 0:
                ctx.barrier()

        with pytest.raises(SimDeadlockError):
            rt.run(program)

    def test_deadlock_message_mentions_blocked_ranks(self):
        rt = make_runtime()

        def program(ctx):
            if ctx.rank == 2:
                ctx.spin_while(2, 0, lambda v: v == 0)

        with pytest.raises(SimDeadlockError, match="rank 2"):
            rt.run(program)

    def test_exception_in_program_propagates(self):
        rt = make_runtime()

        def program(ctx):
            if ctx.rank == 1:
                raise ValueError("boom from rank 1")
            ctx.barrier()

        with pytest.raises(ValueError, match="boom from rank 1"):
            rt.run(program)

    def test_spin_predicate_error_surfaces_and_never_leaks_across_ranks(self):
        """A raising spin predicate fails the run with its own exception.

        The poll round that re-evaluates the predicate after a wake runs on
        whichever thread drives the scheduler (threadless waiters), so the
        error must be routed through the abort machinery instead of unwinding
        through another rank's program frames.
        """
        rt = make_runtime()

        def flaky_predicate(v):
            if v != 0:
                raise ValueError("predicate exploded")
            return True  # keep spinning while the cell is 0

        def program(ctx):
            if ctx.rank == 1:
                ctx.spin_while(1, 0, flaky_predicate)
                return None
            if ctx.rank == 0:
                caught = False
                try:
                    ctx.compute(50.0)
                    ctx.put(1, 1, 0)  # wakes rank 1, whose re-poll raises
                    ctx.flush(1)
                    ctx.compute(50.0)
                except ValueError:
                    caught = True  # must never see rank 1's error
                assert not caught, "rank 1's predicate error leaked into rank 0"
            return None

        with pytest.raises(ValueError, match="predicate exploded"):
            rt.run(program)

    def test_spin_error_on_first_poll_propagates_like_any_program_error(self):
        rt = make_runtime()

        def program(ctx):
            if ctx.rank == 2:
                ctx.spin_while(0, 0, lambda v: 1 / 0 > 0)
            ctx.barrier()

        with pytest.raises(ZeroDivisionError):
            rt.run(program)

    def test_max_ops_guards_against_livelock(self):
        rt = make_runtime(max_ops=50)

        def program(ctx):
            for _ in range(1000):
                ctx.get(0, 0)
                ctx.flush(0)

        with pytest.raises(RuntimeError_, match="max_ops"):
            rt.run(program)


class TestRunLifecycle:
    def test_concurrent_run_on_same_instance_rejected(self):
        rt = make_runtime()
        started = threading.Event()
        release = threading.Event()

        def slow_program(ctx):
            if ctx.rank == 0:
                started.set()
                release.wait(timeout=30)
            return ctx.rank

        results = {}

        def driver():
            results["first"] = rt.run(slow_program)

        t = threading.Thread(target=driver, daemon=True)
        t.start()
        assert started.wait(timeout=30)
        with pytest.raises(RuntimeError_, match="not reentrant"):
            rt.run(lambda ctx: ctx.rank)
        release.set()
        t.join(timeout=30)
        assert not t.is_alive()
        assert results["first"].returns == [0, 1, 2, 3]
        # The guard is released once the first run completes.
        assert rt.run(lambda ctx: ctx.rank).returns == [0, 1, 2, 3]

    def test_failed_run_does_not_leak_into_next_run(self):
        rt = make_runtime()

        def failing(ctx):
            ctx.put(7, 0, 0)
            ctx.flush(0)
            if ctx.rank == 2:
                raise ValueError("injected failure")
            ctx.barrier()

        with pytest.raises(ValueError, match="injected failure"):
            rt.run(failing)

        def assert_clean_rerun():
            # A fresh run starts from clean windows, counters and scheduler state.
            result = rt.run(lambda ctx: ctx.get(0, 0))
            assert result.returns == [0, 0, 0, 0]
            assert result.op_counts == {"get": 4}
            assert all(t >= 0.0 for t in result.finish_times_us)

        assert_clean_rerun()

        # The same after a failed *inline* run: a raising step program, a
        # blocking call where a request should have been yielded, and a
        # yielded value that is not a request.
        def failing_steps(how):
            def program(ctx):
                yield (PUT, 7, 0, 0)
                yield (FLUSH, 0)
                if ctx.rank == 2:
                    if how == "raise":
                        raise ValueError("injected failure")
                    if how == "blocking":
                        ctx.flush(0)
                    yield how
                yield (BARRIER,)

            return program

        for how, error, match in (
            ("raise", ValueError, "injected failure"),
            ("blocking", RuntimeError_, "rank 2 made a blocking context call"),
            ("not a request", TypeError, "rank 2 yielded 'not a request'"),
        ):
            with pytest.raises(error, match=match):
                rt.run(failing_steps(how))
            assert_clean_rerun()

    def test_window_init_failure_keeps_runtime_usable(self):
        rt = make_runtime()

        def bad_init(rank):
            raise KeyError("bad init")

        with pytest.raises(KeyError, match="bad init"):
            rt.run(lambda ctx: None, window_init=bad_init)

        result = rt.run(lambda ctx: ctx.rank * 2)
        assert result.returns == [0, 2, 4, 6]

    def test_observer_reset_on_every_run_including_after_failure(self):
        """on_run_start fires per run() so observer state never leaks across
        re-entry — including out of a run that aborted mid-flight."""

        class RecordingObserver:
            def __init__(self):
                self.starts = []
                self.ends = 0
                self.rmws = 0

            def on_run_start(self, nranks):
                self.starts.append(nranks)
                self.rmws = 0

            def on_run_end(self):
                self.ends += 1

            def on_rmw(self, rank, call):
                self.rmws += 1

        obs = RecordingObserver()
        rt = make_runtime(observer=obs)

        def failing(ctx):
            from repro.rma.ops import AtomicOp

            ctx.fao(1, 0, 0, AtomicOp.SUM)
            ctx.flush(0)
            if ctx.rank == 1:
                raise ValueError("injected failure")
            ctx.barrier()

        with pytest.raises(ValueError, match="injected failure"):
            rt.run(failing)
        assert obs.starts == [4]
        assert obs.ends == 0  # aborted runs never report a clean end
        failed_rmws = obs.rmws
        assert failed_rmws >= 1

        def clean(ctx):
            from repro.rma.ops import AtomicOp

            ctx.fao(1, 0, 0, AtomicOp.SUM)
            ctx.flush(0)
            return ctx.rank

        result = rt.run(clean)
        assert result.returns == [0, 1, 2, 3]
        assert obs.starts == [4, 4]  # reset ran again for the second run
        assert obs.ends == 1
        assert obs.rmws == 4  # counts from this run only, not the failed one

    def test_lock_oracle_observer_state_resets_across_reentry(self):
        """A run that dies while a rank holds the lock must not poison the
        next run's oracle verdict (the PR 1 re-entry guard, for observers)."""
        from repro.verification.oracles import LockOracleObserver, MODE_WRITE

        obs = LockOracleObserver()
        rt = make_runtime(observer=obs)

        def dies_while_holding(ctx):
            if ctx.rank == 0:
                obs.wait_start(ctx.rank, MODE_WRITE, ctx.now())
                obs.acquired(ctx.rank, MODE_WRITE, ctx.now())
                raise ValueError("holder crashed")
            ctx.barrier()

        with pytest.raises(ValueError, match="holder crashed"):
            rt.run(dies_while_holding)

        def balanced(ctx):
            obs.wait_start(ctx.rank, MODE_WRITE, ctx.now())
            obs.acquired(ctx.rank, MODE_WRITE, ctx.now())
            obs.released(ctx.rank, MODE_WRITE, ctx.now())
            obs.wait_start(ctx.rank, MODE_WRITE, ctx.now())
            obs.acquired(ctx.rank, MODE_WRITE, ctx.now())
            obs.released(ctx.rank, MODE_WRITE, ctx.now())

        rt.run(balanced)
        report = obs.report()
        assert report.ok, [str(v) for v in report.violations]
        assert report.acquires == 8
        assert report.runs_observed == 3  # constructor + two runs


class TestStatistics:
    def test_op_counts_accumulate(self):
        rt = make_runtime()

        def program(ctx):
            ctx.put(1, 0, 0)
            ctx.get(0, 0)
            ctx.flush(0)
            ctx.accumulate(1, 0, 1)
            ctx.fao(1, 0, 2, AtomicOp.SUM)
            ctx.cas(1, 0, 0, 3)

        result = rt.run(program)
        assert result.op_counts["put"] == 4
        assert result.op_counts["get"] == 4
        assert result.op_counts["flush"] == 4
        assert result.op_counts["accumulate"] == 4
        assert result.op_counts["fao"] == 4
        assert result.op_counts["cas"] == 4
        assert result.total_ops() == 24
        assert len(result.per_rank_op_counts) == 4
        assert result.per_rank_op_counts[0]["put"] == 1

    def test_runtime_reusable_across_runs(self):
        rt = make_runtime()
        first = rt.run(lambda ctx: ctx.put(1, 0, 0))
        second = rt.run(lambda ctx: ctx.put(1, 0, 0))
        assert first.op_counts == second.op_counts
        assert rt.window(0).read(0) == 1

    def test_num_ranks_property(self):
        machine = Machine.cluster(nodes=3, procs_per_node=5)
        assert SimRuntime(machine, window_words=2).num_ranks == 15

    def test_wall_time_and_ops_rate_recorded(self):
        rt = make_runtime()

        def program(ctx):
            ctx.put(1, 0, 0)
            ctx.flush(0)

        result = rt.run(program)
        assert result.wall_time_s > 0.0
        assert result.ops_per_sec() > 0.0

    def test_custom_latency_model_respected(self):
        machine = Machine.cluster(nodes=2, procs_per_node=2)
        slow = LatencyModel.scaled(10.0)

        def program(ctx):
            ctx.get(3 - ctx.rank, 0)
            ctx.flush(3 - ctx.rank)

        fast_time = SimRuntime(machine, window_words=2).run(program).total_time_us
        slow_time = SimRuntime(machine, window_words=2, latency=slow).run(program).total_time_us
        assert slow_time > fast_time
