"""Tests for the Cluster/Session facade."""

from __future__ import annotations

import pytest

from repro.api import Cluster, ClusterLock, ParamSpec, UnknownNameError, register_scheme, unregister
from repro.bench.harness import LockBenchResult, run_lock_benchmark
from repro.bench.workloads import LockBenchConfig
from repro.core.rma_rw import RMARWLockSpec
from tests.support import rank_threads_started


class TestClusterConstruction:
    def test_builds_xc30_machine(self):
        with Cluster(procs=16, procs_per_node=4) as c:
            assert c.num_processes == 16
            assert c.machine.n_levels == 2
            assert "runtime=horizon" in c.describe()

    def test_figure2_topology(self):
        c = Cluster(topology="figure2", procs_per_node=3)
        assert c.machine.n_levels == 3

    def test_unknown_topology_suggests(self):
        with pytest.raises(UnknownNameError) as excinfo:
            Cluster(topology="xc-30")
        assert excinfo.value.suggestion == "xc30"

    def test_unknown_runtime_rejected_eagerly(self):
        with pytest.raises(UnknownNameError):
            Cluster(procs=8, runtime="horizn")

    def test_explicit_machine_wins(self):
        from repro.topology.machine import Machine

        machine = Machine.cluster(nodes=3, procs_per_node=2)
        c = Cluster(procs=999, machine=machine)
        assert c.num_processes == 6


class TestClusterLock:
    def test_lock_builds_registered_spec(self):
        c = Cluster(procs=8, procs_per_node=4)
        lock = c.lock("rma-rw", t_dc=4, t_l=(2, 2), t_r=16)
        assert isinstance(lock, ClusterLock)
        assert isinstance(lock.spec, RMARWLockSpec)
        assert lock.is_rw
        assert lock.spec.t_dc == 4
        assert lock.spec.reader_threshold == 16
        assert lock.window_words == lock.spec.window_words
        assert "rma-rw" in repr(lock)

    def test_unknown_scheme_and_param_errors(self):
        c = Cluster(procs=8, procs_per_node=4)
        with pytest.raises(UnknownNameError):
            c.lock("rma-rv")
        with pytest.raises(UnknownNameError) as excinfo:
            c.lock("rma-rw", t_rr=8)
        assert excinfo.value.suggestion == "t_r"


class TestClusterBench:
    def test_bench_returns_lock_bench_result(self):
        with Cluster(procs=8, procs_per_node=4) as c:
            lock = c.lock("rma-rw", t_l=(2, 2), t_r=16)
            result = c.bench(lock, "wcsb", fw=0.02, iterations=5)
        assert isinstance(result, LockBenchResult)
        assert result.scheme == "rma-rw"
        assert result.benchmark == "wcsb"
        assert result.total_acquires == 8 * 5
        assert result.throughput_mln_per_s > 0

    def test_bench_accepts_scheme_name_with_params(self):
        with Cluster(procs=8, procs_per_node=4) as c:
            result = c.bench("rma-mcs", "ecsb", iterations=4, t_l=(2, 2))
        assert result.scheme == "rma-mcs"

    def test_bench_matches_classic_harness_path_bit_for_bit(self):
        """`Cluster.bench` and the config-driven path must agree exactly."""
        with Cluster(procs=16, procs_per_node=4, seed=1) as c:
            lock = c.lock("rma-rw", t_r=32, t_l=(2, 2))
            facade = c.bench(lock, "wcsb", fw=0.02, iterations=6)
        classic = run_lock_benchmark(
            LockBenchConfig(
                machine=c.machine,
                scheme="rma-rw",
                benchmark="wcsb",
                iterations=6,
                fw=0.02,
                t_r=32,
                t_l=(2, 2),
                seed=1,
            )
        )
        assert facade.latency_mean_us == classic.latency_mean_us
        assert facade.elapsed_us == classic.elapsed_us
        assert facade.op_counts == classic.op_counts
        assert facade.as_row() == classic.as_row()

    def test_bench_on_the_reference_is_bit_identical(self, reference):
        with Cluster(procs=8, procs_per_node=4, runtime=reference) as c:
            on_reference = c.bench("rma-rw", "ecsb", iterations=5, t_l=(2, 2))
        with Cluster(procs=8, procs_per_node=4, runtime="horizon") as c:
            horizon = c.bench("rma-rw", "ecsb", iterations=5, t_l=(2, 2))
        assert on_reference.as_row() == horizon.as_row()
        assert on_reference.latency_mean_us == horizon.latency_mean_us

    def test_bench_rejects_params_with_prebuilt_lock(self):
        c = Cluster(procs=8, procs_per_node=4)
        lock = c.lock("d-mcs")
        with pytest.raises(TypeError):
            c.bench(lock, "ecsb", t_r=8)


class TestSession:
    def test_session_merges_layouts_and_runs(self):
        with Cluster(procs=8, procs_per_node=4, seed=9) as c:
            lock = c.lock("rma-mcs", t_l=(2, 2))
            session = c.session(lock, extra_words=1)
            assert session.window_words == lock.window_words + 1
            counter_offset = lock.window_words

            def program(ctx):
                handle = lock.make(ctx)
                ctx.barrier()
                for _ in range(3):
                    with handle.held():
                        ctx.accumulate(1, 0, counter_offset)
                        ctx.flush(0)
                ctx.barrier()

            result = session.run(program)
            assert session.window(0).read(counter_offset) == 8 * 3
            assert result.total_ops() > 0

    def test_session_window_init_merges_multiple_specs(self):
        with Cluster(procs=8, procs_per_node=4) as c:
            first = c.lock("d-mcs")
            second = c.lock("ticket")
            # Conflicting offsets (both start at 0) must be caught on merge...
            session = c.session(first, second)
            with pytest.raises(ValueError, match="conflicting"):
                for rank in range(c.num_processes):
                    session.window_init(rank)

    def test_session_rejects_non_spec_objects(self):
        c = Cluster(procs=8, procs_per_node=4)
        with pytest.raises(TypeError):
            c.session(object())

    def test_ordinary_threaded_code_drives_locks_through_the_bridge(self):
        # A plain blocking function (no generator) is user code: horizon runs
        # it on one bridged thread per rank and hands each call to its loop.
        with Cluster(procs=4, procs_per_node=4) as c:
            lock = c.lock("ticket")
            session = c.session(lock, extra_words=1)
            offset = lock.window_words

            def program(ctx):
                handle = lock.make(ctx)
                ctx.barrier()
                for _ in range(5):
                    with handle.held():
                        value = ctx.get(0, offset)
                        ctx.flush(0)
                        ctx.put(value + 1, 0, offset)
                        ctx.flush(0)
                ctx.barrier()

            with rank_threads_started() as threads:
                session.run(program)
            assert sorted(threads) == [f"sim-rank-{r}" for r in range(4)]
            assert session.window(0).read(offset) == 4 * 5


class TestCustomSchemeEndToEnd:
    def test_registered_scheme_flows_through_cluster_and_harness(self):
        @register_scheme(
            "test-session-lock",
            category="test",
            params=(ParamSpec("home_rank", int, 0, "home rank"),),
            help="test-only centralized lock",
        )
        def _build(machine, home_rank=0):
            from repro.related.ticket import TicketLockSpec

            return TicketLockSpec(num_processes=machine.num_processes, home_rank=home_rank)

        try:
            with Cluster(procs=8, procs_per_node=4) as c:
                lock = c.lock("test-session-lock", home_rank=2)
                assert lock.spec.home_rank == 2
                result = c.bench(lock, "ecsb", iterations=4)
                assert result.scheme == "test-session-lock"
                assert result.total_acquires == 8 * 4
            # The config-driven path accepts it too (live registry validation).
            config = LockBenchConfig(machine=c.machine, scheme="test-session-lock", iterations=3)
            classic = run_lock_benchmark(config)
            assert classic.throughput_mln_per_s > 0
        finally:
            unregister("scheme", "test-session-lock")
