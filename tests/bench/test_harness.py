"""Tests for the benchmark harness."""

from __future__ import annotations

import pytest

from repro.bench.harness import build_lock_spec, run_lock_benchmark
from repro.bench.workloads import SCHEMES, LockBenchConfig
from repro.core.baselines import FompiRWLockSpec, FompiSpinLockSpec
from repro.core.dmcs import DMCSLockSpec
from repro.core.rma_mcs import RMAMCSLockSpec
from repro.core.rma_rw import RMARWLockSpec
from repro.rma import sim_runtime
from repro.rma.latency import LatencyModel
from repro.topology.machine import Machine
from repro.util.rng import rank_rng


@pytest.fixture
def machine() -> Machine:
    return Machine.cluster(nodes=2, procs_per_node=4)


class TestBuildLockSpec:
    def test_all_schemes_buildable(self, machine):
        from repro.related.alock import ALockSpec
        from repro.related.cohort import CohortTicketLockSpec
        from repro.related.hbo import HBOLockSpec
        from repro.related.lock_server import LockServerSpec
        from repro.related.numa_rw import NumaRWLockSpec
        from repro.related.ticket import TicketLockSpec

        expected_types = {
            "fompi-spin": FompiSpinLockSpec,
            "d-mcs": DMCSLockSpec,
            "rma-mcs": RMAMCSLockSpec,
            "fompi-rw": FompiRWLockSpec,
            "rma-rw": RMARWLockSpec,
            "ticket": TicketLockSpec,
            "hbo": HBOLockSpec,
            "cohort": CohortTicketLockSpec,
            "numa-rw": NumaRWLockSpec,
            "alock": ALockSpec,
            "lock-server": LockServerSpec,
        }
        for scheme in SCHEMES:
            config = LockBenchConfig(machine=machine, scheme=scheme, t_l=(2, 2))
            spec, is_rw = build_lock_spec(config)
            assert isinstance(spec, expected_types[scheme])
            assert is_rw == config.is_rw_scheme

    def test_rw_thresholds_forwarded(self, machine):
        config = LockBenchConfig(machine=machine, scheme="rma-rw", t_dc=2, t_l=(3, 5), t_r=11, t_w=9)
        spec, _ = build_lock_spec(config)
        assert spec.t_dc == 2
        assert spec.reader_threshold == 11
        assert spec.writer_threshold == 9
        assert spec.locality_threshold(2) == 5


class TestRunLockBenchmark:
    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_every_scheme_runs_ecsb(self, machine, scheme):
        config = LockBenchConfig(
            machine=machine, scheme=scheme, benchmark="ecsb", iterations=6, fw=0.2, t_l=(2, 2), t_r=8
        )
        result = run_lock_benchmark(config)
        assert result.total_acquires == machine.num_processes * 6
        assert result.throughput_mln_per_s > 0
        assert result.latency_mean_us > 0
        assert result.elapsed_us > 0
        assert result.scheme == scheme

    @pytest.mark.parametrize("bench_name", ["lb", "ecsb", "sob", "wcsb", "warb"])
    def test_every_benchmark_runs(self, machine, bench_name):
        config = LockBenchConfig(
            machine=machine, scheme="rma-rw", benchmark=bench_name, iterations=5, fw=0.2, t_l=(2, 2), t_r=8
        )
        result = run_lock_benchmark(config)
        assert result.benchmark == bench_name
        assert result.reads + result.writes == result.total_acquires

    def test_mcs_schemes_count_everything_as_writes(self, machine):
        config = LockBenchConfig(machine=machine, scheme="d-mcs", benchmark="ecsb", iterations=4)
        result = run_lock_benchmark(config)
        assert result.reads == 0
        assert result.writes == result.total_acquires

    def test_rw_role_split_follows_fw(self, machine):
        config = LockBenchConfig(
            machine=machine, scheme="rma-rw", benchmark="ecsb", iterations=10, fw=0.0, t_l=(2, 2), t_r=8
        )
        result = run_lock_benchmark(config)
        assert result.writes == 0
        config = LockBenchConfig(
            machine=machine, scheme="rma-rw", benchmark="ecsb", iterations=10, fw=1.0, t_l=(2, 2), t_r=8
        )
        result = run_lock_benchmark(config)
        assert result.reads == 0

    def test_deterministic_given_seed(self, machine):
        config = LockBenchConfig(
            machine=machine, scheme="rma-rw", benchmark="sob", iterations=6, fw=0.2, t_l=(2, 2), t_r=8, seed=5
        )
        a = run_lock_benchmark(config)
        b = run_lock_benchmark(config)
        assert a.throughput_mln_per_s == b.throughput_mln_per_s
        assert a.latency_mean_us == b.latency_mean_us

    def test_seed_override(self, machine):
        config = LockBenchConfig(
            machine=machine, scheme="rma-rw", benchmark="ecsb", iterations=6, fw=0.5, t_l=(2, 2), t_r=8, seed=5
        )
        default_seed = run_lock_benchmark(config)
        overridden = run_lock_benchmark(config, seed=99)
        # different seeds change the reader/writer mix and therefore the result
        assert (default_seed.reads, default_seed.writes) != (overridden.reads, overridden.writes) or \
            default_seed.throughput_mln_per_s != overridden.throughput_mln_per_s

    def test_wcsb_slower_than_ecsb(self, machine):
        """The in-CS computation of WCSB must lower throughput vs an empty CS."""
        common = dict(machine=machine, scheme="d-mcs", iterations=6, seed=2)
        ecsb = run_lock_benchmark(LockBenchConfig(benchmark="ecsb", **common))
        wcsb = run_lock_benchmark(LockBenchConfig(benchmark="wcsb", **common))
        assert wcsb.throughput_mln_per_s < ecsb.throughput_mln_per_s

    def test_custom_latency_model(self, machine):
        config = LockBenchConfig(machine=machine, scheme="d-mcs", benchmark="ecsb", iterations=6)
        fast = run_lock_benchmark(config)
        slow = run_lock_benchmark(config, latency_model=LatencyModel(same_node_us=3.0, same_group_us=8.0, global_us=12.0))
        assert slow.throughput_mln_per_s < fast.throughput_mln_per_s

    def test_a_loop_that_never_draws_builds_no_rank_generator(self, machine, monkeypatch):
        """``ctx.rng`` is built on first use: an ecsb run of rma-mcs (no role
        draw, no compute draw, a lock handle that never draws) builds no rank
        generator; a wcsb run, which draws its compute times, one per rank."""
        built = []

        def counting_rank_rng(seed, rank):
            built.append(rank)
            return rank_rng(seed, rank)

        monkeypatch.setattr(sim_runtime, "rank_rng", counting_rank_rng)
        run_lock_benchmark(LockBenchConfig(machine=machine, scheme="rma-mcs", benchmark="ecsb", iterations=4))
        assert built == []
        run_lock_benchmark(LockBenchConfig(machine=machine, scheme="rma-mcs", benchmark="wcsb", iterations=4))
        assert sorted(built) == list(range(machine.num_processes))

    def test_as_row_contents(self, machine):
        config = LockBenchConfig(machine=machine, scheme="rma-mcs", benchmark="sob", iterations=5, t_l=(2, 2))
        row = run_lock_benchmark(config).as_row()
        assert row["scheme"] == "rma-mcs"
        assert row["benchmark"] == "sob"
        assert row["P"] == machine.num_processes
        assert row["throughput_mln_s"] > 0
        assert {"latency_us", "latency_p95_us", "elapsed_us", "acquires"} <= set(row)
