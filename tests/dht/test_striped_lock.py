"""Tests for the striped (per-volume) reader-writer locks.

The protocol tests are parametrized over both deterministic schedulers
(ISSUE 4 satellite): the striped lock was previously only exercised through
the DHT workload on the default runtime.
"""

from __future__ import annotations

import pytest

from repro.api.registry import get_runtime
from repro.dht.striped_lock import StripeBoundRWLockSpec, StripedRWLockSpec
from repro.dht.workload import DHTWorkloadConfig, run_dht_benchmark
from repro.rma.ops import AtomicOp
from repro.rma.sim_runtime import SimRuntime
from repro.topology.machine import Machine

SCHEDULERS = ("horizon", "baseline")


def make_runtime(scheduler: str, machine, **kwargs):
    return get_runtime(scheduler).factory(machine, **kwargs)


class TestStripedRWLockSpec:
    def test_one_word_per_rank(self):
        spec = StripedRWLockSpec(num_processes=4)
        assert spec.window_words == 1
        assert spec.init_window(2) == {spec.word_offset: 0}

    def test_base_offset_is_respected(self):
        spec = StripedRWLockSpec(num_processes=4, base_offset=7)
        assert spec.word_offset == 7
        assert spec.window_words == 8

    def test_rejects_zero_processes(self):
        with pytest.raises(ValueError):
            StripedRWLockSpec(num_processes=0)

    def test_handle_validates_volume_range(self):
        machine = Machine.single_node(2)
        spec = StripedRWLockSpec(num_processes=2)
        runtime = SimRuntime(machine, window_words=spec.window_words)

        def program(ctx):
            lock = spec.make(ctx)
            with pytest.raises(ValueError):
                lock.acquire_read(5)
            with pytest.raises(ValueError):
                lock.release_write(-1)

        runtime.run(program, window_init=spec.init_window)


@pytest.mark.parametrize("scheduler", SCHEDULERS)
class TestStripedRWLockProtocol:
    def test_writers_on_one_stripe_are_exclusive(self, scheduler):
        machine = Machine.cluster(nodes=2, procs_per_node=2)
        spec = StripedRWLockSpec(num_processes=machine.num_processes)
        shared = spec.window_words
        runtime = make_runtime(scheduler, machine, window_words=spec.window_words + 1, seed=1)
        iterations = 4

        def program(ctx):
            lock = spec.make(ctx)
            ctx.barrier()
            for _ in range(iterations):
                lock.acquire_write(0)
                value = ctx.get(0, shared)
                ctx.flush(0)
                ctx.put(value + 1, 0, shared)
                ctx.flush(0)
                lock.release_write(0)
            ctx.barrier()

        runtime.run(program, window_init=spec.init_window)
        assert runtime.window(0).read(shared) == machine.num_processes * iterations

    def test_different_stripes_do_not_exclude_each_other(self, scheduler):
        machine = Machine.single_node(2)
        spec = StripedRWLockSpec(num_processes=2)
        flag = spec.window_words
        runtime = make_runtime(scheduler, machine, window_words=spec.window_words + 1, seed=2)

        def program(ctx):
            lock = spec.make(ctx)
            ctx.barrier()
            if ctx.rank == 0:
                lock.acquire_write(0)
                # Wait for rank 1 to prove it entered stripe 1 concurrently.
                ctx.spin_while(0, flag, lambda v: v == 0)
                lock.release_write(0)
                return None
            lock.acquire_write(1)
            observed_holder_elsewhere = True
            ctx.put(1, 0, flag)
            ctx.flush(0)
            lock.release_write(1)
            return observed_holder_elsewhere

        result = runtime.run(program, window_init=spec.init_window)
        assert result.returns[1] is True

    def test_readers_share_a_stripe_and_block_writers(self, scheduler):
        machine = Machine.single_node(3)
        spec = StripedRWLockSpec(num_processes=3)
        inside_flag = spec.window_words       # count of readers currently inside stripe 0
        done_flag = spec.window_words + 1     # count of readers that finished
        runtime = make_runtime(scheduler, machine, window_words=spec.window_words + 2, seed=3)

        def program(ctx):
            lock = spec.make(ctx)
            ctx.barrier()
            if ctx.rank == 0:
                # Writer: enter stripe 0 only after both readers finished.
                ctx.spin_while(0, done_flag, lambda v: v < 2)
                lock.acquire_write(0)
                still_inside = ctx.get(0, inside_flag)
                ctx.flush(0)
                lock.release_write(0)
                return still_inside
            lock.acquire_read(0)
            seen = ctx.fao(1, 0, inside_flag, AtomicOp.SUM) + 1
            ctx.flush(0)
            # Wait inside the stripe until the other reader has also entered:
            # proves that two readers share one stripe concurrently.
            ctx.spin_while(0, inside_flag, lambda v: v < 2)
            ctx.accumulate(-1, 0, inside_flag, AtomicOp.SUM)
            ctx.flush(0)
            lock.release_read(0)
            ctx.accumulate(1, 0, done_flag, AtomicOp.SUM)
            ctx.flush(0)
            return seen

        result = runtime.run(program, window_init=spec.init_window)
        # Each reader observed itself inside the stripe, both completed (so two
        # readers coexisted), and the writer found no reader left inside.
        assert sorted(r for r in result.returns[1:]) == [1, 2] or all(
            r in (1, 2) for r in result.returns[1:]
        )
        assert result.returns[0] == 0


class TestStripeBoundAdapter:
    """The conformance adapter: one stripe exposed as a plain RW lock."""

    def test_registry_exposes_the_adapter(self):
        from repro.api.registry import get_scheme

        info = get_scheme("striped-rw")
        assert not info.harness
        assert info.conformance_adapter is not None
        machine = Machine.single_node(4)
        spec = info.conformance_adapter(machine)
        assert isinstance(spec, StripeBoundRWLockSpec)
        assert spec.volume == 0
        assert spec.window_words == 1

    def test_adapter_rejects_out_of_range_volume(self):
        inner = StripedRWLockSpec(num_processes=2)
        with pytest.raises(ValueError):
            StripeBoundRWLockSpec(inner=inner, volume=5)

    @pytest.mark.parametrize("scheduler", SCHEDULERS)
    def test_adapter_is_mutually_exclusive_on_its_stripe(self, scheduler):
        machine = Machine.cluster(nodes=2, procs_per_node=2)
        spec = StripeBoundRWLockSpec(
            inner=StripedRWLockSpec(num_processes=machine.num_processes)
        )
        shared = spec.window_words
        runtime = make_runtime(scheduler, machine, window_words=spec.window_words + 1, seed=4)
        iterations = 3

        def program(ctx):
            lock = spec.make(ctx)
            ctx.barrier()
            for _ in range(iterations):
                with lock.writing():
                    value = ctx.get(0, shared)
                    ctx.flush(0)
                    ctx.put(value + 1, 0, shared)
                    ctx.flush(0)
            ctx.barrier()

        runtime.run(program, window_init=spec.init_window)
        assert runtime.window(0).read(shared) == machine.num_processes * iterations

    def test_adapter_runs_under_the_benchmark_harness(self):
        """harness=False + adapter: build_lock_spec produces the facade."""
        from repro.bench.harness import build_lock_spec, run_lock_benchmark
        from repro.bench.workloads import LockBenchConfig

        machine = Machine.cluster(nodes=2, procs_per_node=2)
        config = LockBenchConfig(
            machine=machine, scheme="striped-rw", benchmark="wcsb",
            iterations=3, fw=0.3, seed=6,
        )
        spec, is_rw = build_lock_spec(config)
        assert isinstance(spec, StripeBoundRWLockSpec)
        assert is_rw
        result = run_lock_benchmark(config)
        assert result.total_acquires == machine.num_processes * 3


class TestStripedSchemeInWorkload:
    def test_striped_scheme_runs_by_key(self):
        machine = Machine.cluster(nodes=2, procs_per_node=2)
        config = DHTWorkloadConfig(
            machine=machine,
            scheme="striped-rw",
            ops_per_process=5,
            fw=0.3,
            access_pattern="by-key",
            distribution="zipfian",
            distinct_keys=64,
            seed=21,
        )
        outcome = run_dht_benchmark(config)
        assert outcome.total_ops == machine.num_processes * 5
        assert outcome.scheme == "striped-rw"

    def test_striped_scheme_runs_victim_pattern(self):
        machine = Machine.cluster(nodes=2, procs_per_node=2)
        config = DHTWorkloadConfig(
            machine=machine, scheme="striped-rw", ops_per_process=4, fw=0.5, seed=22
        )
        outcome = run_dht_benchmark(config)
        assert outcome.total_ops == (machine.num_processes - 1) * 4
