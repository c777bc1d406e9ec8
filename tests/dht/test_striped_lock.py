"""Tests for the striped (per-volume) reader-writer locks.

The protocol tests are step programs run three ways — inline on
``horizon``, as blocking programs bridged on ``horizon``, and on the
reference interpreter (``tests/reference.py``): the striped lock was
previously only exercised through the DHT workload on the default runtime.
"""

from __future__ import annotations

import pytest

from repro.dht.striped_lock import StripeBoundRWLockSpec, StripedRWLockSpec
from repro.dht.workload import DHTWorkloadConfig, run_dht_benchmark
from repro.rma.ops import AtomicOp
from repro.rma.runtime_base import ACCUMULATE, BARRIER, FAO, FLUSH, GET, PUT, SPIN_WHILE, blocking_program
from repro.rma.sim_runtime import SimRuntime
from repro.topology.machine import Machine

from tests.reference import REFERENCE, ReferenceRuntime

SCHEDULERS = ("horizon", "horizon-bridged", REFERENCE)


def run(scheduler: str, machine, steps, spec, *, extra_words: int, seed: int):
    """Run the step program ``steps``; ``horizon-bridged`` runs it as a blocking program."""
    runtime_cls = ReferenceRuntime if scheduler == REFERENCE else SimRuntime
    runtime = runtime_cls(machine, window_words=spec.window_words + extra_words, seed=seed)
    program = blocking_program(steps) if scheduler == "horizon-bridged" else steps
    return runtime, runtime.run(program, window_init=spec.init_window)


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
        iterations = 4

        def program(ctx):
            lock = spec.make(ctx)
            yield (BARRIER,)
            for _ in range(iterations):
                yield from lock.acquire_write_steps(0)
                value = yield (GET, 0, shared)
                yield (FLUSH, 0)
                yield (PUT, value + 1, 0, shared)
                yield (FLUSH, 0)
                yield from lock.release_write_steps(0)
            yield (BARRIER,)

        runtime, _ = run(scheduler, machine, program, spec, extra_words=1, seed=1)
        assert runtime.window(0).read(shared) == machine.num_processes * iterations

    def test_different_stripes_do_not_exclude_each_other(self, scheduler):
        machine = Machine.single_node(2)
        spec = StripedRWLockSpec(num_processes=2)
        flag = spec.window_words

        def program(ctx):
            lock = spec.make(ctx)
            yield (BARRIER,)
            if ctx.rank == 0:
                yield from lock.acquire_write_steps(0)
                # Wait for rank 1 to prove it entered stripe 1 concurrently.
                yield (SPIN_WHILE, 0, flag, lambda v: v == 0)
                yield from lock.release_write_steps(0)
                return None
            yield from lock.acquire_write_steps(1)
            observed_holder_elsewhere = True
            yield (PUT, 1, 0, flag)
            yield (FLUSH, 0)
            yield from lock.release_write_steps(1)
            return observed_holder_elsewhere

        _, result = run(scheduler, machine, program, spec, extra_words=1, seed=2)
        assert result.returns[1] is True

    def test_readers_share_a_stripe_and_block_writers(self, scheduler):
        machine = Machine.single_node(3)
        spec = StripedRWLockSpec(num_processes=3)
        inside_flag = spec.window_words       # count of readers currently inside stripe 0
        done_flag = spec.window_words + 1     # count of readers that finished

        def program(ctx):
            lock = spec.make(ctx)
            yield (BARRIER,)
            if ctx.rank == 0:
                # Writer: enter stripe 0 only after both readers finished.
                yield (SPIN_WHILE, 0, done_flag, lambda v: v < 2)
                yield from lock.acquire_write_steps(0)
                still_inside = yield (GET, 0, inside_flag)
                yield (FLUSH, 0)
                yield from lock.release_write_steps(0)
                return still_inside
            yield from lock.acquire_read_steps(0)
            seen = (yield (FAO, 1, 0, inside_flag, AtomicOp.SUM)) + 1
            yield (FLUSH, 0)
            # Wait inside the stripe until the other reader has also entered:
            # proves that two readers share one stripe concurrently.
            yield (SPIN_WHILE, 0, inside_flag, lambda v: v < 2)
            yield (ACCUMULATE, -1, 0, inside_flag, AtomicOp.SUM)
            yield (FLUSH, 0)
            yield from lock.release_read_steps(0)
            yield (ACCUMULATE, 1, 0, done_flag, AtomicOp.SUM)
            yield (FLUSH, 0)
            return seen

        _, result = run(scheduler, machine, program, spec, extra_words=2, seed=3)
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
        iterations = 3

        def program(ctx):
            lock = spec.make(ctx)
            yield (BARRIER,)
            for _ in range(iterations):
                yield from lock.acquire_write_steps()
                value = yield (GET, 0, shared)
                yield (FLUSH, 0)
                yield (PUT, value + 1, 0, shared)
                yield (FLUSH, 0)
                yield from lock.release_write_steps()
            yield (BARRIER,)

        runtime, _ = run(scheduler, machine, program, spec, extra_words=1, seed=4)
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
