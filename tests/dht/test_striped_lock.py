"""Tests for the striped (per-volume) reader-writer locks.

A stripe is foMPI-RW (``repro.core.baselines``) homed on its volume, so the
protocol itself is tested in ``tests/core/test_baselines.py``; here the
stripes are placed, told apart and driven.  The step programs run three
ways — inline on ``horizon``, as blocking programs bridged on ``horizon``,
and on the reference interpreter (``tests/reference.py``).
"""

from __future__ import annotations

import pytest

from repro.core.baselines import FompiRWLockHandle, FompiRWLockSpec
from repro.dht.striped_lock import StripedRWLockSpec
from repro.dht.workload import DHTWorkloadConfig, run_dht_benchmark
from repro.rma.runtime_base import BARRIER, FLUSH, GET, PUT, SPIN_WHILE, blocking_program
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

    def test_stripe_is_fompi_rw_homed_on_its_volume(self):
        machine = Machine.single_node(3)
        spec = StripedRWLockSpec(num_processes=3, base_offset=5)
        runtime = SimRuntime(machine, window_words=spec.window_words)

        def program(ctx):
            stripes = spec.make(ctx)
            for volume in range(3):
                lock = stripes.stripe(volume)
                assert isinstance(lock, FompiRWLockHandle)
                assert lock.spec == FompiRWLockSpec(3, home_rank=volume, base_offset=5)
                assert lock.spec.word_offset == spec.word_offset
                assert stripes.stripe(volume) is lock  # one handle per (rank, volume)
            for volume in (3, -1):
                with pytest.raises(ValueError, match=f"volume {volume} out of range 0..2"):
                    stripes.stripe(volume)

        runtime.run(program, window_init=spec.init_window)
        # Every rank's handles share the per-volume specs the striped spec built.
        assert spec.stripes == tuple(FompiRWLockSpec(3, home_rank=v, base_offset=5) for v in range(3))


@pytest.mark.parametrize("scheduler", SCHEDULERS)
class TestStripes:
    def test_writers_on_one_stripe_are_exclusive(self, scheduler):
        machine = Machine.cluster(nodes=2, procs_per_node=2)
        spec = StripedRWLockSpec(num_processes=machine.num_processes)
        shared = spec.window_words
        iterations = 3

        def program(ctx):
            lock = spec.make(ctx).stripe(1)
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

    def test_different_stripes_do_not_exclude_each_other(self, scheduler):
        machine = Machine.single_node(2)
        spec = StripedRWLockSpec(num_processes=2)
        flag = spec.window_words

        def program(ctx):
            stripes = spec.make(ctx)
            yield (BARRIER,)
            if ctx.rank == 0:
                yield from stripes.stripe(0).acquire_write_steps()
                # Wait for rank 1 to prove it entered stripe 1 concurrently.
                yield (SPIN_WHILE, 0, flag, lambda v: v == 0)
                yield from stripes.stripe(0).release_write_steps()
                return None
            yield from stripes.stripe(1).acquire_write_steps()
            observed_holder_elsewhere = True
            yield (PUT, 1, 0, flag)
            yield (FLUSH, 0)
            yield from stripes.stripe(1).release_write_steps()
            return observed_holder_elsewhere

        _, result = run(scheduler, machine, program, spec, extra_words=1, seed=2)
        assert result.returns[1] is True


class TestConformanceAdapter:
    """The conformance adapter: stripe 0 as a plain RW lock."""

    def test_registry_exposes_the_adapter(self):
        from repro.api.registry import get_scheme

        info = get_scheme("striped-rw")
        assert not info.harness
        assert info.conformance_adapter is not None
        machine = Machine.single_node(4)
        spec = info.conformance_adapter(machine)
        assert spec == StripedRWLockSpec(num_processes=4).stripes[0]
        assert spec == FompiRWLockSpec(num_processes=4, home_rank=0)
        assert spec.window_words == 1

    def test_adapter_runs_under_the_benchmark_harness(self):
        """harness=False + adapter: build_lock_spec produces stripe 0."""
        from repro.bench.harness import build_lock_spec, run_lock_benchmark
        from repro.bench.workloads import LockBenchConfig

        machine = Machine.cluster(nodes=2, procs_per_node=2)
        config = LockBenchConfig(
            machine=machine, scheme="striped-rw", benchmark="wcsb",
            iterations=3, fw=0.3, seed=6,
        )
        spec, is_rw = build_lock_spec(config)
        assert isinstance(spec, FompiRWLockSpec) and spec.home_rank == 0
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
