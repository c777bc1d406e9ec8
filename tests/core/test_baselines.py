"""Tests for the centralized baseline locks (foMPI-Spin and foMPI-RW stand-ins)."""

from __future__ import annotations

import pytest

from repro.core.baselines import FompiRWLockSpec, FompiSpinLockSpec
from repro.rma.sim_runtime import SimRuntime
from repro.topology.machine import Machine
from tests.support import check_on_every_path, run_mutex_check, run_rw_check


class TestSpinLockSpec:
    def test_layout(self):
        spec = FompiSpinLockSpec(num_processes=4)
        assert spec.window_words == 1
        spec_shifted = FompiSpinLockSpec(num_processes=4, base_offset=7)
        assert spec_shifted.lock_offset == 7

    def test_init_window_only_on_home(self):
        spec = FompiSpinLockSpec(num_processes=4, home_rank=2)
        assert spec.init_window(2) == {spec.lock_offset: 0}
        assert spec.init_window(0) == {}

    def test_validation(self):
        with pytest.raises(ValueError):
            FompiSpinLockSpec(num_processes=0)
        with pytest.raises(ValueError):
            FompiSpinLockSpec(num_processes=4, home_rank=9)

    def test_handle_rejects_wrong_runtime_size(self):
        spec = FompiSpinLockSpec(num_processes=8)
        rt = SimRuntime(Machine.single_node(2), window_words=2)
        with pytest.raises(ValueError):
            rt.run(lambda ctx: spec.make(ctx))


class TestSpinLockBehaviour:
    def test_mutual_exclusion_single_node(self):
        machine = Machine.single_node(5)
        outcome = run_mutex_check(FompiSpinLockSpec(num_processes=5), machine, iterations=6)
        assert outcome.ok

    def test_mutual_exclusion_multi_node(self, medium_cluster):
        spec = FompiSpinLockSpec(num_processes=medium_cluster.num_processes)
        outcome = run_mutex_check(spec, medium_cluster, iterations=5)
        assert outcome.ok

    def test_non_default_home_rank(self, small_cluster):
        spec = FompiSpinLockSpec(num_processes=small_cluster.num_processes, home_rank=4)
        outcome = run_mutex_check(spec, small_cluster, iterations=4)
        assert outcome.ok

    def test_lock_word_free_after_run(self, small_cluster):
        spec = FompiSpinLockSpec(num_processes=small_cluster.num_processes)
        rt = SimRuntime(small_cluster, window_words=spec.window_words)

        def program(ctx):
            lock = spec.make(ctx)
            ctx.barrier()
            lock.acquire()
            lock.release()

        rt.run(program, window_init=spec.init_window)
        assert rt.window(0).read(spec.lock_offset) == 0

    def test_mutual_exclusion_on_the_reference(self):
        machine = Machine.single_node(4)
        check_on_every_path(run_mutex_check, FompiSpinLockSpec(num_processes=4), machine, iterations=10)


class TestRWLockSpec:
    def test_layout_and_init(self):
        spec = FompiRWLockSpec(num_processes=4)
        assert spec.window_words == 1
        assert spec.init_window(0) == {spec.word_offset: 0}
        assert spec.init_window(3) == {}

    def test_validation(self):
        with pytest.raises(ValueError):
            FompiRWLockSpec(num_processes=0)
        with pytest.raises(ValueError):
            FompiRWLockSpec(num_processes=2, home_rank=2)


class TestRWLockBehaviour:
    def test_writer_exclusion_and_reader_concurrency(self, small_cluster):
        spec = FompiRWLockSpec(num_processes=small_cluster.num_processes)
        outcome = run_rw_check(spec, small_cluster, iterations=6, writer_ranks=[0, 4])
        assert outcome.ok
        assert outcome.max_concurrent_readers >= 2  # readers really overlap

    def test_all_readers(self, small_cluster):
        spec = FompiRWLockSpec(num_processes=small_cluster.num_processes)
        outcome = run_rw_check(spec, small_cluster, iterations=6, writer_ranks=[])
        assert outcome.ok
        assert outcome.writes == 0

    def test_all_writers(self, small_cluster):
        spec = FompiRWLockSpec(num_processes=small_cluster.num_processes)
        outcome = run_rw_check(
            spec, small_cluster, iterations=4, writer_ranks=list(range(small_cluster.num_processes))
        )
        assert outcome.ok
        assert outcome.reads == 0

    def test_random_roles(self, small_cluster):
        spec = FompiRWLockSpec(num_processes=small_cluster.num_processes)
        outcome = run_rw_check(spec, small_cluster, iterations=6, fw=0.3, seed=5)
        assert outcome.ok
        assert outcome.reads + outcome.writes == outcome.expected_acquisitions

    def test_word_clean_after_run(self, small_cluster):
        spec = FompiRWLockSpec(num_processes=small_cluster.num_processes)
        rt = SimRuntime(small_cluster, window_words=spec.window_words)

        def program(ctx):
            lock = spec.make(ctx)
            ctx.barrier()
            if ctx.rank % 2 == 0:
                lock.acquire_write()
                lock.release_write()
            else:
                lock.acquire_read()
                lock.release_read()

        rt.run(program, window_init=spec.init_window)
        assert rt.window(0).read(spec.word_offset) == 0

    def test_on_the_reference(self):
        machine = Machine.single_node(4)
        spec = FompiRWLockSpec(num_processes=4)
        check_on_every_path(run_rw_check, spec, machine, iterations=8, writer_ranks=[0])
