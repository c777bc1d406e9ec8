"""Tests for the RMA-RW topology-aware reader-writer lock."""

from __future__ import annotations

import pytest

from repro.core.constants import NULL_RANK
from repro.core.rma_rw import RMARWLockSpec
from repro.rma.sim_runtime import SimRuntime
from repro.topology.machine import Machine
from tests.support import check_on_every_path, run_mutex_check, run_rw_check


class TestSpec:
    def test_default_t_dc_is_one_counter_per_node(self):
        machine = Machine.cluster(nodes=4, procs_per_node=8)
        spec = RMARWLockSpec(machine)
        assert spec.t_dc == 8
        assert spec.counter.counter_ranks == [0, 8, 16, 24]

    def test_default_t_dc_single_node(self):
        machine = Machine.single_node(6)
        spec = RMARWLockSpec(machine)
        assert spec.t_dc == 6
        assert spec.counter.num_counters == 1

    def test_window_words_cover_tree_and_counter(self, small_cluster):
        spec = RMARWLockSpec(small_cluster)
        assert spec.window_words == 3 * small_cluster.n_levels + 2

    def test_default_writer_threshold_is_product_of_locality(self, small_cluster):
        spec = RMARWLockSpec(small_cluster, t_l=(3, 5))
        assert spec.writer_threshold == 15

    def test_explicit_writer_threshold(self, small_cluster):
        spec = RMARWLockSpec(small_cluster, t_l=(3, 5), t_w=7)
        assert spec.writer_threshold == 7

    def test_reader_threshold_exposed(self, small_cluster):
        assert RMARWLockSpec(small_cluster, t_r=17).reader_threshold == 17

    def test_validation(self, small_cluster):
        with pytest.raises(ValueError):
            RMARWLockSpec(small_cluster, t_r=0)
        with pytest.raises(ValueError):
            RMARWLockSpec(small_cluster, t_dc=0)
        with pytest.raises(ValueError):
            RMARWLockSpec(small_cluster, t_w=0)

    def test_init_window_merges_tree_and_counter(self, small_cluster):
        spec = RMARWLockSpec(small_cluster)
        init = spec.init_window(0)
        assert init[spec.layout.tail_offset(1)] == NULL_RANK

    def test_handle_rejects_mismatched_runtime(self, small_cluster):
        spec = RMARWLockSpec(small_cluster)
        rt = SimRuntime(Machine.single_node(3), window_words=spec.window_words)
        with pytest.raises(ValueError):
            rt.run(lambda ctx: spec.make(ctx))


class TestWriterOnly:
    """With only writers RMA-RW must behave like a correct exclusive lock."""

    def test_writers_single_node(self):
        machine = Machine.single_node(5)
        spec = RMARWLockSpec(machine, t_l=(2,), t_r=8)
        outcome = run_mutex_check(spec, machine, iterations=5)
        assert outcome.ok

    def test_writers_two_levels(self, medium_cluster):
        spec = RMARWLockSpec(medium_cluster, t_l=(2, 2), t_r=8)
        outcome = run_mutex_check(spec, medium_cluster, iterations=5)
        assert outcome.ok

    def test_writers_three_levels(self, three_level_machine):
        spec = RMARWLockSpec(three_level_machine, t_l=(2, 2, 2), t_r=8)
        outcome = run_mutex_check(spec, three_level_machine, iterations=4)
        assert outcome.ok

    def test_small_writer_threshold_forces_mode_changes(self, small_cluster):
        """T_W = 1 hands the lock to (non-existent) readers after every writer."""
        spec = RMARWLockSpec(small_cluster, t_l=(2, 2), t_r=4, t_w=1)
        outcome = run_mutex_check(spec, small_cluster, iterations=4)
        assert outcome.ok


class TestReadersAndWriters:
    def test_fixed_roles_two_levels(self, medium_cluster):
        spec = RMARWLockSpec(medium_cluster, t_l=(2, 2), t_r=8)
        outcome = run_rw_check(spec, medium_cluster, iterations=5, writer_ranks=[0, 5])
        assert outcome.ok
        assert outcome.max_concurrent_readers >= 2

    def test_random_roles(self, medium_cluster):
        spec = RMARWLockSpec(medium_cluster, t_l=(2, 2), t_r=8)
        outcome = run_rw_check(spec, medium_cluster, iterations=6, fw=0.2, seed=3)
        assert outcome.ok

    def test_read_dominated_workload(self, medium_cluster):
        spec = RMARWLockSpec(medium_cluster, t_l=(2, 2), t_r=16)
        outcome = run_rw_check(spec, medium_cluster, iterations=8, fw=0.02, seed=1)
        assert outcome.ok

    def test_write_dominated_workload(self, medium_cluster):
        spec = RMARWLockSpec(medium_cluster, t_l=(2, 2), t_r=8)
        outcome = run_rw_check(spec, medium_cluster, iterations=5, fw=0.8, seed=2)
        assert outcome.ok

    def test_all_readers(self, medium_cluster):
        spec = RMARWLockSpec(medium_cluster, t_l=(2, 2), t_r=8)
        outcome = run_rw_check(spec, medium_cluster, iterations=8, writer_ranks=[])
        assert outcome.ok
        assert outcome.writes == 0
        assert outcome.max_concurrent_readers >= 2

    def test_small_reader_threshold(self, medium_cluster):
        """T_R smaller than the reader count forces frequent counter resets."""
        spec = RMARWLockSpec(medium_cluster, t_l=(2, 2), t_r=2)
        outcome = run_rw_check(spec, medium_cluster, iterations=6, writer_ranks=[0], seed=4)
        assert outcome.ok

    def test_single_physical_counter(self, medium_cluster):
        spec = RMARWLockSpec(medium_cluster, t_dc=medium_cluster.num_processes, t_l=(2, 2), t_r=8)
        outcome = run_rw_check(spec, medium_cluster, iterations=5, writer_ranks=[7])
        assert outcome.ok

    def test_counter_per_rank(self, small_cluster):
        spec = RMARWLockSpec(small_cluster, t_dc=1, t_l=(2, 2), t_r=8)
        outcome = run_rw_check(spec, small_cluster, iterations=5, writer_ranks=[3])
        assert outcome.ok

    def test_three_level_machine_mixed(self, three_level_machine):
        spec = RMARWLockSpec(three_level_machine, t_l=(2, 2, 2), t_r=8)
        outcome = run_rw_check(spec, three_level_machine, iterations=4, writer_ranks=[0, 6])
        assert outcome.ok

    def test_single_level_machine_mixed(self, single_node):
        spec = RMARWLockSpec(single_node, t_l=(3,), t_r=6)
        outcome = run_rw_check(spec, single_node, iterations=6, writer_ranks=[2])
        assert outcome.ok

    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_seed_sweep_mixed_workload(self, medium_cluster, seed):
        spec = RMARWLockSpec(medium_cluster, t_l=(2, 2), t_r=8)
        outcome = run_rw_check(spec, medium_cluster, iterations=5, fw=0.25, seed=seed)
        assert outcome.ok

    def test_on_the_reference(self):
        machine = Machine.cluster(nodes=2, procs_per_node=2)
        spec = RMARWLockSpec(machine, t_l=(2, 2), t_r=8)
        check_on_every_path(run_rw_check, spec, machine, iterations=6, writer_ranks=[0])


class TestCounterLifecycle:
    def test_counters_return_to_read_mode_after_writer(self, medium_cluster):
        """After the last writer leaves, the counters must be reset so readers can run."""
        spec = RMARWLockSpec(medium_cluster, t_l=(2, 2), t_r=8)
        rt = SimRuntime(medium_cluster, window_words=spec.window_words)

        def program(ctx):
            lock = spec.make(ctx)
            ctx.barrier()
            if ctx.rank == 0:
                lock.acquire_write()
                lock.release_write()
            ctx.barrier()
            # everyone reads afterwards; this only terminates if the counters were reset
            lock.acquire_read()
            lock.release_read()
            ctx.barrier()

        rt.run(program, window_init=spec.init_window)
        for counter in spec.counter.counter_ranks:
            window = rt.window(counter)
            arrive = window.read(spec.counter.arrive_offset)
            depart = window.read(spec.counter.depart_offset)
            assert arrive == depart  # balanced, and no WRITE flag left behind

    def test_tree_clean_after_mixed_run(self, medium_cluster):
        spec = RMARWLockSpec(medium_cluster, t_l=(2, 2), t_r=4)
        rt = SimRuntime(medium_cluster, window_words=spec.window_words)

        def program(ctx):
            lock = spec.make(ctx)
            ctx.barrier()
            for _ in range(3):
                if ctx.rank % 5 == 0:
                    lock.acquire_write()
                    lock.release_write()
                else:
                    lock.acquire_read()
                    lock.release_read()
            ctx.barrier()

        rt.run(program, window_init=spec.init_window)
        layout = spec.layout
        for level in range(1, medium_cluster.n_levels + 1):
            for element in range(medium_cluster.num_elements(level)):
                host = medium_cluster.first_rank_of_element(level, element)
                assert rt.window(host).read(layout.tail_offset(level)) == NULL_RANK
