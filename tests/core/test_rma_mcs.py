"""Tests for the topology-aware RMA-MCS lock."""

from __future__ import annotations

import pytest

from repro.core.constants import NULL_RANK
from repro.core.rma_mcs import RMAMCSLockSpec
from repro.core.tree import UNBOUNDED_THRESHOLD
from repro.rma.sim_runtime import SimRuntime
from repro.topology.machine import Machine
from tests.support import check_on_every_path, run_mutex_check


class TestSpec:
    def test_window_words_cover_all_levels(self, three_level_machine):
        spec = RMAMCSLockSpec(three_level_machine, t_l=(2, 3, 4))
        assert spec.window_words == 3 * three_level_machine.n_levels

    def test_level1_threshold_is_never_applied(self, small_cluster):
        spec = RMAMCSLockSpec(small_cluster, t_l=(5, 7))
        assert spec.locality_threshold(1) == UNBOUNDED_THRESHOLD
        assert spec.locality_threshold(2) == 7

    def test_default_thresholds_unbounded(self, small_cluster):
        spec = RMAMCSLockSpec(small_cluster)
        for level in range(1, small_cluster.n_levels + 1):
            assert spec.locality_threshold(level) == UNBOUNDED_THRESHOLD

    def test_short_threshold_form(self, three_level_machine):
        spec = RMAMCSLockSpec(three_level_machine, t_l=(3, 4))  # levels 2 and 3
        assert spec.locality_threshold(2) == 3
        assert spec.locality_threshold(3) == 4

    def test_init_window_nulls(self, small_cluster):
        spec = RMAMCSLockSpec(small_cluster)
        init = spec.init_window(0)
        for level in range(1, small_cluster.n_levels + 1):
            assert init[spec.layout.tail_offset(level)] == NULL_RANK

    def test_handle_rejects_mismatched_runtime(self, small_cluster):
        spec = RMAMCSLockSpec(small_cluster)
        rt = SimRuntime(Machine.single_node(2), window_words=spec.window_words)
        with pytest.raises(ValueError):
            rt.run(lambda ctx: spec.make(ctx))


class TestMutualExclusion:
    def test_single_node_machine(self):
        machine = Machine.single_node(5)
        outcome = run_mutex_check(RMAMCSLockSpec(machine, t_l=(3,)), machine, iterations=6)
        assert outcome.ok

    def test_two_level_machine(self, medium_cluster):
        spec = RMAMCSLockSpec(medium_cluster, t_l=(1, 3))
        outcome = run_mutex_check(spec, medium_cluster, iterations=6)
        assert outcome.ok

    def test_three_level_machine(self, three_level_machine):
        spec = RMAMCSLockSpec(three_level_machine, t_l=(2, 2, 2))
        outcome = run_mutex_check(spec, three_level_machine, iterations=5)
        assert outcome.ok

    def test_unbounded_thresholds(self, small_cluster):
        spec = RMAMCSLockSpec(small_cluster)
        outcome = run_mutex_check(spec, small_cluster, iterations=5)
        assert outcome.ok

    def test_threshold_of_one_forces_fair_handovers(self, small_cluster):
        spec = RMAMCSLockSpec(small_cluster, t_l=(1, 1))
        outcome = run_mutex_check(spec, small_cluster, iterations=5)
        assert outcome.ok

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_various_seeds(self, medium_cluster, seed):
        spec = RMAMCSLockSpec(medium_cluster, t_l=(2, 4))
        outcome = run_mutex_check(spec, medium_cluster, iterations=4, seed=seed)
        assert outcome.ok

    def test_four_level_machine(self):
        machine = Machine(fanouts=(2, 2, 2), procs_per_leaf=2)
        spec = RMAMCSLockSpec(machine, t_l=(2, 2, 2, 2))
        outcome = run_mutex_check(spec, machine, iterations=4)
        assert outcome.ok

    def test_on_the_reference(self):
        machine = Machine.cluster(nodes=2, procs_per_node=2)
        spec = RMAMCSLockSpec(machine, t_l=(2, 2))
        check_on_every_path(run_mutex_check, spec, machine, iterations=8)


class TestTopologyAwareness:
    def test_queue_state_clean_after_run(self, medium_cluster):
        spec = RMAMCSLockSpec(medium_cluster, t_l=(2, 2))
        rt = SimRuntime(medium_cluster, window_words=spec.window_words)

        def program(ctx):
            lock = spec.make(ctx)
            ctx.barrier()
            for _ in range(4):
                lock.acquire()
                lock.release()
            ctx.barrier()

        rt.run(program, window_init=spec.init_window)
        layout = spec.layout
        for level in range(1, medium_cluster.n_levels + 1):
            for element in range(medium_cluster.num_elements(level)):
                host = medium_cluster.first_rank_of_element(level, element)
                assert rt.window(host).read(layout.tail_offset(level)) == NULL_RANK

    def test_locality_reduces_cross_node_handoffs(self):
        """With a large node-level threshold the lock stays inside a node longer.

        We measure the number of consecutive same-node grants: with T_L,2 = 1
        the lock must leave the node after every grant whenever another node
        is waiting, so high-locality runs should see at least as many
        consecutive same-node grants as fairness-first runs.
        """
        machine = Machine.cluster(nodes=2, procs_per_node=4)

        def count_same_node_runs(t_l2: int) -> int:
            spec = RMAMCSLockSpec(machine, t_l=(1, t_l2))
            order_off = spec.window_words
            ticket_off = spec.window_words + 63
            rt = SimRuntime(machine, window_words=spec.window_words + 64)

            def program(ctx):
                from repro.rma.ops import AtomicOp

                lock = spec.make(ctx)
                ctx.barrier()
                for _ in range(4):
                    lock.acquire()
                    ticket = ctx.fao(1, 0, ticket_off, AtomicOp.SUM)
                    ctx.put(ctx.rank, 0, order_off + ticket)
                    ctx.flush(0)
                    lock.release()
                ctx.barrier()

            rt.run(program, window_init=spec.init_window)
            grants = [rt.window(0).read(order_off + i) for i in range(machine.num_processes * 4)]
            same_node = 0
            for a, b in zip(grants, grants[1:]):
                if machine.node_of(a) == machine.node_of(b):
                    same_node += 1
            return same_node

        assert count_same_node_runs(8) >= count_same_node_runs(1)

    def test_topology_aware_lock_beats_oblivious_on_hierarchy(self):
        """RMA-MCS should not be slower than D-MCS once several nodes contend."""
        from repro.core.dmcs import DMCSLockSpec

        machine = Machine.cluster(nodes=4, procs_per_node=4)
        mcs = run_mutex_check(RMAMCSLockSpec(machine, t_l=(1, 4)), machine, iterations=6)
        dmcs = run_mutex_check(DMCSLockSpec(num_processes=machine.num_processes), machine, iterations=6)
        assert mcs.ok and dmcs.ok
        assert mcs.total_time_us <= dmcs.total_time_us * 1.5
