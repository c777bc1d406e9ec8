"""Tests for the D-MCS distributed queue lock (Listings 2-3)."""

from __future__ import annotations

import pytest

from repro.core.constants import NULL_RANK
from repro.core.dmcs import DMCSLockSpec
from repro.rma.sim_runtime import SimRuntime
from repro.topology.machine import Machine
from tests.support import check_on_every_path, run_mutex_check


class TestSpec:
    def test_window_layout(self):
        spec = DMCSLockSpec(num_processes=8)
        assert spec.window_words == 3
        assert len({spec.next_offset, spec.status_offset, spec.tail_offset}) == 3

    def test_base_offset_shifts_layout(self):
        spec = DMCSLockSpec(num_processes=8, base_offset=10)
        assert spec.next_offset == 10
        assert spec.window_words == 13

    def test_init_window(self):
        spec = DMCSLockSpec(num_processes=4, tail_rank=2)
        assert spec.init_window(2)[spec.tail_offset] == NULL_RANK
        assert spec.tail_offset not in spec.init_window(0)
        assert spec.init_window(0)[spec.next_offset] == NULL_RANK

    def test_validation(self):
        with pytest.raises(ValueError):
            DMCSLockSpec(num_processes=0)
        with pytest.raises(ValueError):
            DMCSLockSpec(num_processes=4, tail_rank=4)

    def test_handle_rejects_mismatched_runtime(self):
        machine = Machine.single_node(3)
        spec = DMCSLockSpec(num_processes=5)
        rt = SimRuntime(machine, window_words=spec.window_words)

        def program(ctx):
            spec.make(ctx)

        with pytest.raises(ValueError, match="ranks"):
            rt.run(program, window_init=spec.init_window)


class TestMutualExclusion:
    def test_single_process(self):
        machine = Machine.single_node(1)
        outcome = run_mutex_check(DMCSLockSpec(num_processes=1), machine, iterations=5)
        assert outcome.ok

    def test_single_node(self):
        machine = Machine.single_node(6)
        outcome = run_mutex_check(DMCSLockSpec(num_processes=6), machine, iterations=6)
        assert outcome.ok

    def test_multi_node(self, medium_cluster):
        spec = DMCSLockSpec(num_processes=medium_cluster.num_processes)
        outcome = run_mutex_check(spec, medium_cluster, iterations=6)
        assert outcome.ok

    def test_three_level_machine(self, three_level_machine):
        spec = DMCSLockSpec(num_processes=three_level_machine.num_processes)
        outcome = run_mutex_check(spec, three_level_machine, iterations=5)
        assert outcome.ok

    def test_non_zero_tail_rank(self, small_cluster):
        spec = DMCSLockSpec(num_processes=small_cluster.num_processes, tail_rank=5)
        outcome = run_mutex_check(spec, small_cluster, iterations=5)
        assert outcome.ok

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_different_seeds(self, small_cluster, seed):
        spec = DMCSLockSpec(num_processes=small_cluster.num_processes)
        outcome = run_mutex_check(spec, small_cluster, iterations=4, seed=seed)
        assert outcome.ok

    def test_on_the_reference(self):
        machine = Machine.single_node(4)
        spec = DMCSLockSpec(num_processes=4)
        check_on_every_path(run_mutex_check, spec, machine, iterations=10)


class TestQueueBehaviour:
    def test_lock_state_clean_after_run(self, small_cluster):
        """After everyone releases, the tail must be null and nobody waits."""
        spec = DMCSLockSpec(num_processes=small_cluster.num_processes)
        rt = SimRuntime(small_cluster, window_words=spec.window_words)

        def program(ctx):
            lock = spec.make(ctx)
            ctx.barrier()
            for _ in range(3):
                lock.acquire()
                lock.release()
            ctx.barrier()

        rt.run(program, window_init=spec.init_window)
        assert rt.window(spec.tail_rank).read(spec.tail_offset) == NULL_RANK

    def test_uncontended_acquire_is_fast(self):
        """An uncontended acquire needs only the tail FAO round-trip."""
        machine = Machine.single_node(2)
        spec = DMCSLockSpec(num_processes=2)
        rt = SimRuntime(machine, window_words=spec.window_words)

        def program(ctx):
            lock = spec.make(ctx)
            if ctx.rank == 1:
                start = ctx.now()
                lock.acquire()
                lock.release()
                return ctx.now() - start
            return 0.0

        result = rt.run(program, window_init=spec.init_window)
        assert 0 < result.returns[1] < 10.0

    def test_fifo_hand_off_order(self):
        """With staggered arrivals the lock is granted in arrival order."""
        machine = Machine.single_node(4)
        spec = DMCSLockSpec(num_processes=4)
        order_off = spec.window_words
        ticket_off = spec.window_words + 1
        rt = SimRuntime(machine, window_words=spec.window_words + 8)

        def program(ctx):
            lock = spec.make(ctx)
            ctx.barrier()
            ctx.compute(float(ctx.rank) * 50.0)  # arrive well apart, in rank order
            lock.acquire()
            from repro.rma.ops import AtomicOp

            ticket = ctx.fao(1, 0, ticket_off, AtomicOp.SUM)
            ctx.put(ctx.rank, 0, order_off + 2 + ticket)
            ctx.flush(0)
            lock.release()
            ctx.barrier()

        rt.run(program, window_init=spec.init_window)
        grant_order = [rt.window(0).read(order_off + 2 + i) for i in range(4)]
        assert grant_order == [0, 1, 2, 3]
