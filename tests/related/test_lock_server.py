"""Tests for the centralized lock-server grant queue."""

from __future__ import annotations

import pytest

from repro.related.lock_server import LockServerSpec
from repro.rma.sim_runtime import SimRuntime
from repro.topology.machine import Machine
from tests.support import STYLES, run_mutex_check


class TestLockServerSpec:
    def test_window_words(self):
        spec = LockServerSpec(num_processes=4)
        assert spec.window_words == 2

    def test_init_window_server_only(self):
        spec = LockServerSpec(num_processes=4, server_rank=2)
        assert spec.init_window(2) == {spec.next_offset: 0, spec.grant_offset: 0}
        assert spec.init_window(0) == {}

    def test_rejects_bad_server_rank(self):
        with pytest.raises(ValueError):
            LockServerSpec(num_processes=2, server_rank=2)

    def test_rejects_negative_threshold(self):
        with pytest.raises(ValueError):
            LockServerSpec(num_processes=2, queue_threshold=-1)

    def test_rejects_cap_below_min_backoff(self):
        with pytest.raises(ValueError):
            LockServerSpec(num_processes=2, poll_cap_us=0.1, min_backoff_us=1.0)

    def test_rebasable_layout(self):
        spec = LockServerSpec(num_processes=2, base_offset=3)
        assert spec.next_offset == 3
        assert spec.grant_offset == 4
        assert spec.window_words == 5


class TestLockServerProtocol:
    @pytest.mark.parametrize("threshold", [0, 1, 8])
    @pytest.mark.parametrize("style", STYLES)
    def test_mutual_exclusion_across_the_policy_axis(self, style, threshold):
        # threshold=0 is the pure FIFO queue, 8 >= P is pure poll-retry.
        machine = Machine.cluster(nodes=2, procs_per_node=3)
        spec = LockServerSpec(num_processes=6, queue_threshold=threshold)
        outcome = run_mutex_check(spec, machine, iterations=3, style=style)
        assert outcome.ok, outcome

    def test_uncontended_acquire_claims_without_polling(self):
        machine = Machine.single_node(2)
        spec = LockServerSpec(num_processes=2)
        runtime = SimRuntime(machine, window_words=spec.window_words)

        def program(ctx):
            lock = spec.make(ctx)
            ctx.barrier()
            if ctx.rank == 0:
                lock.acquire()
                polls = lock.last_polls
                issued = ctx.get(spec.server_rank, spec.next_offset)
                served = ctx.get(spec.server_rank, spec.grant_offset)
                ctx.flush(spec.server_rank)
                lock.release()
                return polls, issued - served
            return None

        result = runtime.run(program, window_init=spec.init_window)
        polls, depth = result.returns[0]
        assert polls == 0
        assert depth == 1  # our ticket is issued but not yet served

    def test_queue_drains_back_to_zero(self):
        machine = Machine.single_node(3)
        spec = LockServerSpec(num_processes=3, queue_threshold=0)
        runtime = SimRuntime(machine, window_words=spec.window_words)

        def program(ctx):
            lock = spec.make(ctx)
            ctx.barrier()
            lock.acquire()
            ctx.compute(0.5)
            lock.release()
            ctx.barrier()

        runtime.run(program, window_init=spec.init_window)
        server = runtime.window(spec.server_rank)
        assert server.read(spec.next_offset) == server.read(spec.grant_offset) == 3
