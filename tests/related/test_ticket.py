"""Tests for the centralized FIFO ticket lock."""

from __future__ import annotations

import pytest

from repro.related.ticket import TicketLockSpec
from repro.rma.sim_runtime import SimRuntime
from repro.topology.machine import Machine
from tests.support import STYLES, run_mutex_check


class TestTicketLockSpec:
    def test_window_words_counts_both_words(self):
        spec = TicketLockSpec(num_processes=4)
        assert spec.window_words == 2
        assert spec.next_ticket_offset != spec.now_serving_offset

    def test_base_offset_shifts_layout(self):
        spec = TicketLockSpec(num_processes=4, base_offset=10)
        assert spec.next_ticket_offset == 10
        assert spec.now_serving_offset == 11
        assert spec.window_words == 12

    def test_init_window_only_on_home_rank(self):
        spec = TicketLockSpec(num_processes=4, home_rank=2)
        assert spec.init_window(2) == {spec.next_ticket_offset: 0, spec.now_serving_offset: 0}
        assert spec.init_window(0) == {}

    def test_rejects_bad_home_rank(self):
        with pytest.raises(ValueError):
            TicketLockSpec(num_processes=4, home_rank=4)

    def test_rejects_zero_processes(self):
        with pytest.raises(ValueError):
            TicketLockSpec(num_processes=0)

    def test_handle_rejects_mismatched_runtime(self):
        spec = TicketLockSpec(num_processes=8)
        machine = Machine.single_node(2)
        runtime = SimRuntime(machine, window_words=spec.window_words)

        def program(ctx):
            with pytest.raises(ValueError):
                spec.make(ctx)

        runtime.run(program, window_init=spec.init_window)


class TestTicketLockProtocol:
    @pytest.mark.parametrize("style", STYLES)
    def test_mutual_exclusion(self, style):
        machine = Machine.cluster(nodes=2, procs_per_node=3)
        spec = TicketLockSpec(num_processes=machine.num_processes)
        outcome = run_mutex_check(spec, machine, iterations=4, style=style)
        assert outcome.ok, outcome

    def test_single_rank_can_reacquire(self):
        machine = Machine.single_node(1)
        spec = TicketLockSpec(num_processes=1)
        outcome = run_mutex_check(spec, machine, iterations=6)
        assert outcome.ok

    def test_release_without_acquire_raises(self):
        machine = Machine.single_node(2)
        spec = TicketLockSpec(num_processes=2)
        runtime = SimRuntime(machine, window_words=spec.window_words)

        def program(ctx):
            lock = spec.make(ctx)
            ctx.barrier()
            if ctx.rank == 0:
                with pytest.raises(RuntimeError):
                    lock.release()

        runtime.run(program, window_init=spec.init_window)

    def test_grants_follow_ticket_order(self):
        """The order of critical sections matches the order tickets were drawn."""
        machine = Machine.cluster(nodes=2, procs_per_node=2)
        p = machine.num_processes
        spec = TicketLockSpec(num_processes=p)
        ticket_log = spec.window_words  # p words: ticket -> rank
        runtime = SimRuntime(machine, window_words=spec.window_words + p)

        def program(ctx):
            lock = spec.make(ctx)
            ctx.barrier()
            lock.acquire()
            ticket = lock._my_ticket
            ctx.put(ctx.rank, 0, ticket_log + ticket)
            ctx.flush(0)
            lock.release()
            return ticket

        result = runtime.run(program, window_init=spec.init_window)
        tickets = sorted(result.returns)
        assert tickets == list(range(p))
        # Every ticket slot was filled by exactly one rank.
        owners = [runtime.window(0).read(ticket_log + t) for t in range(p)]
        assert sorted(owners) == list(range(p))
