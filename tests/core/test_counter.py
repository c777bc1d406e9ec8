"""Tests for the distributed counter (DC)."""

from __future__ import annotations

import pytest

from repro.core.constants import WRITE_FLAG
from repro.core.counter import DistributedCounterHandle, DistributedCounterSpec
from repro.core.layout import LayoutAllocator
from repro.rma.sim_runtime import SimRuntime
from repro.topology.machine import Machine
from repro.topology.mapping import CounterPlacement


def make_spec(machine: Machine, t_dc: int) -> DistributedCounterSpec:
    placement = CounterPlacement(t_dc=t_dc, num_processes=machine.num_processes)
    return DistributedCounterSpec.allocate(placement, LayoutAllocator())


class TestSpec:
    def test_counter_ranks_follow_placement(self):
        machine = Machine.cluster(nodes=2, procs_per_node=4)
        spec = make_spec(machine, t_dc=4)
        assert spec.counter_ranks == [0, 4]
        assert spec.num_counters == 2
        assert spec.counter_rank_of(6) == 4

    def test_offsets_are_distinct(self):
        machine = Machine.cluster(nodes=2, procs_per_node=4)
        spec = make_spec(machine, t_dc=4)
        assert spec.arrive_offset != spec.depart_offset

    def test_init_window_is_empty(self):
        machine = Machine.cluster(nodes=2, procs_per_node=4)
        spec = make_spec(machine, t_dc=4)
        assert dict(spec.init_window(0)) == {}


class TestReaderSide:
    def test_arrive_and_depart_update_local_counter(self):
        machine = Machine.cluster(nodes=2, procs_per_node=4)
        spec = make_spec(machine, t_dc=4)
        rt = SimRuntime(machine, window_words=4)

        def program(ctx):
            dc = spec.make(ctx)
            prev = dc.reader_arrive()
            dc.reader_depart()
            return prev

        rt.run(program)
        # each physical counter served 4 local readers
        for counter in spec.counter_ranks:
            w = rt.window(counter)
            assert w.read(spec.arrive_offset) == 4
            assert w.read(spec.depart_offset) == 4

    def test_reader_backoff_undoes_arrival(self):
        machine = Machine.single_node(3)
        spec = make_spec(machine, t_dc=3)
        rt = SimRuntime(machine, window_words=4)

        def program(ctx):
            dc = spec.make(ctx)
            dc.reader_arrive()
            dc.reader_backoff()

        rt.run(program)
        assert rt.window(0).read(spec.arrive_offset) == 0

    def test_arrive_returns_previous_value(self):
        machine = Machine.single_node(1)
        spec = make_spec(machine, t_dc=1)
        rt = SimRuntime(machine, window_words=4)

        def program(ctx):
            dc = spec.make(ctx)
            return [dc.reader_arrive() for _ in range(3)]

        result = rt.run(program)
        assert result.returns[0] == [0, 1, 2]


class TestWriterSide:
    def test_set_counters_to_write_marks_every_counter(self):
        machine = Machine.cluster(nodes=2, procs_per_node=4)
        spec = make_spec(machine, t_dc=4)
        rt = SimRuntime(machine, window_words=4)

        def program(ctx):
            if ctx.rank == 0:
                spec.make(ctx).set_counters_to_write()

        rt.run(program)
        for counter in spec.counter_ranks:
            assert rt.window(counter).read(spec.arrive_offset) >= WRITE_FLAG

    def test_reset_counter_clears_flag_and_balances(self):
        machine = Machine.single_node(4)
        spec = make_spec(machine, t_dc=4)
        rt = SimRuntime(machine, window_words=4)

        def program(ctx):
            dc = spec.make(ctx)
            if ctx.rank != 0:
                dc.reader_arrive()
                dc.reader_depart()
            ctx.barrier()
            if ctx.rank == 0:
                dc.set_counters_to_write()
                dc.wait_readers_drained()
                dc.reset_counters()

        rt.run(program)
        w = rt.window(0)
        assert w.read(spec.arrive_offset) == 0
        assert w.read(spec.depart_offset) == 0

    def test_wait_readers_drained_blocks_until_departure(self):
        machine = Machine.single_node(2)
        spec = make_spec(machine, t_dc=2)
        rt = SimRuntime(machine, window_words=4)

        def program(ctx):
            dc = spec.make(ctx)
            if ctx.rank == 1:
                dc.reader_arrive()
                ctx.barrier()
                ctx.compute(25.0)
                dc.reader_depart()
                return None
            ctx.barrier()
            dc.set_counters_to_write()
            start = ctx.now()
            dc.wait_readers_drained()
            return ctx.now() - start

        result = rt.run(program)
        assert result.returns[0] > 0  # the writer had to wait for the reader

    def test_active_readers_helper(self):
        assert DistributedCounterHandle._active_readers(5, 3) == 2
        assert DistributedCounterHandle._active_readers(WRITE_FLAG + 5, 5) == 0
        assert DistributedCounterHandle._active_readers(WRITE_FLAG, 0) == 0
