"""Tests for the NUMA-aware reader-writer lock (per-node reader counters)."""

from __future__ import annotations

import pytest

from repro.related.numa_rw import NumaRWLockSpec
from repro.rma.sim_runtime import SimRuntime
from repro.topology.machine import Machine
from tests.support import STYLES, run_rw_check


class TestNumaRWLockSpec:
    def test_layout_does_not_overlap_internal_writer_lock(self):
        machine = Machine.cluster(nodes=2, procs_per_node=2)
        spec = NumaRWLockSpec(machine)
        own = {spec.writer_present_offset, spec.readers_offset}
        writer = {
            spec.writer_lock.global_next_offset,
            spec.writer_lock.global_serving_offset,
            spec.writer_lock.local_next_offset,
            spec.writer_lock.local_serving_offset,
            spec.writer_lock.owned_offset,
            spec.writer_lock.passes_offset,
        }
        assert own.isdisjoint(writer)
        assert spec.window_words == 8

    def test_reader_counter_rank_is_node_leader(self):
        machine = Machine.cluster(nodes=3, procs_per_node=4)
        spec = NumaRWLockSpec(machine)
        assert spec.reader_counter_rank(0) == 0
        assert spec.reader_counter_rank(5) == 4
        assert spec.reader_counter_rank(11) == 8
        assert spec.reader_counter_ranks() == [0, 4, 8]

    def test_single_node_machine_has_one_reader_counter(self):
        machine = Machine.single_node(4)
        spec = NumaRWLockSpec(machine)
        assert spec.reader_counter_ranks() == [0]

    def test_rejects_bad_home_rank(self):
        machine = Machine.single_node(2)
        with pytest.raises(ValueError):
            NumaRWLockSpec(machine, home_rank=7)

    def test_init_window_covers_home_and_leaders(self):
        machine = Machine.cluster(nodes=2, procs_per_node=2)
        spec = NumaRWLockSpec(machine)
        init0 = spec.init_window(0)
        assert spec.writer_present_offset in init0
        assert spec.readers_offset in init0
        init2 = spec.init_window(2)
        assert spec.readers_offset in init2
        assert spec.writer_present_offset not in init2


class TestNumaRWLockProtocol:
    @pytest.mark.parametrize("style", STYLES)
    def test_rw_exclusion_mixed_roles(self, style):
        machine = Machine.cluster(nodes=2, procs_per_node=3)
        spec = NumaRWLockSpec(machine)
        outcome = run_rw_check(spec, machine, iterations=4, fw=0.3, seed=5, style=style)
        assert outcome.ok, outcome

    def test_readers_admitted_concurrently(self):
        machine = Machine.cluster(nodes=2, procs_per_node=3)
        spec = NumaRWLockSpec(machine)
        # A single dedicated writer; everyone else only reads.
        outcome = run_rw_check(spec, machine, iterations=4, writer_ranks=[0], seed=7)
        assert outcome.ok, outcome
        assert outcome.max_concurrent_readers >= 2

    def test_pure_writer_workload_is_exclusive(self):
        machine = Machine.cluster(nodes=2, procs_per_node=2)
        spec = NumaRWLockSpec(machine)
        outcome = run_rw_check(
            spec, machine, iterations=3, writer_ranks=list(range(machine.num_processes))
        )
        assert outcome.ok, outcome
        assert outcome.writes == machine.num_processes * 3
        assert outcome.reads == 0

    def test_pure_reader_workload(self):
        machine = Machine.cluster(nodes=2, procs_per_node=2)
        spec = NumaRWLockSpec(machine)
        outcome = run_rw_check(spec, machine, iterations=3, writer_ranks=[])
        assert outcome.ok, outcome
        assert outcome.writes == 0

    def test_plain_lock_interface_maps_to_writer_side(self):
        machine = Machine.single_node(3)
        spec = NumaRWLockSpec(machine)
        runtime = SimRuntime(machine, window_words=spec.window_words + 1)
        shared = spec.window_words

        def program(ctx):
            lock = spec.make(ctx)
            ctx.barrier()
            with lock.held():
                value = ctx.get(0, shared)
                ctx.flush(0)
                ctx.put(value + 1, 0, shared)
                ctx.flush(0)
            ctx.barrier()

        runtime.run(program, window_init=spec.init_window)
        assert runtime.window(0).read(shared) == machine.num_processes

    def test_reader_counters_return_to_zero_after_run(self):
        machine = Machine.cluster(nodes=2, procs_per_node=2)
        spec = NumaRWLockSpec(machine)
        runtime = SimRuntime(machine, window_words=spec.window_words)

        def program(ctx):
            lock = spec.make(ctx)
            ctx.barrier()
            for _ in range(3):
                with lock.reading():
                    ctx.compute(0.2)
            ctx.barrier()

        runtime.run(program, window_init=spec.init_window)
        for leader in spec.reader_counter_ranks():
            assert runtime.window(leader).read(spec.readers_offset) == 0
