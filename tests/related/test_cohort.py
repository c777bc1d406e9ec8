"""Tests for the cohort (ticket-ticket) lock."""

from __future__ import annotations

import pytest

from repro.core.instrumentation import locality_report
from repro.fault.observers import TimelineObserver
from repro.related.cohort import CohortTicketLockSpec
from repro.rma.sim_runtime import SimRuntime
from repro.topology.machine import Machine
from repro.verification.oracles import observe_lock
from tests.support import STYLES, run_mutex_check


class TestCohortTicketLockSpec:
    def test_window_words_counts_all_six_fields(self):
        machine = Machine.cluster(nodes=2, procs_per_node=2)
        spec = CohortTicketLockSpec(machine)
        assert spec.window_words == 6
        offsets = {
            spec.global_next_offset,
            spec.global_serving_offset,
            spec.local_next_offset,
            spec.local_serving_offset,
            spec.owned_offset,
            spec.passes_offset,
        }
        assert len(offsets) == 6

    def test_leader_of_maps_to_first_rank_of_node(self):
        machine = Machine.cluster(nodes=2, procs_per_node=4)
        spec = CohortTicketLockSpec(machine)
        assert spec.leader_of(0) == 0
        assert spec.leader_of(3) == 0
        assert spec.leader_of(4) == 4
        assert spec.leader_of(7) == 4

    def test_init_window_leader_vs_member(self):
        machine = Machine.cluster(nodes=2, procs_per_node=2)
        spec = CohortTicketLockSpec(machine)
        assert spec.local_next_offset in spec.init_window(2)     # leader of node 1
        assert spec.global_next_offset in spec.init_window(0)    # home rank
        assert spec.init_window(1) == {}                          # plain member

    def test_rejects_bad_parameters(self):
        machine = Machine.single_node(2)
        with pytest.raises(ValueError):
            CohortTicketLockSpec(machine, max_local_passes=0)
        with pytest.raises(ValueError):
            CohortTicketLockSpec(machine, home_rank=9)


class TestCohortTicketLockProtocol:
    @pytest.mark.parametrize("style", STYLES)
    def test_mutual_exclusion(self, style):
        machine = Machine.cluster(nodes=2, procs_per_node=3)
        spec = CohortTicketLockSpec(machine, max_local_passes=2)
        outcome = run_mutex_check(spec, machine, iterations=4, style=style)
        assert outcome.ok, outcome

    def test_mutual_exclusion_single_node(self):
        machine = Machine.single_node(4)
        spec = CohortTicketLockSpec(machine)
        outcome = run_mutex_check(spec, machine, iterations=4)
        assert outcome.ok, outcome

    def test_mutual_exclusion_three_levels(self):
        machine = Machine(fanouts=(2, 2), procs_per_leaf=2)
        spec = CohortTicketLockSpec(machine, max_local_passes=3)
        outcome = run_mutex_check(spec, machine, iterations=3)
        assert outcome.ok, outcome

    def test_first_acquire_goes_through_global_lock(self):
        machine = Machine.cluster(nodes=2, procs_per_node=2)
        spec = CohortTicketLockSpec(machine)
        runtime = SimRuntime(machine, window_words=spec.window_words)

        def program(ctx):
            lock = spec.make(ctx)
            ctx.barrier()
            if ctx.rank == 0:
                lock.acquire()
                acquired_global = lock.last_acquired_global
                lock.release()
                return acquired_global
            return None

        result = runtime.run(program, window_init=spec.init_window)
        assert result.returns[0] is True

    def test_release_without_acquire_raises(self):
        machine = Machine.single_node(2)
        spec = CohortTicketLockSpec(machine)
        runtime = SimRuntime(machine, window_words=spec.window_words)

        def program(ctx):
            lock = spec.make(ctx)
            if ctx.rank == 0:
                with pytest.raises(RuntimeError):
                    lock.release()

        runtime.run(program, window_init=spec.init_window)

    def _locality_for(self, max_local_passes: int) -> float:
        """Node-level hand-off locality of a contended run with the given bound."""
        machine = Machine.cluster(nodes=2, procs_per_node=4)
        iterations = 6
        spec = CohortTicketLockSpec(machine, max_local_passes=max_local_passes)
        timeline = TimelineObserver()
        runtime = SimRuntime(machine, window_words=spec.window_words, seed=3, observer=timeline)

        def program(ctx):
            lock = observe_lock(spec.make(ctx), ctx, ctx.observer)
            ctx.barrier()
            for _ in range(iterations):
                lock.acquire()
                ctx.compute(0.3)
                lock.release()
            ctx.barrier()

        runtime.run(program, window_init=spec.init_window)
        grants = [hold.rank for hold in timeline.holds]
        assert len(grants) == machine.num_processes * iterations
        return locality_report(machine, grants).node_locality

    def test_larger_pass_bound_increases_handoff_locality(self):
        """The may-pass-local bound is the cohort lock's locality/fairness knob."""
        fair = self._locality_for(max_local_passes=1)
        local = self._locality_for(max_local_passes=16)
        assert local >= fair

    def test_pass_bound_one_forces_global_acquire_every_time(self):
        machine = Machine.cluster(nodes=2, procs_per_node=2)
        spec = CohortTicketLockSpec(machine, max_local_passes=1)
        runtime = SimRuntime(machine, window_words=spec.window_words)
        iterations = 3

        def program(ctx):
            lock = spec.make(ctx)
            ctx.barrier()
            global_acquires = 0
            for _ in range(iterations):
                lock.acquire()
                if lock.last_acquired_global:
                    global_acquires += 1
                ctx.compute(0.2)
                lock.release()
            ctx.barrier()
            return global_acquires

        result = runtime.run(program, window_init=spec.init_window)
        total_global = sum(result.returns)
        total = iterations * machine.num_processes
        # With a pass bound of one, at most one local hand-off can follow each
        # global acquisition, so at least half of all acquisitions must have
        # gone through the global lock.
        assert total_global >= total / 2
