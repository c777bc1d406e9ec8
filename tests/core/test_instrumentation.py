"""Tests for hand-off locality analysis over observed grant sequences."""

from __future__ import annotations

import pytest

from repro.core.dmcs import DMCSLockSpec
from repro.core.instrumentation import locality_report
from repro.core.rma_mcs import RMAMCSLockSpec
from repro.fault.observers import TimelineObserver
from repro.rma.sim_runtime import SimRuntime
from repro.topology.machine import Machine
from repro.verification.oracles import observe_lock


class TestLocalityReport:
    def test_empty_sequence(self):
        machine = Machine.cluster(nodes=2, procs_per_node=4)
        report = locality_report(machine, [])
        assert report.transitions == 0
        assert report.node_locality == 1.0

    def test_all_same_node(self):
        machine = Machine.cluster(nodes=2, procs_per_node=4)
        report = locality_report(machine, [0, 1, 2, 3])
        assert report.node_locality == 1.0
        assert report.same_node_transitions == 3

    def test_alternating_nodes(self):
        machine = Machine.cluster(nodes=2, procs_per_node=4)
        report = locality_report(machine, [0, 4, 1, 5])
        assert report.node_locality == 0.0

    def test_mixed_sequence(self):
        machine = Machine.cluster(nodes=2, procs_per_node=4)
        report = locality_report(machine, [0, 1, 4, 5, 6])
        assert report.same_node_transitions == 3
        assert report.transitions == 4
        assert report.node_locality == pytest.approx(0.75)

    def test_unfilled_slots_are_filtered(self):
        machine = Machine.cluster(nodes=2, procs_per_node=2)
        report = locality_report(machine, [0, 0, 3, -1, 3, 3])
        assert report.recorded_grants == 5
        assert report.transitions == 4


class TestObservedGrants:
    """The grant sequence read off a timeline observer's holds."""

    def _grants(self, machine, lock_spec, iterations=3):
        timeline = TimelineObserver()
        rt = SimRuntime(machine, window_words=lock_spec.window_words, observer=timeline)

        def program(ctx):
            lock = observe_lock(lock_spec.make(ctx), ctx, ctx.observer)
            ctx.barrier()
            for _ in range(iterations):
                with lock.held():
                    ctx.compute(0.3)
            ctx.barrier()

        rt.run(program, window_init=lock_spec.init_window)
        return [hold.rank for hold in timeline.holds]

    def test_every_grant_recorded(self, small_cluster):
        spec = DMCSLockSpec(num_processes=small_cluster.num_processes)
        grants = self._grants(small_cluster, spec, iterations=3)
        assert len(grants) == small_cluster.num_processes * 3
        for rank in range(small_cluster.num_processes):
            assert grants.count(rank) == 3

    def test_locality_of_topology_aware_lock_is_at_least_oblivious(self):
        machine = Machine.cluster(nodes=2, procs_per_node=4)
        dmcs_grants = self._grants(machine, DMCSLockSpec(num_processes=machine.num_processes), iterations=4)
        mcs_grants = self._grants(machine, RMAMCSLockSpec(machine, t_l=(1, 8)), iterations=4)
        dmcs_locality = locality_report(machine, dmcs_grants).node_locality
        rma_locality = locality_report(machine, mcs_grants).node_locality
        assert rma_locality >= dmcs_locality
