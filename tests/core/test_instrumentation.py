"""Tests for lock instrumentation and hand-off locality analysis."""

from __future__ import annotations

import pytest

from repro.core.dmcs import DMCSLockSpec
from repro.core.instrumentation import (
    GrantLedgerSpec,
    InstrumentedLock,
    locality_report,
)
from repro.core.rma_mcs import RMAMCSLockSpec
from repro.rma.sim_runtime import SimRuntime
from repro.topology.machine import Machine


class TestGrantLedgerSpec:
    def test_layout(self):
        ledger = GrantLedgerSpec(capacity=10, base_offset=5)
        assert ledger.counter_offset == 5
        assert ledger.grants_offset == 6
        assert ledger.window_words == 16

    def test_init_only_on_home_rank(self):
        ledger = GrantLedgerSpec(capacity=4, home_rank=1)
        assert ledger.init_window(0) == {}
        init = ledger.init_window(1)
        assert init[ledger.counter_offset] == 0
        assert init[ledger.grants_offset] == -1

    def test_validation(self):
        with pytest.raises(ValueError):
            GrantLedgerSpec(capacity=0)
        with pytest.raises(ValueError):
            GrantLedgerSpec(capacity=4, home_rank=-1)


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


class TestInstrumentedLocks:
    def _run_instrumented(self, machine, lock_spec, iterations=3):
        ledger = GrantLedgerSpec(
            capacity=machine.num_processes * iterations, base_offset=lock_spec.window_words
        )
        rt = SimRuntime(machine, window_words=ledger.window_words)

        def window_init(rank):
            values = dict(lock_spec.init_window(rank))
            values.update(ledger.init_window(rank))
            return values

        def program(ctx):
            lock = InstrumentedLock(lock_spec.make(ctx), ledger, ctx)
            ctx.barrier()
            for _ in range(iterations):
                with lock.held():
                    ctx.compute(0.3)
            ctx.barrier()

        rt.run(program, window_init=window_init)
        grants = ledger.read_grants_from_window(rt.window(ledger.home_rank))
        return grants, ledger, rt

    def test_every_grant_recorded(self, small_cluster):
        spec = DMCSLockSpec(num_processes=small_cluster.num_processes)
        grants, ledger, rt = self._run_instrumented(small_cluster, spec, iterations=3)
        assert len(grants) == small_cluster.num_processes * 3
        assert rt.window(0).read(ledger.counter_offset) == len(grants)
        for rank in range(small_cluster.num_processes):
            assert grants.count(rank) == 3

    def test_locality_of_topology_aware_lock_is_at_least_oblivious(self):
        machine = Machine.cluster(nodes=2, procs_per_node=4)
        dmcs_grants, _, _ = self._run_instrumented(
            machine, DMCSLockSpec(num_processes=machine.num_processes), iterations=4
        )
        mcs_grants, _, _ = self._run_instrumented(
            machine, RMAMCSLockSpec(machine, t_l=(1, 8)), iterations=4
        )
        dmcs_locality = locality_report(machine, dmcs_grants).node_locality
        rma_locality = locality_report(machine, mcs_grants).node_locality
        assert rma_locality >= dmcs_locality

    def test_ledger_capacity_truncates_gracefully(self):
        machine = Machine.single_node(4)
        spec = DMCSLockSpec(num_processes=4)
        ledger = GrantLedgerSpec(capacity=5, base_offset=spec.window_words)
        rt = SimRuntime(machine, window_words=ledger.window_words)

        def window_init(rank):
            values = dict(spec.init_window(rank))
            values.update(ledger.init_window(rank))
            return values

        def program(ctx):
            lock = InstrumentedLock(spec.make(ctx), ledger, ctx)
            ctx.barrier()
            for _ in range(4):
                with lock.held():
                    pass
            ctx.barrier()

        rt.run(program, window_init=window_init)
        assert len(ledger.read_grants_from_window(rt.window(0))) == 5
        assert rt.window(0).read(ledger.counter_offset) == 16
