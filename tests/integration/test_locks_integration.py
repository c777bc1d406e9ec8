"""Cross-module integration tests: every lock on every machine shape and runtime."""

from __future__ import annotations

import pytest

from repro.api import get_scheme, scheme_names
from repro.core.baselines import FompiRWLockSpec, FompiSpinLockSpec
from repro.core.dmcs import DMCSLockSpec
from repro.core.rma_mcs import RMAMCSLockSpec
from repro.core.rma_rw import RMARWLockSpec
from repro.rma.sim_runtime import SimRuntime
from repro.topology.builder import figure2_machine
from repro.topology.machine import Machine
from tests.support import check_on_every_path, run_mutex_check, run_rw_check

MACHINES = {
    "single-node": Machine.single_node(6),
    "two-nodes": Machine.cluster(nodes=2, procs_per_node=4),
    "four-nodes": Machine.cluster(nodes=4, procs_per_node=3),
    "figure-2": figure2_machine(procs_per_node=3),
}


def exclusive_specs(machine: Machine):
    t_l = tuple(2 for _ in range(machine.n_levels))
    return {
        "fompi-spin": FompiSpinLockSpec(num_processes=machine.num_processes),
        "d-mcs": DMCSLockSpec(num_processes=machine.num_processes),
        "rma-mcs": RMAMCSLockSpec(machine, t_l=t_l),
        "rma-rw-writer-only": RMARWLockSpec(machine, t_l=t_l, t_r=8),
    }


def rw_specs(machine: Machine):
    t_l = tuple(2 for _ in range(machine.n_levels))
    return {
        "fompi-rw": FompiRWLockSpec(num_processes=machine.num_processes),
        "rma-rw": RMARWLockSpec(machine, t_l=t_l, t_r=8),
    }


class TestMutualExclusionMatrix:
    @pytest.mark.parametrize("machine_name", sorted(MACHINES))
    @pytest.mark.parametrize("lock_name", ["fompi-spin", "d-mcs", "rma-mcs", "rma-rw-writer-only"])
    def test_exclusive_locks_on_all_machines(self, machine_name, lock_name):
        machine = MACHINES[machine_name]
        spec = exclusive_specs(machine)[lock_name]
        outcome = run_mutex_check(spec, machine, iterations=4, seed=1)
        assert outcome.ok, f"{lock_name} on {machine_name}: {outcome}"


class TestReaderWriterMatrix:
    @pytest.mark.parametrize("machine_name", sorted(MACHINES))
    @pytest.mark.parametrize("lock_name", ["fompi-rw", "rma-rw"])
    def test_rw_locks_on_all_machines(self, machine_name, lock_name):
        machine = MACHINES[machine_name]
        spec = rw_specs(machine)[lock_name]
        outcome = run_rw_check(spec, machine, iterations=4, fw=0.3, seed=2)
        assert outcome.ok, f"{lock_name} on {machine_name}: {outcome}"

    @pytest.mark.parametrize("lock_name", ["fompi-rw", "rma-rw"])
    def test_rw_locks_on_the_reference(self, lock_name):
        machine = Machine.cluster(nodes=2, procs_per_node=2)
        spec = rw_specs(machine)[lock_name]
        check_on_every_path(run_rw_check, spec, machine, iterations=6, writer_ranks=[0])


def registered_spec(name: str, machine: Machine):
    """The spec of registered scheme ``name``, as the model checker builds it."""
    info = get_scheme(name)
    return info.build(machine) if info.harness else info.conformance_adapter(machine)


class TestRegistryMatrix:
    """Every registered scheme on every machine, on every path: bridged and
    inline on horizon and on the reference, with one result for all three."""

    @pytest.mark.parametrize("machine_name", sorted(MACHINES))
    @pytest.mark.parametrize("name", scheme_names())
    def test_mutual_exclusion_on_every_path(self, machine_name, name):
        machine = MACHINES[machine_name]
        check_on_every_path(run_mutex_check, registered_spec(name, machine), machine, iterations=3)

    @pytest.mark.parametrize("machine_name", sorted(MACHINES))
    @pytest.mark.parametrize("name", [name for name in scheme_names() if get_scheme(name).rw])
    def test_reader_writer_exclusion_on_every_path(self, machine_name, name):
        machine = MACHINES[machine_name]
        spec = registered_spec(name, machine)
        outcome = check_on_every_path(run_rw_check, spec, machine, iterations=4, fw=0.3, seed=3)
        assert outcome.reads and outcome.writes


class TestSharedWindowComposition:
    def test_two_locks_in_one_window(self):
        """Two independent locks with disjoint layouts protect two counters."""
        machine = Machine.cluster(nodes=2, procs_per_node=3)
        lock_a = DMCSLockSpec(num_processes=machine.num_processes, base_offset=0)
        lock_b = FompiSpinLockSpec(num_processes=machine.num_processes, base_offset=lock_a.window_words)
        counter_a = lock_b.window_words
        counter_b = lock_b.window_words + 1
        rt = SimRuntime(machine, window_words=lock_b.window_words + 2)

        def window_init(rank):
            values = dict(lock_a.init_window(rank))
            values.update(lock_b.init_window(rank))
            return values

        def program(ctx):
            a = lock_a.make(ctx)
            b = lock_b.make(ctx)
            ctx.barrier()
            for _ in range(3):
                with a.held():
                    value = ctx.get(0, counter_a)
                    ctx.flush(0)
                    ctx.put(value + 1, 0, counter_a)
                    ctx.flush(0)
                with b.held():
                    value = ctx.get(0, counter_b)
                    ctx.flush(0)
                    ctx.put(value + 1, 0, counter_b)
                    ctx.flush(0)
            ctx.barrier()

        rt.run(program, window_init=window_init)
        expected = machine.num_processes * 3
        assert rt.window(0).read(counter_a) == expected
        assert rt.window(0).read(counter_b) == expected

    def test_rma_rw_protecting_dht_inserts(self):
        """The RMA-RW lock serializes writers of a shared DHT volume correctly."""
        from repro.dht.hashtable import DHTSpec

        machine = Machine.cluster(nodes=2, procs_per_node=3)
        lock = RMARWLockSpec(machine, t_l=(2, 2), t_r=8)
        dht = DHTSpec(num_processes=machine.num_processes, table_size=4, heap_size=64,
                      base_offset=lock.window_words)
        rt = SimRuntime(machine, window_words=dht.window_words)

        def window_init(rank):
            values = dict(lock.init_window(rank))
            values.update(dht.init_window(rank))
            return values

        def program(ctx):
            rw = lock.make(ctx)
            table = dht.make(ctx)
            ctx.barrier()
            for i in range(3):
                key = ctx.rank * 10 + i
                with rw.writing():
                    table.insert(key, key, target_rank=0)
            ctx.barrier()
            missing = 0
            with rw.reading():
                for r in range(ctx.nranks):
                    for i in range(3):
                        if table.lookup(r * 10 + i, target_rank=0) is None:
                            missing += 1
            return missing

        result = rt.run(program, window_init=window_init)
        assert all(m == 0 for m in result.returns)


class TestScaleSmoke:
    def test_larger_machine_with_rw_mix(self):
        """64 simulated ranks with a mixed workload complete without deadlock."""
        machine = Machine.cluster(nodes=8, procs_per_node=8)
        spec = RMARWLockSpec(machine, t_l=(4, 4), t_r=16)
        outcome = run_rw_check(spec, machine, iterations=3, fw=0.1, seed=7)
        assert outcome.ok
