"""Microbenchmarks of the RMA substrate itself (not paper figures).

These measure the Python-level cost of the simulator's primitives — window
atomics, a full simulated put/flush round, lock handle creation — so that
regressions in the substrate are caught independently of the figure-level
benchmarks.  pytest-benchmark's usual calibration is used here (these are
genuine micro-operations).
"""

from __future__ import annotations

import pytest

from repro.core.rma_rw import RMARWLockSpec
from repro.rma.ops import AtomicOp
from repro.rma.sim_runtime import SimRuntime
from repro.rma.window import Window
from repro.topology.machine import Machine

pytestmark = pytest.mark.benchmark(group="substrate")


def test_window_fao_throughput(benchmark):
    window = Window(8)
    benchmark(lambda: window.fetch_and_op(0, 1, AtomicOp.SUM))
    assert window.read(0) > 0


def test_window_cas_throughput(benchmark):
    window = Window(8)
    benchmark(lambda: window.compare_and_swap(0, compare=0, value=0))


def test_machine_common_level_lookup(benchmark):
    machine = Machine(fanouts=(4, 4), procs_per_leaf=16)
    benchmark(lambda: machine.common_level(3, 250))


def test_rma_rw_spec_construction(benchmark):
    machine = Machine.cluster(nodes=8, procs_per_node=8)
    benchmark(lambda: RMARWLockSpec(machine, t_l=(4, 4), t_r=64))


def test_simruntime_put_get_round(benchmark):
    """Cost of a tiny simulated exchange (2 ranks, a handful of RMA calls)."""
    machine = Machine.cluster(nodes=1, procs_per_node=2)

    def run_once():
        rt = SimRuntime(machine, window_words=4)

        def program(ctx):
            ctx.put(1, (ctx.rank + 1) % 2, 0)
            ctx.flush((ctx.rank + 1) % 2)
            ctx.barrier()
            value = ctx.get(ctx.rank, 0)
            ctx.flush(ctx.rank)
            return value

        return rt.run(program)

    result = benchmark(run_once)
    assert result.returns == [1, 1]
