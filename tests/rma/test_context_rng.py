"""``SimProcessContext.rng`` is built on first use and is ``rank_rng``'s stream."""

from __future__ import annotations

import repro.rma.sim_runtime as sim_runtime
from repro.bench.harness import run_lock_benchmark_detailed
from repro.bench.workloads import LockBenchConfig
from repro.fault import FaultPlan
from repro.rma.runtime_base import COMPUTE
from repro.rma.sim_runtime import SimRuntime
from repro.topology.builder import cached_machine
from repro.util.rng import rank_rng

MACHINE = cached_machine(4, 4)
SEED = 13


def _counting_rank_rng(monkeypatch):
    built = []

    def counting(seed, rank):
        built.append((seed, rank))
        return rank_rng(seed, rank)

    monkeypatch.setattr(sim_runtime, "rank_rng", counting)
    return built


def test_a_drawing_program_gets_rank_rngs_stream():
    def program(ctx):
        first = ctx.rng.random(3).tolist()
        yield (COMPUTE, 1.0)
        return first + [ctx.rng.random()]

    result = SimRuntime(MACHINE, window_words=1, seed=SEED).run(program)
    for rank, drawn in enumerate(result.returns):
        assert drawn == rank_rng(SEED, rank).random(4).tolist()


def test_a_restarted_rank_keeps_drawing_from_the_same_stream():
    """The context outlives a kill: the next incarnation continues the
    stream where the killed one left it, as when the generator was built
    with the context."""
    drawn = {rank: [] for rank in range(MACHINE.num_processes)}

    def program(ctx):
        for _ in range(3):
            drawn[ctx.rank].append(ctx.rng.random())
            yield (COMPUTE, 2.0)
        return ctx.incarnation

    plan = FaultPlan.single(1, kill_us=3.0, restart_us=10.0)
    result = SimRuntime(MACHINE, window_words=1, seed=SEED, fault_plan=plan).run(program)
    assert result.returns[1] == 1  # the rank was killed and ran again
    assert len(drawn[1]) > 3
    for rank, values in drawn.items():
        assert values == rank_rng(SEED, rank).random(len(values)).tolist()


def test_a_run_that_never_draws_builds_no_generator(monkeypatch):
    built = _counting_rank_rng(monkeypatch)
    config = LockBenchConfig(machine=MACHINE, scheme="d-mcs", benchmark="traffic-zipf", iterations=4)
    run_lock_benchmark_detailed(config)
    assert built == []
    # A drawing program builds one per rank, once.
    run_lock_benchmark_detailed(LockBenchConfig(machine=MACHINE, scheme="d-mcs", benchmark="wcsb", iterations=2))
    assert sorted(rank for _, rank in built) == list(range(MACHINE.num_processes))
