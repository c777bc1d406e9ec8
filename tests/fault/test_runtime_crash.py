"""Crash injection is bit-reproducible and identical across schedulers.

The kill lands at the first public context call the victim issues with its
virtual clock at or past ``kill_us`` — part of the deterministic scheduling
contract, so ``horizon`` and the reference interpreter
(``tests/reference.py``) must produce byte-identical faulted runs.
"""

from __future__ import annotations

import pytest

from repro.bench.campaign import run_result_sha
from repro.bench.harness import run_lock_benchmark_detailed
from repro.bench.workloads import LockBenchConfig
from repro.fault import FaultHorizonError, FaultPlan
from repro.rma.runtime_base import FLUSH, PUT, SPIN, SPIN_WHILE, SimDeadlockError
from repro.rma.sim_runtime import SimRuntime
from repro.topology.builder import cached_machine

from tests.reference import REFERENCE, ReferenceRuntime

PROCS, PPN = 4, 4

FAULT_SCHEDULERS = ("horizon", REFERENCE)


def _config(scheme="lease-lock", iterations=4, seed=5):
    return LockBenchConfig(
        machine=cached_machine(PROCS, PPN, "xc30"),
        scheme=scheme,
        benchmark="wcsb",
        iterations=iterations,
        fw=0.2,
        seed=seed,
    )


def _run(config, plan, scheduler):
    bench, raw = run_lock_benchmark_detailed(
        config, fault_plan=plan, scheduler=scheduler
    )
    return bench, raw


def test_crash_marks_victim_and_spares_survivors():
    plan = FaultPlan.single(2, kill_us=3.0)
    _, raw = _run(_config(), plan, "horizon")
    marker = raw.returns[2]
    assert isinstance(marker, dict) and marker.get("__crashed__")
    for rank in (0, 1, 3):
        assert not (
            isinstance(raw.returns[rank], dict)
            and raw.returns[rank].get("__crashed__")
        )


@pytest.mark.parametrize("scheduler", FAULT_SCHEDULERS)
def test_faulted_run_is_rerun_reproducible(scheduler, reference):
    plan = FaultPlan.single(1, kill_us=5.0)
    _, first = _run(_config(), plan, scheduler)
    _, second = _run(_config(), plan, scheduler)
    assert run_result_sha(first) == run_result_sha(second)


@pytest.mark.parametrize("scheme", ["lease-lock", "repair-mcs"])
def test_faulted_fingerprint_identical_across_schedulers(scheme, reference):
    plan = FaultPlan.single(1, kill_us=5.0)
    shas = {
        scheduler: run_result_sha(_run(_config(scheme), plan, scheduler)[1])
        for scheduler in FAULT_SCHEDULERS
    }
    assert len(set(shas.values())) == 1, shas


@pytest.mark.parametrize("scheduler", FAULT_SCHEDULERS)
def test_lease_free_holder_crash_deadlocks_on_every_scheduler(scheduler, reference):
    # A plain MCS queue has no way to tell a dead holder from a slow one:
    # killing the holder parks every survivor forever, and each deterministic
    # core reports the same clean deadlock instead of hanging.
    plan = FaultPlan.single(0, kill_us=3.0)
    with pytest.raises(SimDeadlockError):
        _run(_config(scheme="rma-mcs"), plan, scheduler)


def test_restart_revives_the_rank(reference):
    config = _config()
    plan = FaultPlan.single(1, kill_us=3.0)
    _, dead_raw = _run(config, plan, "horizon")
    revive = FaultPlan.single(1, kill_us=3.0, restart_us=4000.0)
    _, raw = _run(config, revive, "horizon")
    # The restarted rank finished its (re-run) program: no crash marker, and
    # it did strictly more ops than its dead self.
    assert not (isinstance(raw.returns[1], dict) and raw.returns[1].get("__crashed__"))
    dead_ops = sum(dead_raw.per_rank_op_counts[1].values())
    assert sum(raw.per_rank_op_counts[1].values()) > dead_ops
    assert run_result_sha(raw) == run_result_sha(_run(config, revive, reference)[1])


def test_horizon_ceiling_raises_instead_of_hanging():
    # The plan's virtual-time ceiling turns a too-long run into a clean,
    # deterministic error (here: a plain unfaulted run that cannot finish in
    # 10 virtual microseconds).
    plan = FaultPlan(horizon_us=10.0)
    assert not plan.is_null
    with pytest.raises(FaultHorizonError):
        _run(_config(), plan, "horizon")


def _reap_rank_1_parked_in(poll, request):
    # Rank 1 parks in ``poll(ctx)`` / ``request`` and is killed there (no
    # rank is runnable, so the scheduler delivers the kill); rank 2 parks
    # on cell (2, 3) too.  The restarted rank 1 then writes that cell: only
    # rank 2 may still be registered on it, and it wakes.  The blocking
    # program (bridged on horizon) equals its step twin, inline and on the
    # reference.
    def program(ctx):
        if ctx.rank == 1:
            if ctx.incarnation == 0:
                poll(ctx)
            ctx.put(1, 2, 3)
            ctx.flush(2)
        elif ctx.rank == 2:
            ctx.spin_while(2, 3, lambda v: v == 0)
        return ctx.now()

    def steps(ctx):
        if ctx.rank == 1:
            if ctx.incarnation == 0:
                yield request
            yield (PUT, 1, 2, 3)
            yield (FLUSH, 2)
        elif ctx.rank == 2:
            yield (SPIN_WHILE, 2, 3, lambda v: v == 0)
        return ctx.now()

    plan = FaultPlan.single(1, kill_us=50.0, restart_us=80.0)
    results = {}
    for name, runtime_cls, prog in (
        ("bridged", SimRuntime, program), ("steps", SimRuntime, steps), (REFERENCE, ReferenceRuntime, steps),
    ):
        runtime = runtime_cls(cached_machine(PROCS, PPN, "xc30"), window_words=8, fault_plan=plan)
        result = runtime.run(prog)
        results[name] = run_result_sha(result), result.returns[1:3]
        if runtime_cls is SimRuntime:
            assert not any(runtime._watchers.values()), runtime._watchers
            assert not any(s.watching for s in runtime._states)
    assert min(results["bridged"][1]) > 80.0
    assert results["bridged"] == results["steps"] == results[REFERENCE]


def test_reaping_a_rank_parked_on_two_cells_leaves_no_waiter_behind():
    # Two cells of two targets, one of them rank 2's: the multi-cell poll round.
    _reap_rank_1_parked_in(
        lambda ctx: ctx.spin_on_cells([(2, 3), (1, 0)], lambda vs: vs[0] == 0),
        (SPIN, [(2, 3), (1, 0)], lambda vs: vs[0] == 0),
    )


def test_reaping_a_rank_parked_in_a_one_cell_poll_leaves_no_waiter_behind():
    # SPIN_WHILE on rank 2's cell: the one-cell poll round, which parks on that cell alone.
    _reap_rank_1_parked_in(
        lambda ctx: ctx.spin_while(2, 3, lambda v: v == 0),
        (SPIN_WHILE, 2, 3, lambda v: v == 0),
    )
