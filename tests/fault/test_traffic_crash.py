"""The traffic-crash benchmark: availability accounting under mid-run crashes."""

from __future__ import annotations

import pytest

from repro.bench.campaign import run_result_sha
from repro.bench.harness import run_lock_benchmark_detailed
from repro.bench.workloads import LockBenchConfig
from repro.fault import FaultPlan
from repro.fault.traffic import crash_traffic_summary
from repro.topology.builder import cached_machine
from repro.verification.oracles import RecoveryOracleObserver

PROCS, PPN = 4, 4


def _config(iterations=6, seed=3):
    return LockBenchConfig(
        machine=cached_machine(PROCS, PPN, "xc30"),
        scheme="lease-lock",
        benchmark="traffic-crash",
        iterations=iterations,
        fw=0.2,
        seed=seed,
    )


def test_unfaulted_traffic_serves_everything():
    config = _config()
    _, raw = run_lock_benchmark_detailed(config)
    summary = crash_traffic_summary(config, raw.returns)
    assert summary["submitted"] == config.iterations * PROCS
    assert summary["completed"] == summary["submitted"]
    assert summary["availability"] == 1.0
    assert summary["crashed_ranks"] == 0


def test_crash_costs_availability_but_not_safety():
    config = _config()
    _, probe = run_lock_benchmark_detailed(config)
    horizon = float(int(6 * max(probe.finish_times_us)) + 500)
    plan = FaultPlan.single(1, kill_us=5.0, horizon_us=horizon)
    oracle = RecoveryOracleObserver(lease_us=500.0)
    _, raw = run_lock_benchmark_detailed(config, fault_plan=plan, observer=oracle)
    report = oracle.report()
    assert report.ok, [str(v) for v in report.violations]
    summary = crash_traffic_summary(config, raw.returns, report)
    assert summary["crashed_ranks"] == 1
    assert summary["crashes"] == 1
    # The dead rank's unserved requests count as submitted-but-lost.
    assert 0.0 < summary["availability"] < 1.0
    assert summary["completed"] < summary["submitted"]
    if report.recovery_us:
        assert summary["recovery_p50_us"] <= summary["recovery_max_us"]


def test_recovery_percentiles_are_nearest_rank():
    # ceil(q * n) - 1 in the sorted samples, as the traffic accounting has it:
    # no round-half-to-even (which put the p50 of five samples at the second).
    config = _config()
    _, raw = run_lock_benchmark_detailed(config)
    for recovery, p50, p95 in (([50, 10, 40, 20, 30], 30, 50), (list(range(1, 10)), 5, 9)):
        report = RecoveryOracleObserver(lease_us=500.0).report()
        report.recovery_us = recovery
        summary = crash_traffic_summary(config, raw.returns, report)
        assert (summary["recovery_p50_us"], summary["recovery_p95_us"]) == (p50, p95)


@pytest.mark.parametrize("scheduler", ["horizon", "reference"])
def test_faulted_traffic_is_scheduler_invariant(scheduler, reference):
    config = _config(seed=4)
    plan = FaultPlan.single(2, kill_us=7.0, horizon_us=1_000_000.0)
    _, raw = run_lock_benchmark_detailed(config, fault_plan=plan, scheduler=scheduler)
    _, again = run_lock_benchmark_detailed(config, fault_plan=plan, scheduler="horizon")
    assert run_result_sha(raw) == run_result_sha(again)
