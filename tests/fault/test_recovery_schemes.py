"""Lease-lock and repair-MCS recovery under seeded crashes, judged live.

These tests stage crashes the same way the sweep engine does — probe the
unfaulted timeline with a TimelineObserver, then kill inside a real hold or
wait window — and hold the recovery schemes to the RecoveryOracleObserver's
safety checks (no double grant inside a live lease, fenced stale releases,
recovery accounting).
"""

from __future__ import annotations

import pytest

from repro.bench.harness import run_lock_benchmark_detailed
from repro.bench.workloads import LockBenchConfig
from repro.fault import FaultPlan, TimelineObserver
from repro.fault.lease_lock import LeaseLockSpec
from repro.fault.repair_mcs import RacyRepairMCSLockHandle, RepairMCSLockHandle
from repro.rma.runtime_base import SimDeadlockError
from repro.topology.builder import cached_machine
from repro.verification.oracles import RecoveryOracleObserver

PROCS, PPN = 4, 4
LEASE_US = 80.0


def _config(scheme="lease-lock", benchmark="wcsb", iterations=5, seed=7):
    return LockBenchConfig(
        machine=cached_machine(PROCS, PPN, "xc30"),
        scheme=scheme,
        benchmark=benchmark,
        iterations=iterations,
        fw=0.2,
        seed=seed,
    )


def _staged_crash(config, kind, *, spec=None, is_rw=None, lease_us=None):
    """Outcome-verified placement: return (plan, oracle) for a kill that
    provably landed in a ``kind`` ("hold"/"wait") window, or skip."""
    probe = TimelineObserver()
    _, raw = run_lock_benchmark_detailed(config, observer=probe, spec=spec, is_rw=is_rw)
    makespan = max(raw.finish_times_us)
    horizon = float(int(6 * makespan) + 500)
    intervals = [
        iv for iv in probe.intervals(kind)
        if any(h.rank != iv.rank and h.start_us > iv.end_us for h in probe.holds)
    ]
    for iv in intervals:
        kills = (
            (float(int(iv.start_us) + 1), float(int(iv.start_us)))
            if kind == "hold"
            else (float(int((iv.start_us + iv.end_us) / 2)),)
        )
        for kill_us in kills:
            if kill_us <= 0:
                continue
            plan = FaultPlan.single(iv.rank, kill_us, horizon_us=horizon)
            oracle = RecoveryOracleObserver(lease_us=lease_us)
            run_lock_benchmark_detailed(
                config, fault_plan=plan, observer=oracle, spec=spec, is_rw=is_rw
            )
            report = oracle.report()
            deaths = report.holder_deaths if kind == "hold" else report.waiter_deaths
            if deaths:
                return plan, report
    pytest.skip(f"could not trap a {kind} in this timeline")


def test_lease_lock_recovers_from_holder_crash():
    spec = LeaseLockSpec(num_processes=PROCS, lease_us=LEASE_US)
    _, report = _staged_crash(
        _config(), "hold", spec=spec, is_rw=False, lease_us=LEASE_US
    )
    assert report.ok, [str(v) for v in report.violations]
    assert report.holder_deaths == 1
    # Some survivor took the lock over after the dead holder's lease ran out:
    # the oracle samples takeover time minus crash time, bounded by the term
    # (plus polling slack) — and never *before* the lease expired (that would
    # be a double-grant violation and report.ok would be False).
    assert report.recovery_us and min(report.recovery_us) >= 0.0
    assert max(report.recovery_us) <= 10 * LEASE_US


def test_lease_lock_survives_waiter_crash():
    spec = LeaseLockSpec(num_processes=PROCS, lease_us=LEASE_US)
    _, report = _staged_crash(
        _config(seed=9), "wait", spec=spec, is_rw=False, lease_us=LEASE_US
    )
    assert report.ok, [str(v) for v in report.violations]
    assert report.waiter_deaths == 1


def test_repair_mcs_splices_dead_waiter_out():
    _, report = _staged_crash(_config(scheme="repair-mcs", seed=11), "wait")
    assert report.ok, [str(v) for v in report.violations]
    assert report.waiter_deaths == 1
    # Survivors kept acquiring after the splice: the run completed under the
    # horizon, and the oracle saw more grants than the pre-crash ones alone.
    assert report.acquires > 0


def test_recovery_report_summary_carries_fault_counters():
    spec = LeaseLockSpec(num_processes=PROCS, lease_us=LEASE_US)
    _, report = _staged_crash(
        _config(), "hold", spec=spec, is_rw=False, lease_us=LEASE_US
    )
    summary = report.summary()
    for key in (
        "crashes",
        "restarts",
        "holder_deaths",
        "waiter_deaths",
        "fenced_releases",
        "expired_takeovers",
        "recovery_us",
    ):
        assert key in summary
    assert summary["crashes"] == 1
    assert summary["holder_deaths"] == 1


#: ecsb at P=4 with rank 1 killed at 9 us: rank 0's release finds dead rank 1
#: at the queue tail, and its closing CAS loses to a racer that has already
#: swapped itself in behind the dead node.
LOST_CAS_PLAN = FaultPlan.single(1, kill_us=9)
LOST_CAS_FINISH_US = [23.025000000000016, 9.0, 23.025000000000016, 23.025000000000016]


def _spy_settle_race(monkeypatch, handle_cls):
    """Record every ``(releaser, dead)`` pair that enters ``_settle_race``."""
    entered = []
    settle = handle_cls._settle_race

    def spy(self, dead):
        entered.append((self.ctx.rank, dead))
        return (yield from settle(self, dead))

    monkeypatch.setattr(handle_cls, "_settle_race", spy)
    return entered


@pytest.mark.parametrize("scheduler", ["horizon", "reference"])
def test_repair_mcs_settles_a_lost_closing_cas(scheduler, monkeypatch, reference):
    entered = _spy_settle_race(monkeypatch, RepairMCSLockHandle)
    oracle = RecoveryOracleObserver()
    _, raw = run_lock_benchmark_detailed(
        _config(scheme="repair-mcs", benchmark="ecsb", iterations=6, seed=1),
        fault_plan=LOST_CAS_PLAN, observer=oracle, scheduler=scheduler,
    )
    assert entered == [(0, 1)]
    assert raw.finish_times_us == LOST_CAS_FINISH_US
    report = oracle.report()
    assert report.ok, [str(v) for v in report.violations]


@pytest.mark.parametrize("scheduler", ["horizon", "reference"])
def test_racy_repair_orphans_the_racer_on_a_lost_closing_cas(scheduler, monkeypatch, reference):
    entered = _spy_settle_race(monkeypatch, RacyRepairMCSLockHandle)
    with pytest.raises(SimDeadlockError):
        run_lock_benchmark_detailed(
            _config(scheme="repair-mcs-racy", benchmark="ecsb", iterations=6, seed=1),
            fault_plan=LOST_CAS_PLAN, scheduler=scheduler,
        )
    assert entered == [(0, 1)]
