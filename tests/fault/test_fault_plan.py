"""FaultPlan / RankFault validation and the seeded fault RNG lane."""

from __future__ import annotations

import pytest

from repro.fault import (
    FAULT_SCENARIOS,
    FaultPlan,
    RankFault,
    declare_recovery,
    fault_rng,
    recovery_info,
)


def test_rank_fault_rejects_bad_times():
    with pytest.raises(ValueError):
        RankFault(rank=-1, kill_us=5.0)
    with pytest.raises(ValueError):
        RankFault(rank=0, kill_us=-1.0)
    # Kill times must be integral: equality against rank clocks is exact.
    with pytest.raises(ValueError):
        RankFault(rank=0, kill_us=3.5)
    with pytest.raises(ValueError):
        RankFault(rank=0, kill_us=10.0, restart_us=10.0)  # restart must follow kill
    with pytest.raises(ValueError):
        RankFault(rank=0, kill_us=10.0, restart_us=20.5)  # and be integral


def test_plan_rejects_duplicate_ranks_and_bad_horizon():
    with pytest.raises(ValueError):
        FaultPlan(faults=(RankFault(0, 5.0), RankFault(0, 9.0)))
    with pytest.raises(ValueError):
        FaultPlan(horizon_us=0.0)
    with pytest.raises(ValueError):
        FaultPlan.single(2, 5.0).validate_for(nranks=2)


def test_null_plan():
    assert FaultPlan().is_null
    plan = FaultPlan.single(1, 10.0, restart_us=40.0, horizon_us=500.0)
    assert not plan.is_null
    assert plan.fault_for(1).kill_us == 10.0
    assert plan.fault_for(1).restart_us == 40.0


def test_dead_at_models_a_perfect_failure_detector():
    plan = FaultPlan.single(1, 10.0, restart_us=40.0)
    assert not plan.dead_at(1, 9.0)
    assert plan.dead_at(1, 10.0)
    assert plan.dead_at(1, 39.0)
    assert not plan.dead_at(1, 40.0)  # restarted
    assert not plan.dead_at(0, 10_000.0)  # other ranks never die
    forever = FaultPlan.single(0, 7.0)
    assert forever.dead_at(0, 7.0) and forever.dead_at(0, 1e9)


def test_fault_rng_is_seed_and_stream_deterministic():
    a = fault_rng(3, stream=5).integers(0, 2**31, size=8)
    b = fault_rng(3, stream=5).integers(0, 2**31, size=8)
    c = fault_rng(3, stream=6).integers(0, 2**31, size=8)
    d = fault_rng(4, stream=5).integers(0, 2**31, size=8)
    assert (a == b).all()
    assert not (a == c).all()
    assert not (a == d).all()


def test_recovery_registry_round_trip():
    declare_recovery("test-fault-plan-scheme", ("holder-crash",), lease_us=42.0)
    info = recovery_info("test-fault-plan-scheme")
    assert info.scenarios == frozenset({"holder-crash"})
    assert info.lease_us == 42.0
    # Undeclared schemes recover from nothing (never a false pass).
    assert recovery_info("no-such-scheme").scenarios == frozenset()
    with pytest.raises(ValueError):
        declare_recovery("x", ("meteor-strike",))
    assert set(FAULT_SCENARIOS) == {"holder-crash", "waiter-crash", "restart"}
