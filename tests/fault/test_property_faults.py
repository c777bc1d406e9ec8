"""Hypothesis property tests for the fault subsystem (ISSUE 7 satellite).

Two contracts, sampled instead of hand-picked:

* **null-plan invariance** — for *any* scheme × deterministic scheduler, a
  run under ``FaultPlan()`` is bit-identical to a run with no plan at all
  (the runtimes promise to skip every fault code path for a null plan; this
  is the property :meth:`FaultPlan.is_null` documents);
* **crash-seed reproducibility** — for *any* crash seed, the fault sweep's
  verdict row is a pure function of the point: re-running it (as a
  ``--jobs N`` worker would, in a fresh call) reproduces the row — verdict,
  oracle counters and fingerprint — bit-for-bit, and the row's plan re-run
  on the reference interpreter gives its fingerprint and abort kind.
"""

from __future__ import annotations

from dataclasses import replace

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.bench.campaign import run_result_sha
from repro.bench.faults import _run_faulted, fault_points, run_fault_point
from repro.bench.harness import run_lock_benchmark_detailed
from repro.bench.workloads import LockBenchConfig
from repro.fault import FAULT_SCENARIOS, FaultPlan
from repro.topology.builder import cached_machine

from tests.reference import REFERENCE, registered

PROCS, PPN = 4, 4

SLOW_SETTINGS = settings(
    max_examples=8,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@SLOW_SETTINGS
@given(
    scheme=st.sampled_from(["lease-lock", "repair-mcs", "rma-mcs", "ticket"]),
    scheduler=st.sampled_from(["horizon", REFERENCE]),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
def test_null_fault_plan_is_invisible(scheme, scheduler, seed):
    config = LockBenchConfig(
        machine=cached_machine(PROCS, PPN, "xc30"),
        scheme=scheme,
        benchmark="wcsb",
        iterations=3,
        fw=0.2,
        seed=seed,
    )
    assert FaultPlan().is_null
    with registered():
        _, bare = run_lock_benchmark_detailed(config, scheduler=scheduler)
        _, nulled = run_lock_benchmark_detailed(
            config, scheduler=scheduler, fault_plan=FaultPlan()
        )
    assert run_result_sha(bare) == run_result_sha(nulled)


@SLOW_SETTINGS
@given(
    crash_seed=st.integers(min_value=1, max_value=64),
    scenario=st.sampled_from(sorted(FAULT_SCENARIOS)),
)
def test_fault_point_rows_are_crash_seed_reproducible(crash_seed, scenario):
    [point] = [
        p
        for p in fault_points(
            seeds=crash_seed, schemes=["lease-lock"], scenarios=[scenario]
        )
        if p.crash_seed == crash_seed
    ]
    first = run_fault_point(point)
    second = run_fault_point(point)
    assert first == second
    assert first["ok"], first
    if first["victim"] is not None:  # the row's plan, on the reference
        plan = FaultPlan.single(
            first["victim"], kill_us=first["kill_us"], restart_us=first["restart_us"],
            horizon_us=first["horizon_us"],
        )
        with registered() as reference:
            on_reference = replace(point, point=replace(point.point, scheduler=reference))
            sha, abort, _ = _run_faulted(on_reference, plan)
        assert (sha, abort) == (first["fingerprint"], first.get("abort"))
