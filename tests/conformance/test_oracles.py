"""Unit and end-to-end tests for the live safety/fairness oracles."""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Mapping

import pytest

from repro.api.registry import get_scheme, scheme_names
from repro.bench.harness import run_lock_benchmark_detailed
from repro.bench.workloads import LockBenchConfig
from repro.core.lock_base import LockHandle, LockSpec, RWLockSpec, RWLockHandle
from repro.rma.ops import RMACall
from repro.rma.runtime_base import RunObserver
from repro.rma.sim_runtime import SimRuntime
from repro.topology.machine import Machine
from repro.verification.oracles import (
    MODE_READ,
    MODE_WRITE,
    LockOracleObserver,
    ObservedLock,
    ObservedRWLock,
    observe_lock,
)


class TestObserverScripted:
    """Drive the oracle with hand-scripted event sequences."""

    def test_clean_exclusive_sequence_passes(self):
        obs = LockOracleObserver()
        obs.on_run_start(2)
        for rank in (0, 1):
            obs.wait_start(rank, MODE_WRITE, 0.0)
            obs.acquired(rank, MODE_WRITE, 1.0)
            obs.released(rank, MODE_WRITE, 2.0)
        obs.on_run_end()
        report = obs.report()
        assert report.ok
        assert report.acquires == 2
        assert report.releases == 2

    def test_two_writers_inside_is_flagged(self):
        obs = LockOracleObserver()
        obs.on_run_start(2)
        obs.wait_start(0, MODE_WRITE, 0.0)
        obs.acquired(0, MODE_WRITE, 1.0)
        obs.wait_start(1, MODE_WRITE, 0.5)
        obs.acquired(1, MODE_WRITE, 1.5)
        report = obs.report()
        assert not report.ok
        assert any(v.oracle == "mutual-exclusion" for v in report.violations)

    def test_reader_during_writer_is_flagged(self):
        obs = LockOracleObserver()
        obs.on_run_start(2)
        obs.wait_start(0, MODE_WRITE, 0.0)
        obs.acquired(0, MODE_WRITE, 1.0)
        obs.wait_start(1, MODE_READ, 0.5)
        obs.acquired(1, MODE_READ, 1.5)
        report = obs.report()
        assert any(v.oracle == "mutual-exclusion" for v in report.violations)

    def test_readers_coexist_without_violation(self):
        obs = LockOracleObserver()
        obs.on_run_start(3)
        for rank in (0, 1, 2):
            obs.wait_start(rank, MODE_READ, 0.0)
            obs.acquired(rank, MODE_READ, 1.0)
        for rank in (0, 1, 2):
            obs.released(rank, MODE_READ, 2.0)
        obs.on_run_end()
        report = obs.report()
        assert report.ok
        assert report.max_concurrent_readers == 3

    def test_release_without_acquire_is_flagged(self):
        obs = LockOracleObserver()
        obs.on_run_start(1)
        obs.released(0, MODE_WRITE, 0.0)
        assert any(v.oracle == "handoff" for v in obs.report().violations)

    def test_mode_mismatch_is_flagged(self):
        obs = LockOracleObserver()
        obs.on_run_start(1)
        obs.wait_start(0, MODE_READ, 0.0)
        obs.acquired(0, MODE_READ, 1.0)
        obs.released(0, MODE_WRITE, 2.0)
        assert any("released as" in v.detail for v in obs.report().violations)

    def test_reentrant_acquire_is_flagged(self):
        obs = LockOracleObserver()
        obs.on_run_start(1)
        obs.wait_start(0, MODE_WRITE, 0.0)
        obs.acquired(0, MODE_WRITE, 1.0)
        obs.wait_start(0, MODE_WRITE, 2.0)
        assert any("re-entrant" in v.detail for v in obs.report().violations)

    def test_unreleased_holder_at_run_end_is_flagged(self):
        obs = LockOracleObserver()
        obs.on_run_start(1)
        obs.wait_start(0, MODE_WRITE, 0.0)
        obs.acquired(0, MODE_WRITE, 1.0)
        obs.on_run_end()
        assert any("still holds" in v.detail for v in obs.report().violations)

    def test_violation_flood_is_capped(self):
        obs = LockOracleObserver(max_violations=3)
        obs.on_run_start(1)
        for _ in range(10):
            obs.released(0, MODE_WRITE, 0.0)
        assert len(obs.report().violations) == 3


class TestBypassCounting:
    def test_bypass_counts_from_ordering_rmw(self):
        """Foreign entries before the waiter's first RMW do not count."""
        obs = LockOracleObserver(bypass_bound=1)
        obs.on_run_start(3)
        obs.wait_start(0, MODE_WRITE, 0.0)
        # Two foreign entries while rank 0 has not yet reached its FAO: a
        # FIFO scheme owes it nothing yet (it has no queue position).
        for _ in range(2):
            obs.wait_start(1, MODE_WRITE, 0.0)
            obs.on_rmw(1, RMACall.FAO)
            obs.acquired(1, MODE_WRITE, 1.0)
            obs.released(1, MODE_WRITE, 2.0)
        obs.on_rmw(0, RMACall.FAO)  # rank 0 is ordered from here on
        obs.wait_start(2, MODE_WRITE, 0.0)
        obs.on_rmw(2, RMACall.FAO)
        obs.acquired(2, MODE_WRITE, 3.0)
        obs.released(2, MODE_WRITE, 4.0)
        obs.acquired(0, MODE_WRITE, 5.0)
        report = obs.report()
        assert report.max_bypass == 1
        assert report.ok, [str(v) for v in report.violations]

    def test_bound_violation_is_flagged(self):
        obs = LockOracleObserver(bypass_bound=0)
        obs.on_run_start(2)
        obs.wait_start(0, MODE_WRITE, 0.0)
        obs.on_rmw(0, RMACall.FAO)
        obs.wait_start(1, MODE_WRITE, 0.0)
        obs.on_rmw(1, RMACall.FAO)
        obs.acquired(1, MODE_WRITE, 1.0)
        obs.released(1, MODE_WRITE, 2.0)
        obs.acquired(0, MODE_WRITE, 3.0)
        report = obs.report()
        assert not report.ok
        assert any(v.oracle == "fairness" for v in report.violations)

    def test_without_rmw_falls_back_to_wait_start(self):
        obs = LockOracleObserver(bypass_bound=None)
        obs.on_run_start(2)
        obs.wait_start(0, MODE_WRITE, 0.0)
        obs.wait_start(1, MODE_WRITE, 0.0)
        obs.acquired(1, MODE_WRITE, 1.0)
        obs.released(1, MODE_WRITE, 2.0)
        obs.acquired(0, MODE_WRITE, 3.0)
        assert obs.report().max_bypass == 1


# --------------------------------------------------------------------------- #
# End-to-end: a deliberately broken lock must fail the oracles.
# --------------------------------------------------------------------------- #

@dataclass(frozen=True)
class _BrokenTestThenSetSpec(LockSpec):
    """Non-atomic test-then-set: Get then Put with a window in between."""

    num_processes: int

    @property
    def window_words(self) -> int:
        return 1

    def init_window(self, rank: int) -> Mapping[int, int]:
        return {0: 0}

    def make(self, ctx):
        return _BrokenTestThenSetHandle(ctx)


class _BrokenTestThenSetHandle(LockHandle):
    def __init__(self, ctx):
        self.ctx = ctx

    def acquire(self) -> None:
        ctx = self.ctx
        while True:
            value = ctx.get(0, 0)
            ctx.flush(0)
            if value == 0:
                # The race: another rank can pass the same test before our
                # put lands (a non-atomic test-then-set).  The compute
                # widens the test-to-set window so the simulator's causal
                # schedule actually interleaves a competitor into it.
                ctx.compute(2.0)
                ctx.put(1, 0, 0)
                ctx.flush(0)
                return
            ctx.spin_while(0, 0, lambda v: v != 0)

    def release(self) -> None:
        self.ctx.put(0, 0, 0)
        self.ctx.flush(0)


#: Every harness scheme this package registers.
BUILTIN_HARNESS_SCHEMES = [
    name for name in scheme_names(harness=True)
    if get_scheme(name).builder.__module__.startswith("repro.")
]


class _EveryHook(RunObserver):
    """Overrides every :class:`RunObserver` hook and counts its calls."""

    def __init__(self):
        self.calls = Counter()


for _hook in [name for name in vars(RunObserver) if not name.startswith("_")]:
    setattr(_EveryHook, _hook, lambda self, *args, _hook=_hook: self.calls.update((_hook,)))


class TestBrokenLockEndToEnd:
    def test_oracle_catches_mutual_exclusion_violation(self):
        # wcsb, not ecsb: an empty critical section has zero width in the
        # execution order, so overlapping holders are only observable when
        # the CS body itself issues operations (wcsb: counter + compute).
        machine = Machine.cluster(nodes=2, procs_per_node=2)
        config = LockBenchConfig(
            machine=machine, scheme="d-mcs", benchmark="wcsb", iterations=6, seed=2
        )
        observer = LockOracleObserver()
        # Substitute the broken spec for the registered scheme's.
        run_lock_benchmark_detailed(
            config,
            spec=_BrokenTestThenSetSpec(num_processes=4),
            is_rw=False,
            observer=observer,
        )
        report = observer.report()
        assert not report.ok
        assert any(v.oracle == "mutual-exclusion" for v in report.violations)

    @pytest.mark.parametrize(
        "scheme, workload",
        [(scheme, "wcsb") for scheme in BUILTIN_HARNESS_SCHEMES] + [("d-mcs", "traffic-zipf")],
    )
    def test_observer_does_not_change_the_fingerprint(self, scheme, workload):
        """Observed and unobserved runs are bit-identical: an observer that
        takes every hook, the per-request ones included, watches only."""
        from repro.bench.campaign import run_result_sha

        machine = Machine.cluster(nodes=2, procs_per_node=4)
        config = LockBenchConfig(
            machine=machine, scheme=scheme, benchmark=workload, iterations=5, fw=0.2, seed=7
        )
        _, bare = run_lock_benchmark_detailed(config)
        observer = _EveryHook()
        _, observed = run_lock_benchmark_detailed(config, observer=observer)
        assert run_result_sha(bare) == run_result_sha(observed)
        ops = observed.op_counts
        assert observer.calls["on_request"] == observed.total_ops()
        assert observer.calls["on_rmw"] == ops.get("fao", 0) + ops.get("cas", 0)
        assert observer.calls["acquired"] == observer.calls["released"] > 0


class TestObservedWrappers:
    def test_observe_lock_picks_rw_wrapper(self):
        machine = Machine.single_node(2)
        from repro.api.registry import get_scheme

        rw_spec = get_scheme("fompi-rw").build(machine)
        plain_spec = get_scheme("d-mcs").build(machine)
        seen = {}

        def program(ctx):
            obs = LockOracleObserver()
            seen[("rw", ctx.rank)] = type(observe_lock(rw_spec.make(ctx), ctx, obs))
            seen[("plain", ctx.rank)] = type(observe_lock(plain_spec.make(ctx), ctx, obs))

        SimRuntime(
            machine, window_words=max(rw_spec.window_words, plain_spec.window_words)
        ).run(program, window_init=rw_spec.init_window)
        assert seen[("rw", 0)] is ObservedRWLock
        assert seen[("plain", 0)] is ObservedLock

    def test_forced_reader_overlap_is_recorded(self):
        """Readers holding the CS together register as coexistence."""
        machine = Machine.single_node(4)
        from repro.api.registry import get_scheme

        spec: RWLockSpec = get_scheme("fompi-rw").build(machine)
        observer = LockOracleObserver()
        flag = spec.window_words

        def program(ctx):
            lock: RWLockHandle = observe_lock(spec.make(ctx), ctx, observer)
            ctx.barrier()
            if ctx.rank == 0:
                # Writer enters only after all three readers are done.
                ctx.spin_while(0, flag, lambda v: v < 3)
                with lock.writing():
                    ctx.compute(1.0)
                return
            with lock.reading():
                # Stay inside until every reader has entered at least once.
                from repro.rma.ops import AtomicOp

                ctx.fao(1, 0, flag + 1, AtomicOp.SUM)
                ctx.flush(0)
                ctx.spin_while(0, flag + 1, lambda v: v < 3)
            from repro.rma.ops import AtomicOp

            ctx.accumulate(1, 0, flag, AtomicOp.SUM)
            ctx.flush(0)

        runtime = SimRuntime(machine, window_words=spec.window_words + 2, observer=observer)
        runtime.run(program, window_init=spec.init_window)
        report = observer.report()
        assert report.ok, [str(v) for v in report.violations]
        assert report.max_concurrent_readers == 3
        assert report.write_acquires == 1
