"""Tests for the hierarchical backoff lock."""

from __future__ import annotations

import pytest

from repro.core.constants import NULL_RANK
from repro.related.hbo import HBOLockSpec
from repro.rma.sim_runtime import SimRuntime
from repro.topology.machine import Machine
from tests.support import STYLES, run_mutex_check


class TestHBOLockSpec:
    def test_window_words(self):
        machine = Machine.cluster(nodes=2, procs_per_node=2)
        spec = HBOLockSpec(machine)
        assert spec.window_words == 1

    def test_init_window_sets_null_holder_on_home(self):
        machine = Machine.cluster(nodes=2, procs_per_node=2)
        spec = HBOLockSpec(machine, home_rank=1)
        assert spec.init_window(1) == {spec.lock_offset: NULL_RANK}
        assert spec.init_window(0) == {}

    def test_rejects_bad_home_rank(self):
        machine = Machine.single_node(2)
        with pytest.raises(ValueError):
            HBOLockSpec(machine, home_rank=5)

    def test_rejects_inverted_backoff_caps(self):
        machine = Machine.single_node(2)
        with pytest.raises(ValueError):
            HBOLockSpec(machine, local_cap_us=10.0, remote_cap_us=1.0)

    def test_rejects_nonpositive_min_backoff(self):
        machine = Machine.single_node(2)
        with pytest.raises(ValueError):
            HBOLockSpec(machine, min_backoff_us=0.0)

    def test_rejects_local_cap_below_min(self):
        machine = Machine.single_node(2)
        with pytest.raises(ValueError):
            HBOLockSpec(machine, min_backoff_us=5.0, local_cap_us=1.0, remote_cap_us=10.0)


class TestHBOLockProtocol:
    @pytest.mark.parametrize("style", STYLES)
    def test_mutual_exclusion(self, style):
        machine = Machine.cluster(nodes=2, procs_per_node=3)
        spec = HBOLockSpec(machine)
        outcome = run_mutex_check(spec, machine, iterations=3, style=style)
        assert outcome.ok, outcome

    def test_mutual_exclusion_three_levels(self):
        machine = Machine(fanouts=(2, 2), procs_per_leaf=2)
        spec = HBOLockSpec(machine)
        outcome = run_mutex_check(spec, machine, iterations=3)
        assert outcome.ok, outcome

    def test_uncontended_acquire_takes_one_attempt(self):
        machine = Machine.single_node(2)
        spec = HBOLockSpec(machine)
        runtime = SimRuntime(machine, window_words=spec.window_words)

        def program(ctx):
            lock = spec.make(ctx)
            ctx.barrier()
            if ctx.rank == 0:
                lock.acquire()
                attempts = lock.last_attempts
                lock.release()
                return attempts
            return None

        result = runtime.run(program, window_init=spec.init_window)
        assert result.returns[0] == 1

    def test_lock_word_holds_the_current_owner(self):
        machine = Machine.single_node(2)
        spec = HBOLockSpec(machine)
        runtime = SimRuntime(machine, window_words=spec.window_words + 1)
        flag = spec.window_words

        def holder_word(ctx):
            value = ctx.get(spec.home_rank, spec.lock_offset)
            ctx.flush(spec.home_rank)
            return value

        def program(ctx):
            lock = spec.make(ctx)
            ctx.barrier()
            if ctx.rank == 0:
                lock.acquire()
                ctx.put(1, 1, flag)
                ctx.flush(1)
                ctx.spin_while(0, flag, lambda v: v == 0)
                lock.release()
                return holder_word(ctx)
            # Rank 1 observes the holder while rank 0 is inside the CS.
            ctx.spin_while(ctx.rank, flag, lambda v: v == 0)
            observed = holder_word(ctx)
            ctx.put(1, 0, flag)
            ctx.flush(0)
            return observed

        result = runtime.run(program, window_init=spec.init_window)
        assert result.returns[1] == 0          # rank 0 held the lock
        assert result.returns[0] == NULL_RANK   # free after release

    def test_backoff_cap_depends_on_holder_distance(self):
        machine = Machine.cluster(nodes=2, procs_per_node=2)
        spec = HBOLockSpec(machine, local_cap_us=2.0, remote_cap_us=20.0)
        runtime = SimRuntime(machine, window_words=spec.window_words)

        def program(ctx):
            lock = spec.make(ctx)
            if ctx.rank != 0:
                return None
            # Rank 0 lives on node 0 with rank 1; ranks 2 and 3 are remote.
            return (
                lock._backoff_cap(1),
                lock._backoff_cap(2),
                lock._backoff_cap(NULL_RANK),
            )

        result = runtime.run(program, window_init=spec.init_window)
        local_cap, remote_cap, free_cap = result.returns[0]
        assert local_cap == pytest.approx(2.0)
        assert remote_cap == pytest.approx(20.0)
        assert free_cap == pytest.approx(2.0)
