"""Tests for the asymmetric local/remote lock (ALock)."""

from __future__ import annotations

import pytest

from repro.core.constants import NULL_RANK
from repro.related.alock import ALockSpec
from repro.rma.sim_runtime import SimRuntime
from repro.topology.machine import Machine
from tests.support import STYLES, run_mutex_check


class TestALockSpec:
    def test_window_words(self):
        machine = Machine.cluster(nodes=2, procs_per_node=2)
        spec = ALockSpec(machine)
        assert spec.window_words == 4

    def test_init_window_home_holds_owner_and_tail(self):
        machine = Machine.cluster(nodes=2, procs_per_node=2)
        spec = ALockSpec(machine, home_rank=1)
        home = spec.init_window(1)
        assert home[spec.owner_offset] == NULL_RANK
        assert home[spec.tail_offset] == NULL_RANK
        other = spec.init_window(2)
        assert spec.owner_offset not in other
        assert other[spec.next_offset] == NULL_RANK

    def test_locality_follows_the_home_node(self):
        machine = Machine.cluster(nodes=2, procs_per_node=2)
        spec = ALockSpec(machine, home_rank=0)
        assert spec.is_local(0) and spec.is_local(1)
        assert not spec.is_local(2) and not spec.is_local(3)

    def test_rejects_bad_home_rank(self):
        with pytest.raises(ValueError):
            ALockSpec(Machine.single_node(2), home_rank=7)

    def test_rejects_inverted_backoff_caps(self):
        with pytest.raises(ValueError):
            ALockSpec(Machine.single_node(2), local_cap_us=10.0, remote_cap_us=1.0)

    def test_rejects_nonpositive_min_backoff(self):
        with pytest.raises(ValueError):
            ALockSpec(Machine.single_node(2), min_backoff_us=0.0)

    def test_rebasable_layout(self):
        machine = Machine.single_node(2)
        spec = ALockSpec(machine, base_offset=5)
        assert spec.owner_offset == 5
        assert spec.window_words == 9


class TestALockProtocol:
    @pytest.mark.parametrize("style", STYLES)
    def test_mutual_exclusion_mixed_locality(self, style):
        machine = Machine.cluster(nodes=2, procs_per_node=3)
        spec = ALockSpec(machine)
        outcome = run_mutex_check(spec, machine, iterations=3, style=style)
        assert outcome.ok, outcome

    def test_mutual_exclusion_all_local(self):
        machine = Machine.single_node(4)
        spec = ALockSpec(machine)
        outcome = run_mutex_check(spec, machine, iterations=3)
        assert outcome.ok, outcome

    def test_mutual_exclusion_remote_home(self):
        # Home the lock on the second node so ranks 0-2 all run the slow path.
        machine = Machine.cluster(nodes=2, procs_per_node=3)
        spec = ALockSpec(machine, home_rank=3)
        outcome = run_mutex_check(spec, machine, iterations=3)
        assert outcome.ok, outcome

    def test_uncontended_local_acquire_takes_one_cas(self):
        machine = Machine.cluster(nodes=2, procs_per_node=2)
        spec = ALockSpec(machine)
        runtime = SimRuntime(machine, window_words=spec.window_words)

        def program(ctx):
            lock = spec.make(ctx)
            ctx.barrier()
            if ctx.rank == 0:
                lock.acquire()
                attempts = lock.last_attempts
                holder = ctx.get(spec.home_rank, spec.owner_offset)
                ctx.flush(spec.home_rank)
                lock.release()
                return attempts, holder
            return None

        result = runtime.run(program, window_init=spec.init_window)
        attempts, holder = result.returns[0]
        assert attempts == 1
        assert holder == 0
