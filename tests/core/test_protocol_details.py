"""White-box tests of protocol details that the black-box checks cannot see.

These tests look inside the window state between protocol steps to pin down
behaviours the paper describes in prose: the shortcut that lets a writer skip
tree levels, the ``ACQUIRE_PARENT`` hand-over when a locality threshold is
reached, the WRITE flag life cycle of the distributed counter, and the
``T_W`` hand-over from writers to readers.
"""

from __future__ import annotations

import pytest

from repro.core.constants import NULL_RANK, STATUS_MODE_CHANGE, WRITE_FLAG
from repro.core.rma_mcs import RMAMCSLockSpec
from repro.core.rma_rw import RMARWLockSpec
from repro.rma.sim_runtime import SimRuntime
from repro.topology.machine import Machine
from tests.support import run_rw_check


class TestShortcutAndClimb:
    def test_intra_node_passing_uses_the_shortcut(self):
        """With a large T_L, a waiting same-node writer receives the lock directly
        (its leaf STATUS carries a passing count, never ACQUIRE_PARENT)."""
        machine = Machine.cluster(nodes=2, procs_per_node=2)
        spec = RMAMCSLockSpec(machine, t_l=(1, 8))
        rt = SimRuntime(machine, window_words=spec.window_words + 2)
        status_seen_off = spec.window_words

        def program(ctx):
            lock = spec.make(ctx)
            ctx.barrier()
            if ctx.rank in (0, 1):  # same node; rank 1 arrives while 0 holds the lock
                if ctx.rank == 0:
                    lock.acquire()
                    ctx.compute(20.0)
                    lock.release()
                else:
                    ctx.compute(5.0)  # arrive strictly after rank 0 acquired
                    lock.acquire()
                    status = ctx.get(ctx.rank, spec.layout.status_offset(2))
                    ctx.flush(ctx.rank)
                    ctx.put(status, 0, status_seen_off)
                    ctx.flush(0)
                    lock.release()
            ctx.barrier()

        rt.run(program, window_init=spec.init_window)
        # rank 1's leaf status was a passing count (>= 1), i.e. the shortcut fired
        assert rt.window(0).read(status_seen_off) >= 1

    def test_locality_threshold_one_forces_climb(self):
        """With T_L,leaf = 1, only one intra-node pass is allowed.

        Three same-node writers queue up: the first climbs, the second receives
        the single allowed shortcut pass (count 1), and the third must be told
        to acquire the parent level itself (its leaf STATUS is ACQUIRE_START
        when it finally holds the lock).
        """
        machine = Machine.cluster(nodes=2, procs_per_node=3)
        spec = RMAMCSLockSpec(machine, t_l=(1, 1))
        rt = SimRuntime(machine, window_words=spec.window_words + 4)
        second_status_off = spec.window_words
        third_status_off = spec.window_words + 1

        def program(ctx):
            lock = spec.make(ctx)
            ctx.barrier()
            if ctx.rank == 0:
                lock.acquire()
                ctx.compute(40.0)
                lock.release()
            elif ctx.rank == 1:
                ctx.compute(5.0)
                lock.acquire()
                status = ctx.get(ctx.rank, spec.layout.status_offset(2))
                ctx.flush(ctx.rank)
                ctx.put(status, 0, second_status_off)
                ctx.flush(0)
                lock.release()
            elif ctx.rank == 2:
                ctx.compute(10.0)
                lock.acquire()
                status = ctx.get(ctx.rank, spec.layout.status_offset(2))
                ctx.flush(ctx.rank)
                ctx.put(status, 0, third_status_off)
                ctx.flush(0)
                lock.release()
            ctx.barrier()

        rt.run(program, window_init=spec.init_window)
        assert rt.window(0).read(second_status_off) == 1   # the one allowed pass
        assert rt.window(0).read(third_status_off) == 0    # ACQUIRE_START: it climbed


class TestCounterLifeCycle:
    def test_write_flag_present_while_writer_in_cs(self):
        machine = Machine.cluster(nodes=2, procs_per_node=2)
        spec = RMARWLockSpec(machine, t_l=(2, 2), t_r=8)
        rt = SimRuntime(machine, window_words=spec.window_words + 2)
        flag_seen_off = spec.window_words

        def program(ctx):
            lock = spec.make(ctx)
            ctx.barrier()
            if ctx.rank == 0:
                lock.acquire_write()
                flagged = 1
                for counter in spec.counter.counter_ranks:
                    arrive = ctx.get(counter, spec.counter.arrive_offset)
                    ctx.flush(counter)
                    if arrive < WRITE_FLAG:
                        flagged = 0
                ctx.put(flagged, 0, flag_seen_off)
                ctx.flush(0)
                lock.release_write()
            ctx.barrier()

        rt.run(program, window_init=spec.init_window)
        assert rt.window(0).read(flag_seen_off) == 1
        # after release the flag must be gone from every counter
        for counter in spec.counter.counter_ranks:
            assert rt.window(counter).read(spec.counter.arrive_offset) < WRITE_FLAG

    def test_writer_threshold_hands_lock_to_readers(self):
        """With T_W = 1 every root release resets the counters (mode change)."""
        machine = Machine.single_node(3)
        spec = RMARWLockSpec(machine, t_l=(4,), t_r=8, t_w=1)
        rt = SimRuntime(machine, window_words=spec.window_words + 2)

        def program(ctx):
            lock = spec.make(ctx)
            ctx.barrier()
            if ctx.rank == 0:
                lock.acquire_write()
                lock.release_write()
            ctx.barrier()
            # a reader can get in immediately afterwards: counters were reset
            lock.acquire_read()
            lock.release_read()
            ctx.barrier()

        rt.run(program, window_init=spec.init_window)
        counter = spec.counter.counter_ranks[0]
        window = rt.window(counter)
        assert window.read(spec.counter.arrive_offset) < WRITE_FLAG

    def test_mode_change_notification_reaches_successor_writer(self):
        """When T_W is reached with a waiting writer, the successor receives MODE_CHANGE
        and must win the lock back from the readers — both writers still succeed."""
        machine = Machine.cluster(nodes=2, procs_per_node=2)
        spec = RMARWLockSpec(machine, t_l=(1, 1), t_r=4, t_w=1)
        rt = SimRuntime(machine, window_words=spec.window_words + 2)
        done_off = spec.window_words

        def program(ctx):
            lock = spec.make(ctx)
            ctx.barrier()
            if ctx.rank in (0, 2):  # writers on different nodes
                lock.acquire_write()
                ctx.compute(5.0)
                ctx.accumulate(1, 0, done_off)
                ctx.flush(0)
                lock.release_write()
            ctx.barrier()

        rt.run(program, window_init=spec.init_window)
        assert rt.window(0).read(done_off) == 2
        assert STATUS_MODE_CHANGE < 0  # sanity: sentinel kept distinct from counts


class TestStrandedCounterRecovery:
    """Liveness of saturated readers when the counter-reset race leaves a residue.

    The reset of Listing 6 is not atomic: a reader departure that lands between
    the reset's reads and its accumulates survives as a DEPART residue that
    keeps ARRIVE above T_R forever, stranding every reader of that counter
    (DESIGN.md section 7.4).  These tests pin the falsifying example Hypothesis
    found and exercise the recovery path directly.
    """

    def test_hypothesis_falsifying_example_stays_live(self):
        """Pure readers, one shared counter, T_R smaller than the reader count."""
        machine = Machine.cluster(nodes=3, procs_per_node=2)
        spec = RMARWLockSpec(machine, t_dc=6, t_l=(2, 1), t_r=2)
        outcome = run_rw_check(spec, machine, iterations=3, fw=0.0, seed=0)
        assert outcome.ok, outcome

    def test_many_readers_tiny_threshold_many_iterations(self):
        machine = Machine.cluster(nodes=2, procs_per_node=4)
        spec = RMARWLockSpec(machine, t_dc=machine.num_processes, t_l=(2, 2), t_r=1)
        outcome = run_rw_check(spec, machine, iterations=5, fw=0.0, seed=3)
        assert outcome.ok, outcome

    def test_recovery_resets_a_stranded_counter(self):
        """A reader parked on a stranded counter resets it and proceeds."""
        machine = Machine.single_node(2)
        spec = RMARWLockSpec(machine, t_dc=2, t_l=(4,), t_r=2)
        runtime = SimRuntime(machine, window_words=spec.window_words, seed=1)

        def window_init(rank):
            values = dict(spec.init_window(rank))
            if rank == 0:
                # Craft the stranded state: ARRIVE stuck above T_R with a DEPART
                # residue and no active readers (arrive - depart == 0).
                values[spec.counter.arrive_offset] = 3
                values[spec.counter.depart_offset] = 3
            return values

        def program(ctx):
            lock = spec.make(ctx)
            ctx.barrier()
            if ctx.rank == 1:
                with lock.reading():
                    ctx.compute(0.2)
            ctx.barrier()

        runtime.run(program, window_init=window_init)
        window = runtime.window(0)
        arrive = window.read(spec.counter.arrive_offset)
        depart = window.read(spec.counter.depart_offset)
        assert arrive - depart == 0
        assert arrive <= 2

    def test_recovery_defers_to_write_mode(self):
        """A counter in WRITE mode is left to the writer even when drained."""
        from repro.core.constants import WRITE_FLAG

        machine = Machine.single_node(2)
        spec = RMARWLockSpec(machine, t_dc=2, t_l=(4,), t_r=2)
        runtime = SimRuntime(machine, window_words=spec.window_words + 1, seed=2)
        flag_off = spec.window_words

        def window_init(rank):
            values = dict(spec.init_window(rank))
            if rank == 0:
                values[spec.counter.arrive_offset] = WRITE_FLAG
            return values

        def program(ctx):
            lock = spec.make(ctx)
            ctx.barrier()
            if ctx.rank == 1:
                # The reader must wait until rank 0 (standing in for the writer
                # releasing the lock) resets the counter.
                with lock.reading():
                    observed = ctx.get(0, flag_off)
                    ctx.flush(0)
                    return observed
            # Rank 0 plays the writer's release: set the marker, then reset.
            ctx.compute(5.0)
            ctx.put(1, 0, flag_off)
            ctx.flush(0)
            spec.counter.make(ctx).reset_counters()
            return None

        result = runtime.run(program, window_init=window_init)
        # The reader only entered after the counter was reset, i.e. it saw the marker.
        assert result.returns[1] == 1
