"""Tests for the distributed hashtable."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dht.hashtable import DHTFullError, DHTSpec
from repro.rma.sim_runtime import SimRuntime
from repro.topology.machine import Machine


def run_single_rank(program, *, table_size=8, heap_size=32):
    """Run a one-rank DHT program and return (spec, runtime, result)."""
    machine = Machine.single_node(1)
    spec = DHTSpec(num_processes=1, table_size=table_size, heap_size=heap_size)
    rt = SimRuntime(machine, window_words=spec.window_words)
    result = rt.run(lambda ctx: program(spec.make(ctx), ctx), window_init=spec.init_window)
    return spec, rt, result


class TestSpec:
    def test_layout_sizes(self):
        spec = DHTSpec(num_processes=4, table_size=8, heap_size=16)
        assert spec.window_words == 1 + 8 + 16 * 3
        assert spec.bucket_offset(0) == 1
        assert spec.element_offsets(0)[0] == 1 + 8

    def test_layout_respects_base_offset(self):
        spec = DHTSpec(num_processes=4, table_size=4, heap_size=4, base_offset=10)
        assert spec.next_free_offset == 10
        assert spec.window_words == 10 + 1 + 4 + 12

    def test_bucket_and_element_bounds(self):
        spec = DHTSpec(num_processes=2, table_size=4, heap_size=4)
        with pytest.raises(IndexError):
            spec.bucket_offset(4)
        with pytest.raises(IndexError):
            spec.element_offsets(4)

    def test_home_rank_and_bucket_stable(self):
        spec = DHTSpec(num_processes=8, table_size=16, heap_size=4)
        for key in (0, 1, 17, 123456789, 2**40):
            assert 0 <= spec.home_rank(key) < 8
            assert 0 <= spec.bucket_of(key) < 16
            assert spec.home_rank(key) == spec.home_rank(key)

    def test_validation(self):
        with pytest.raises(ValueError):
            DHTSpec(num_processes=0)
        with pytest.raises(ValueError):
            DHTSpec(num_processes=1, table_size=0)
        with pytest.raises(ValueError):
            DHTSpec(num_processes=1, heap_size=0)

    def test_init_window_marks_buckets_empty(self):
        spec = DHTSpec(num_processes=1, table_size=4, heap_size=2)
        init = spec.init_window(0)
        for b in range(4):
            assert init[spec.bucket_offset(b)] == -1


class TestSingleRankOperations:
    def test_insert_then_lookup(self):
        def program(dht, ctx):
            assert dht.insert(42, 420)
            return dht.lookup(42)

        _, _, result = run_single_rank(program)
        assert result.returns[0] == 420

    def test_lookup_missing_returns_none(self):
        def program(dht, ctx):
            dht.insert(1, 10)
            return dht.lookup(999)

        _, _, result = run_single_rank(program)
        assert result.returns[0] is None

    def test_duplicate_insert_rejected(self):
        def program(dht, ctx):
            first = dht.insert(7, 70)
            second = dht.insert(7, 71)
            return first, second, dht.lookup(7)

        _, _, result = run_single_rank(program)
        assert result.returns[0] == (True, False, 70)

    def test_collisions_go_to_overflow_chain(self):
        def program(dht, ctx):
            # table_size=1 forces every key into the same bucket
            stored = [dht.insert(k, k * 10) for k in range(6)]
            values = [dht.lookup(k) for k in range(6)]
            return stored, values

        machine = Machine.single_node(1)
        spec = DHTSpec(num_processes=1, table_size=1, heap_size=16)
        rt = SimRuntime(machine, window_words=spec.window_words)
        result = rt.run(lambda ctx: program(spec.make(ctx), ctx), window_init=spec.init_window)
        stored, values = result.returns[0]
        assert all(stored)
        assert values == [k * 10 for k in range(6)]

    def test_heap_exhaustion_raises(self):
        def program(dht, ctx):
            for k in range(10):
                dht.insert(k, k)

        machine = Machine.single_node(1)
        spec = DHTSpec(num_processes=1, table_size=2, heap_size=4)
        rt = SimRuntime(machine, window_words=spec.window_words)
        with pytest.raises(DHTFullError):
            rt.run(lambda ctx: program(spec.make(ctx), ctx), window_init=spec.init_window)

    def test_negative_and_large_keys(self):
        def program(dht, ctx):
            keys = [-5, 0, 2**40, 17]
            for k in keys:
                dht.insert(k, k + 1)
            return [dht.lookup(k) for k in keys]

        _, _, result = run_single_rank(program)
        assert result.returns[0] == [-4, 1, 2**40 + 1, 18]


class TestDistributedOperations:
    def test_keys_partitioned_across_ranks(self):
        machine = Machine.cluster(nodes=2, procs_per_node=2)
        spec = DHTSpec(num_processes=4, table_size=8, heap_size=64)
        rt = SimRuntime(machine, window_words=spec.window_words)

        def program(ctx):
            dht = spec.make(ctx)
            ctx.barrier()
            for i in range(8):
                key = ctx.rank * 100 + i
                dht.insert(key, key * 2)
            ctx.barrier()
            return [dht.lookup(r * 100 + i) for r in range(4) for i in range(8)]

        result = rt.run(program, window_init=spec.init_window)
        expected = [(r * 100 + i) * 2 for r in range(4) for i in range(8)]
        for per_rank in result.returns:
            assert per_rank == expected

    def test_concurrent_inserts_to_one_victim_all_land(self):
        machine = Machine.cluster(nodes=2, procs_per_node=4)
        spec = DHTSpec(num_processes=8, table_size=4, heap_size=128)
        rt = SimRuntime(machine, window_words=spec.window_words)

        def program(ctx):
            dht = spec.make(ctx)
            ctx.barrier()
            for i in range(6):
                dht.insert(ctx.rank * 1000 + i, ctx.rank, target_rank=0)
            ctx.barrier()
            missing = 0
            for r in range(8):
                for i in range(6):
                    if dht.lookup(r * 1000 + i, target_rank=0) is None:
                        missing += 1
            return missing

        result = rt.run(program, window_init=spec.init_window)
        assert all(missing == 0 for missing in result.returns)

    def test_concurrent_duplicate_inserts_keep_single_value(self):
        machine = Machine.single_node(4)
        spec = DHTSpec(num_processes=4, table_size=2, heap_size=64)
        rt = SimRuntime(machine, window_words=spec.window_words)

        def program(ctx):
            dht = spec.make(ctx)
            ctx.barrier()
            won = dht.insert(77, ctx.rank + 1, target_rank=0)
            ctx.barrier()
            return won, dht.lookup(77, target_rank=0)

        result = rt.run(program, window_init=spec.init_window)
        winners = [r[0] for r in result.returns]
        values = {r[1] for r in result.returns}
        assert sum(winners) == 1
        assert len(values) == 1
        assert values.pop() in {1, 2, 3, 4}

    def test_mismatched_runtime_rejected(self):
        spec = DHTSpec(num_processes=4)
        rt = SimRuntime(Machine.single_node(2), window_words=spec.window_words)
        with pytest.raises(ValueError):
            rt.run(lambda ctx: spec.make(ctx), window_init=spec.init_window)


class TestAgainstModel:
    @given(
        st.lists(
            st.tuples(st.sampled_from(["insert", "lookup"]), st.integers(0, 30), st.integers(0, 1000)),
            max_size=60,
        )
    )
    @settings(max_examples=25, deadline=None)
    def test_single_rank_matches_python_dict(self, operations):
        """A sequential DHT behaves exactly like a dict with first-write-wins."""

        def program(dht, ctx):
            model = {}
            mismatches = 0
            for op, key, value in operations:
                if op == "insert":
                    inserted = dht.insert(key, value)
                    if key in model:
                        if inserted:
                            mismatches += 1
                    else:
                        model[key] = value
                        if not inserted:
                            mismatches += 1
                else:
                    expected = model.get(key)
                    if dht.lookup(key) != expected:
                        mismatches += 1
            return mismatches

        _, _, result = run_single_rank(program, table_size=4, heap_size=128)
        assert result.returns[0] == 0
