"""Tests for the counter placement mappings."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.topology.mapping import CounterPlacement, counter_rank, counter_ranks


class TestCounterRank:
    def test_stride_one_every_rank_owns_a_counter(self):
        assert [counter_rank(r, 1, 8) for r in range(8)] == list(range(8))

    def test_stride_groups(self):
        assert counter_rank(0, 4, 16) == 0
        assert counter_rank(3, 4, 16) == 0
        assert counter_rank(4, 4, 16) == 4
        assert counter_rank(15, 4, 16) == 12

    def test_stride_larger_than_p_single_counter(self):
        assert all(counter_rank(r, 100, 8) == 0 for r in range(8))

    def test_invalid_stride(self):
        with pytest.raises(ValueError):
            counter_rank(0, 0, 8)

    def test_invalid_rank(self):
        with pytest.raises(ValueError):
            counter_rank(8, 2, 8)

    def test_counter_ranks_list(self):
        assert counter_ranks(4, 16) == [0, 4, 8, 12]
        assert counter_ranks(16, 16) == [0]
        assert counter_ranks(1, 3) == [0, 1, 2]

    def test_counter_ranks_invalid(self):
        with pytest.raises(ValueError):
            counter_ranks(0, 8)

    @given(st.integers(1, 64), st.integers(1, 64))
    @settings(max_examples=80, deadline=None)
    def test_owner_is_a_counter_rank(self, t_dc, p):
        owners = counter_ranks(t_dc, p)
        for rank in range(p):
            assert counter_rank(rank, t_dc, p) in owners


class TestCounterPlacement:
    def test_one_counter_per_node(self):
        placement = CounterPlacement(t_dc=8, num_processes=32)
        assert placement.owners() == [0, 8, 16, 24]
        assert placement.num_counters == 4
        assert placement.owner(13) == 8

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            CounterPlacement(t_dc=0, num_processes=4)
        with pytest.raises(ValueError):
            CounterPlacement(t_dc=2, num_processes=0)
