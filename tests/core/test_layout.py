"""Tests for window layout allocation."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.layout import LayoutAllocator


class TestAllocator:
    def test_sequential_allocation(self):
        alloc = LayoutAllocator()
        a = alloc.allocate("a", 2)
        b = alloc.allocate("b", 3)
        assert (a.start, a.length) == (0, 2)
        assert (b.start, b.length) == (2, 3)
        assert alloc.total_words == 5

    def test_base_offset_respected(self):
        alloc = LayoutAllocator(base=10)
        region = alloc.allocate("a", 4)
        assert region.start == 10
        assert alloc.total_words == 14

    def test_field_shortcut(self):
        alloc = LayoutAllocator()
        first = alloc.field("x")
        second = alloc.field("y")
        assert (first, second) == (0, 1)

    def test_duplicate_name_rejected(self):
        alloc = LayoutAllocator()
        alloc.field("x")
        with pytest.raises(ValueError):
            alloc.field("x")

    def test_invalid_length(self):
        alloc = LayoutAllocator()
        with pytest.raises(ValueError):
            alloc.allocate("a", 0)

    def test_negative_base_rejected(self):
        with pytest.raises(ValueError):
            LayoutAllocator(base=-1)

    @given(st.lists(st.integers(min_value=1, max_value=16), min_size=1, max_size=30))
    @settings(max_examples=60, deadline=None)
    def test_regions_never_overlap(self, lengths):
        alloc = LayoutAllocator(base=3)
        regions = [alloc.allocate(f"r{i}", length) for i, length in enumerate(lengths)]
        covered = set()
        for region in regions:
            span = set(range(region.start, region.start + region.length))
            assert not (span & covered), "regions overlap"
            covered |= span
        assert alloc.total_words == 3 + sum(lengths)
