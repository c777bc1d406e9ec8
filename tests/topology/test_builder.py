"""Tests for the machine builders used by the benchmark sweeps."""

from __future__ import annotations

import pytest

from repro.topology.builder import (
    XC30_PROCS_PER_NODE,
    cached_machine,
    figure2_machine,
    xc30_like,
)


class TestXC30Like:
    def test_sub_node_counts_collapse_to_single_node(self):
        for p in (1, 2, 8, 15):
            m = xc30_like(p)
            assert m.num_processes == p
            assert m.n_levels == 2
            assert m.num_elements(2) == 1

    def test_exact_node_boundary(self):
        m = xc30_like(16)
        assert m.num_elements(2) == 1
        assert m.ranks_per_element(2) == 16

    def test_multi_node(self):
        m = xc30_like(64)
        assert m.num_elements(2) == 4
        assert m.ranks_per_element(2) == XC30_PROCS_PER_NODE

    def test_custom_node_width(self):
        m = xc30_like(32, procs_per_node=8)
        assert m.num_elements(2) == 4
        assert m.ranks_per_element(2) == 8

    def test_rejects_non_multiple(self):
        with pytest.raises(ValueError):
            xc30_like(40, procs_per_node=16)

    def test_rejects_non_positive(self):
        with pytest.raises(ValueError):
            xc30_like(0)
        with pytest.raises(ValueError):
            xc30_like(8, procs_per_node=0)


class TestFigure2Machine:
    def test_shape(self):
        m = figure2_machine()
        assert m.n_levels == 3
        assert m.num_elements(2) == 2
        assert m.num_elements(3) == 4

    def test_custom_width(self):
        m = figure2_machine(procs_per_node=2)
        assert m.num_processes == 8


class TestCachedMachine:
    def test_returns_one_shared_instance_per_key(self):
        assert cached_machine(32, 8) is cached_machine(32, 8)
        assert cached_machine(32, 8) == xc30_like(32, procs_per_node=8)
        assert cached_machine(32, 8) is not cached_machine(32, 16)

    def test_topologies(self):
        assert cached_machine(24, 6, "figure2") == figure2_machine(procs_per_node=6)
        with pytest.raises(ValueError, match="unknown topology"):
            cached_machine(8, 8, "torus")

    def test_memo_is_lru_bounded(self):
        # Long multi-topology traffic sweeps must not grow the machine memo
        # without limit; the cache is a bounded LRU, and eviction only costs
        # a re-construction (identity may change, equality never does).
        info = cached_machine.cache_parameters()
        assert info["maxsize"] == 128
        before = cached_machine(32, 8)
        for nodes in range(1, 140):
            cached_machine(nodes * 4, 4)
        assert cached_machine.cache_info().currsize <= 128
        assert cached_machine(32, 8) == before

    def test_figure2_rejects_mismatched_process_count(self):
        # 2 racks x 2 nodes x 6 ranks = 24, so requesting 12 is a config error
        # (not a silent 24-process machine under a P=12 label).
        with pytest.raises(ValueError, match="not the requested"):
            cached_machine(12, 6, "figure2")
