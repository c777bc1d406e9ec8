"""Tests for the distributed-tree layout and the locality-threshold normalization."""

from __future__ import annotations

import pytest

from repro.core.constants import NULL_RANK
from repro.core.layout import LayoutAllocator
from repro.core.tree import UNBOUNDED_THRESHOLD, TreeLayout, normalize_locality_thresholds
from repro.topology.machine import Machine


@pytest.fixture
def machine() -> Machine:
    return Machine(fanouts=(2, 2), procs_per_leaf=3)


class TestThresholdNormalization:
    def test_none_means_unbounded_everywhere(self, machine):
        thresholds = normalize_locality_thresholds(machine, None)
        assert thresholds == (UNBOUNDED_THRESHOLD,) * 3

    def test_full_length_sequence(self, machine):
        assert normalize_locality_thresholds(machine, (2, 3, 4)) == (2, 3, 4)

    def test_short_sequence_covers_levels_2_to_n(self, machine):
        thresholds = normalize_locality_thresholds(machine, (3, 4))
        assert thresholds[0] == UNBOUNDED_THRESHOLD
        assert thresholds[1:] == (3, 4)

    def test_mapping_form(self, machine):
        thresholds = normalize_locality_thresholds(machine, {3: 7})
        assert thresholds[2] == 7
        assert thresholds[0] == UNBOUNDED_THRESHOLD

    def test_wrong_length_rejected(self, machine):
        with pytest.raises(ValueError):
            normalize_locality_thresholds(machine, (1,))
        with pytest.raises(ValueError):
            normalize_locality_thresholds(machine, (1, 2, 3, 4))

    def test_bad_level_in_mapping_rejected(self, machine):
        with pytest.raises(ValueError):
            normalize_locality_thresholds(machine, {4: 2})

    def test_non_positive_threshold_rejected(self, machine):
        with pytest.raises(ValueError):
            normalize_locality_thresholds(machine, (1, 2, 0))


class TestTreeLayout:
    def test_offsets_do_not_collide(self, machine):
        layout = TreeLayout.allocate(machine, LayoutAllocator())
        all_offsets = list(layout.next_offsets) + list(layout.status_offsets) + list(layout.tail_offsets)
        assert len(all_offsets) == len(set(all_offsets)) == 3 * machine.n_levels
        assert layout.max_offset == max(all_offsets)

    def test_offsets_respect_base(self, machine):
        layout = TreeLayout.allocate(machine, LayoutAllocator(base=20))
        assert min(layout.next_offsets) >= 20

    def test_per_level_accessors(self, machine):
        layout = TreeLayout.allocate(machine, LayoutAllocator())
        for level in range(1, machine.n_levels + 1):
            assert layout.next_offset(level) in layout.next_offsets
            assert layout.status_offset(level) in layout.status_offsets
            assert layout.tail_offset(level) in layout.tail_offsets

    def test_leaf_queue_node_is_the_process_itself(self, machine):
        layout = TreeLayout.allocate(machine, LayoutAllocator())
        for rank in range(machine.num_processes):
            assert layout.queue_nodes(rank)[machine.n_levels - 1].node == rank

    def test_upper_level_queue_node_is_element_representative(self, machine):
        layout = TreeLayout.allocate(machine, LayoutAllocator())
        # ranks 0-2 are node 0 (rack 0); their level-2 node is rank 0
        assert layout.queue_nodes(1)[1].node == 0
        assert layout.queue_nodes(2)[1].node == 0
        # ranks 3-5 are node 1; their representative is rank 3
        assert layout.queue_nodes(4)[1].node == 3
        # at level 1 the enqueued entity is the rack: rack 0 -> rank 0, rack 1 -> rank 6
        assert layout.queue_nodes(4)[0].node == 0
        assert layout.queue_nodes(10)[0].node == 6

    def test_same_element_shares_queue_node(self, machine):
        layout = TreeLayout.allocate(machine, LayoutAllocator())
        for level in range(1, machine.n_levels):
            for element in range(machine.num_elements(level + 1)):
                nodes = {
                    layout.queue_nodes(rank)[level - 1].node
                    for rank in machine.ranks_in_element(level + 1, element)
                }
                assert len(nodes) == 1

    def test_tail_host_is_first_rank_of_level_element(self, machine):
        layout = TreeLayout.allocate(machine, LayoutAllocator())
        assert layout.queue_nodes(5)[2].tail_host == 3       # node containing rank 5 starts at 3
        assert layout.queue_nodes(5)[1].tail_host == 0       # rack 0 starts at rank 0
        assert layout.queue_nodes(11)[1].tail_host == 6      # rack 1 starts at rank 6
        assert layout.queue_nodes(11)[0].tail_host == 0      # the machine starts at rank 0

    def test_init_window_nulls_pointers(self, machine):
        layout = TreeLayout.allocate(machine, LayoutAllocator())
        values = layout.init_window(0)
        for level in range(1, machine.n_levels + 1):
            assert values[layout.next_offset(level)] == NULL_RANK
            assert values[layout.tail_offset(level)] == NULL_RANK
            assert values[layout.status_offset(level)] == 0

    def test_single_level_machine(self):
        machine = Machine.single_node(4)
        layout = TreeLayout.allocate(machine, LayoutAllocator())
        assert layout.queue_nodes(3)[0].node == 3
        assert layout.queue_nodes(3)[0].tail_host == 0
