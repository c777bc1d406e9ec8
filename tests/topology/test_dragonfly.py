"""Tests for the Dragonfly topology model."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.topology.dragonfly import DragonflyTopology
from repro.topology.machine import Machine


@pytest.fixture
def dragonfly() -> DragonflyTopology:
    return DragonflyTopology(num_groups=3, routers_per_group=2, nodes_per_router=2)


class TestShape:
    def test_counts(self, dragonfly):
        assert dragonfly.num_routers == 6
        assert dragonfly.num_nodes == 12

    def test_rejects_degenerate_parameters(self):
        with pytest.raises(ValueError):
            DragonflyTopology(num_groups=0, routers_per_group=1, nodes_per_router=1)
        with pytest.raises(ValueError):
            DragonflyTopology(num_groups=1, routers_per_group=0, nodes_per_router=1)
        with pytest.raises(ValueError):
            DragonflyTopology(num_groups=1, routers_per_group=1, nodes_per_router=0)

    def test_router_of_packs_nodes_in_index_order(self, dragonfly):
        assert dragonfly.router_of(0) == (0, 0)
        assert dragonfly.router_of(1) == (0, 0)
        assert dragonfly.router_of(2) == (0, 1)
        assert dragonfly.router_of(4) == (1, 0)
        assert dragonfly.router_of(11) == (2, 1)

    def test_router_of_rejects_out_of_range(self, dragonfly):
        with pytest.raises(ValueError):
            dragonfly.router_of(12)


class TestForMachine:
    def test_covers_every_compute_node(self):
        machine = Machine.cluster(nodes=10, procs_per_node=4)
        topo = DragonflyTopology.for_machine(machine, nodes_per_router=2, routers_per_group=2)
        assert topo.num_nodes >= 10
        assert topo.num_groups == 3  # ceil(10 / 4)

    def test_single_node_machine_fits_one_group(self):
        machine = Machine.single_node(8)
        topo = DragonflyTopology.for_machine(machine)
        assert topo.num_groups == 1


class TestRouting:
    def test_same_router_route_uses_only_terminal_links(self, dragonfly):
        route = dragonfly.route(0, 1)
        assert all(link[0] == "terminal" for link in route)
        assert len(route) == 2

    def test_same_group_route_has_no_global_link(self, dragonfly):
        route = dragonfly.route(0, 2)
        kinds = [link[0] for link in route]
        assert "global" not in kinds
        assert kinds.count("local") == 1

    def test_inter_group_route_crosses_exactly_one_global_link(self, dragonfly):
        route = dragonfly.route(0, 11)
        kinds = [link[0] for link in route]
        assert kinds.count("global") == 1

    def test_global_link_is_shared_between_directions(self, dragonfly):
        forward = {l for l in dragonfly.route(0, 11) if l[0] == "global"}
        backward = {l for l in dragonfly.route(11, 0) if l[0] == "global"}
        assert forward == backward

    def test_gateway_requires_distinct_groups(self, dragonfly):
        with pytest.raises(ValueError):
            dragonfly.gateway_router(1, 1)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_route_properties_hold_for_random_pairs(self, data):
        topo = DragonflyTopology(
            num_groups=data.draw(st.integers(1, 4)),
            routers_per_group=data.draw(st.integers(1, 4)),
            nodes_per_router=data.draw(st.integers(1, 3)),
        )
        src = data.draw(st.integers(0, topo.num_nodes - 1))
        dst = data.draw(st.integers(0, topo.num_nodes - 1))
        route = topo.route(src, dst)
        kinds = [link[0] for link in route]
        # Minimal routing bounds: at most 2 terminal, 2 local and 1 global link.
        assert kinds.count("terminal") == 2
        assert kinds.count("local") <= 2
        assert kinds.count("global") <= 1
        if topo.router_of(src)[0] == topo.router_of(dst)[0]:
            assert "global" not in kinds
        else:
            assert kinds.count("global") == 1
        assert len(route) <= 5
