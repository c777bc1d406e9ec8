"""Dragonfly network topology model.

The paper's testbed (Piz Daint, Cray XC30) connects its compute nodes with
Cray's Aries interconnect, which implements a *Dragonfly* topology (Kim et
al., ISCA'08; Faanes et al., SC'12): routers are organized into groups, every
router connects a few compute nodes, routers within a group are fully
connected by *local* links, and every group has a handful of *global* links
to other groups.  Minimal routing therefore traverses at most

    node → router → (local link) → router → (global link) → router
         → (local link) → router → node

and the small number of global links per group is the classic contention hot
spot of Dragonfly machines.

This module models that structure explicitly so that the simulated RMA
fabric (:mod:`repro.rma.fabric`) can charge *link-level* contention in
addition to the end-point occupancy of the base latency model — the fidelity
gap called out in DESIGN.md (the endpoint-only model understates congestion
between topology-oblivious communication patterns).

The model is deliberately compact: links are identified by hashable tuples,
minimal (shortest-path) routing is deterministic, and the mapping from the
:class:`~repro.topology.machine.Machine`'s leaf elements (compute nodes) onto
routers/groups is round-robin by node index, which matches the regular
hierarchies used throughout the repository.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from repro.topology.machine import Machine

__all__ = ["DragonflyTopology", "Link"]

#: A link is identified by a kind tag plus its endpoints:
#:   ("terminal", group, router)       — node/NIC to router injection port
#:   ("local",   group, a, b)          — intra-group link between routers a < b
#:   ("global",  ga, gb)               — inter-group link between groups ga < gb
Link = Tuple


@dataclass(frozen=True)
class DragonflyTopology:
    """A regular Dragonfly: ``num_groups`` groups of ``routers_per_group`` routers.

    Every router hosts ``nodes_per_router`` compute nodes.  Routers inside a
    group are fully connected (one local link per router pair); each ordered
    pair of groups is connected by exactly one global link (the canonical
    "one global link per group pair" configuration).

    Args:
        num_groups: Number of Dragonfly groups (>= 1).
        routers_per_group: Routers in each group (>= 1).
        nodes_per_router: Compute nodes attached to each router (>= 1).
    """

    num_groups: int
    routers_per_group: int
    nodes_per_router: int

    def __post_init__(self) -> None:
        if self.num_groups < 1:
            raise ValueError("num_groups must be >= 1")
        if self.routers_per_group < 1:
            raise ValueError("routers_per_group must be >= 1")
        if self.nodes_per_router < 1:
            raise ValueError("nodes_per_router must be >= 1")

    # ------------------------------------------------------------------ #
    # Constructors
    # ------------------------------------------------------------------ #

    @classmethod
    def for_machine(
        cls,
        machine: Machine,
        *,
        nodes_per_router: int = 4,
        routers_per_group: int = 4,
    ) -> "DragonflyTopology":
        """Build a Dragonfly large enough to host every leaf element of ``machine``.

        Compute nodes (the machine's leaf elements) are packed onto routers in
        index order, ``nodes_per_router`` per router and ``routers_per_group``
        routers per group, mirroring how Cray systems allocate contiguous node
        ranges.
        """
        num_nodes = machine.num_elements(machine.n_levels)
        nodes_per_group = nodes_per_router * routers_per_group
        num_groups = max(1, -(-num_nodes // nodes_per_group))
        return cls(
            num_groups=num_groups,
            routers_per_group=routers_per_group,
            nodes_per_router=nodes_per_router,
        )

    # ------------------------------------------------------------------ #
    # Shape queries
    # ------------------------------------------------------------------ #

    @property
    def num_routers(self) -> int:
        return self.num_groups * self.routers_per_group

    @property
    def num_nodes(self) -> int:
        """Maximum number of compute nodes the topology can host."""
        return self.num_routers * self.nodes_per_router

    def router_of(self, node: int) -> Tuple[int, int]:
        """``(group, router-within-group)`` hosting compute node ``node``."""
        if not 0 <= node < self.num_nodes:
            raise ValueError(f"node {node} out of range 0..{self.num_nodes - 1}")
        router = node // self.nodes_per_router
        return router // self.routers_per_group, router % self.routers_per_group

    # ------------------------------------------------------------------ #
    # Links and routing
    # ------------------------------------------------------------------ #

    @staticmethod
    def terminal_link(group: int, router: int) -> Link:
        return ("terminal", group, router)

    @staticmethod
    def local_link(group: int, a: int, b: int) -> Link:
        lo, hi = (a, b) if a <= b else (b, a)
        return ("local", group, lo, hi)

    @staticmethod
    def global_link(group_a: int, group_b: int) -> Link:
        lo, hi = (group_a, group_b) if group_a <= group_b else (group_b, group_a)
        return ("global", lo, hi)

    def gateway_router(self, src_group: int, dst_group: int) -> int:
        """Router of ``src_group`` holding the global link towards ``dst_group``.

        Global links are spread round-robin over a group's routers so that the
        per-router global-link count stays balanced, as on real systems.
        """
        if src_group == dst_group:
            raise ValueError("gateway is only defined between distinct groups")
        # Peer groups of src_group in increasing order, skipping itself.
        peer_index = dst_group if dst_group < src_group else dst_group - 1
        return peer_index % self.routers_per_group

    def route(self, src_node: int, dst_node: int) -> List[Link]:
        """Minimal route between two compute nodes as an ordered list of links.

        The route includes the terminal (injection/ejection) links, any local
        links inside the source and destination groups and, for inter-group
        traffic, the single global link between the two groups.  A node
        messaging itself (or its router-mate) traverses only terminal links.
        """
        src_group, src_router = self.router_of(src_node)
        dst_group, dst_router = self.router_of(dst_node)
        links: List[Link] = [self.terminal_link(src_group, src_router)]
        if src_group == dst_group:
            if src_router != dst_router:
                links.append(self.local_link(src_group, src_router, dst_router))
        else:
            src_gateway = self.gateway_router(src_group, dst_group)
            dst_gateway = self.gateway_router(dst_group, src_group)
            if src_router != src_gateway:
                links.append(self.local_link(src_group, src_router, src_gateway))
            links.append(self.global_link(src_group, dst_group))
            if dst_gateway != dst_router:
                links.append(self.local_link(dst_group, dst_gateway, dst_router))
        links.append(self.terminal_link(dst_group, dst_router))
        return links
