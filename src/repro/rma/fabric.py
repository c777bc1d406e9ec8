"""Link-level contention model for the simulated RMA fabric.

The base :class:`~repro.rma.latency.LatencyModel` charges every remote access
a distance-dependent latency and serializes accesses at the *target rank*
(end-point occupancy).  That reproduces hot-spot contention on a lock word
but not congestion *inside* the network, where many node pairs share the same
Dragonfly links — most importantly the few global links between groups.

:class:`FabricContentionModel` adds that missing piece: every inter-node RMA
call is routed over the minimal Dragonfly path
(:class:`~repro.topology.dragonfly.DragonflyTopology`) and serializes on each
link it crosses for a link-class-specific occupancy time.  Concurrent
transfers that share a link are therefore spread out in time, while transfers
on disjoint paths proceed in parallel — the behaviour that penalizes
topology-oblivious communication patterns (e.g. a D-MCS queue whose
neighbours live in different groups) relative to topology-aware ones.

The model is optional: pass it to :class:`~repro.rma.sim_runtime.SimRuntime`
via the ``fabric`` argument.  The per-run link state (when each link becomes
free) is owned by the runtime so that one model instance can be shared
between runs and configurations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, MutableMapping, Tuple

from repro.topology.dragonfly import DragonflyTopology, Link
from repro.topology.machine import Machine

__all__ = ["FabricContentionModel", "LinkState"]

#: Mutable map from link identifier to the virtual time at which it frees up.
LinkState = MutableMapping[Link, float]


@dataclass(frozen=True)
class FabricContentionModel:
    """Per-link latency and serialization costs over a Dragonfly topology.

    Args:
        topology: The Dragonfly connecting the machine's compute nodes.
        hop_latency_us: Propagation/forwarding latency added per traversed link.
        terminal_occupancy_us: Serialization time of a NIC/terminal link.
        local_occupancy_us: Serialization time of an intra-group (local) link.
        global_occupancy_us: Serialization time of an inter-group (global)
            link — the scarce, shared resource of a Dragonfly.
    """

    topology: DragonflyTopology
    hop_latency_us: float = 0.08
    terminal_occupancy_us: float = 0.05
    local_occupancy_us: float = 0.10
    global_occupancy_us: float = 0.35

    def __post_init__(self) -> None:
        for name in (
            "hop_latency_us",
            "terminal_occupancy_us",
            "local_occupancy_us",
            "global_occupancy_us",
        ):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")
        # Per-(src, dst) route cache: tuple of (link, occupancy) pairs.
        # Routes are pure functions of the (frozen) topology, so the cache is
        # safe to share between runs; it is attached via object.__setattr__
        # because the dataclass itself is frozen.  It deliberately does not
        # participate in equality/hashing.
        object.__setattr__(self, "_route_cache", {})

    # ------------------------------------------------------------------ #
    # Constructors
    # ------------------------------------------------------------------ #

    @classmethod
    def for_machine(
        cls,
        machine: Machine,
        *,
        nodes_per_router: int = 2,
        routers_per_group: int = 4,
        **costs: float,
    ) -> "FabricContentionModel":
        """Build a model whose Dragonfly hosts every compute node of ``machine``."""
        topology = DragonflyTopology.for_machine(
            machine,
            nodes_per_router=nodes_per_router,
            routers_per_group=routers_per_group,
        )
        return cls(topology=topology, **costs)

    # ------------------------------------------------------------------ #
    # Costs
    # ------------------------------------------------------------------ #

    def link_occupancy(self, link: Link) -> float:
        """Serialization time of one message on ``link``."""
        kind = link[0]
        if kind == "terminal":
            return self.terminal_occupancy_us
        if kind == "local":
            return self.local_occupancy_us
        if kind == "global":
            return self.global_occupancy_us
        raise ValueError(f"unknown link kind {kind!r}")

    def validate_machine(self, machine: Machine) -> None:
        """Ensure the topology can host every compute node of ``machine``."""
        nodes = machine.num_elements(machine.n_levels)
        if nodes > self.topology.num_nodes:
            raise ValueError(
                f"fabric topology hosts {self.topology.num_nodes} nodes but the "
                f"machine has {nodes} compute nodes"
            )

    # ------------------------------------------------------------------ #
    # Traversal
    # ------------------------------------------------------------------ #

    def new_state(self) -> Dict[Link, float]:
        """Fresh per-run link-availability state."""
        return {}

    def traverse(self, state: LinkState, src_node: int, dst_node: int, start_time: float) -> float:
        """Route one message and return its arrival time at the destination.

        The message crosses the minimal route link by link; on every link it
        waits until the link is free, occupies it for the link's serialization
        time and pays the per-hop latency.  ``state`` is updated in place.
        """
        if src_node == dst_node:
            return start_time
        t = float(start_time)
        hop = self.hop_latency_us
        for link, occupancy in self._route(src_node, dst_node):
            free_at = state.get(link, 0.0)
            if free_at > t:
                t = free_at
            state[link] = t + occupancy
            t += hop
        return t

    def _route(self, src_node: int, dst_node: int) -> Tuple[Tuple[Link, float], ...]:
        """Cached minimal route with the per-link occupancy pre-resolved.

        ``topology.route`` rebuilds the path (and ``link_occupancy`` re-branches
        on the link kind) on every message; under contention the same node
        pairs exchange thousands of messages, so the hot path reuses one
        immutable tuple per pair.
        """
        key = (src_node, dst_node)
        cached = self._route_cache.get(key)
        if cached is None:
            cached = tuple(
                (link, self.link_occupancy(link))
                for link in self.topology.route(src_node, dst_node)
            )
            self._route_cache[key] = cached
        return cached
