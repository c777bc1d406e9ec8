"""Latency model for the simulated RMA fabric.

The paper's performance results are driven by the machine hierarchy: accesses
within a rank are cheapest, shared-memory accesses within a compute node are
cheap, and network accesses between nodes (and between Dragonfly groups) are
one to two orders of magnitude more expensive.  The simulator charges every
RMA call a latency that depends on the *common level* of the origin and the
target in the :class:`~repro.topology.machine.Machine` hierarchy.

Absolute values loosely follow published Cray XC30 / Aries RDMA numbers
(~1-2 µs one-sided latency between nodes, sub-µs within a node); what matters
for reproducing the paper's figures is the ordering and the ratios, not the
absolute magnitudes.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, List, Tuple

from repro.rma.ops import CALLS, RMACall
from repro.topology.machine import Machine

__all__ = ["CostTable", "LatencyModel", "cost_table"]

@dataclass(frozen=True)
class LatencyModel:
    """Per-operation latency costs in microseconds.

    ``self_us`` applies when origin == target (local window access),
    ``same_node_us`` when the ranks share a leaf element, ``same_group_us``
    when they share the next level up (e.g. a rack / Dragonfly group) and
    ``global_us`` otherwise.  ``atomic_overhead_us`` is added for
    Accumulate/FAO/CAS (remote atomics are more expensive than puts/gets on
    real NICs), and ``flush_fraction`` scales the cost of a Flush relative to
    the distance-dependent base cost.
    """

    self_us: float = 0.05
    same_node_us: float = 0.30
    same_group_us: float = 1.40
    global_us: float = 2.00
    atomic_overhead_us: float = 0.25
    flush_fraction: float = 0.5
    atomic_occupancy_us: float = 0.45
    data_occupancy_us: float = 0.15

    def __post_init__(self) -> None:
        for name in ("self_us", "same_node_us", "same_group_us", "global_us"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")
        if self.atomic_overhead_us < 0:
            raise ValueError("atomic_overhead_us must be non-negative")
        if not 0 <= self.flush_fraction <= 1:
            raise ValueError("flush_fraction must be in [0, 1]")
        if self.atomic_occupancy_us < 0 or self.data_occupancy_us < 0:
            raise ValueError("occupancy times must be non-negative")

    # ------------------------------------------------------------------ #
    # Presets
    # ------------------------------------------------------------------ #

    @classmethod
    def cray_xc30(cls) -> "LatencyModel":
        """Default preset mirroring the paper's Cray XC30/Aries testbed."""
        return cls()

    @classmethod
    def flat(cls, latency_us: float = 1.0) -> "LatencyModel":
        """Topology-oblivious fabric: every remote access costs the same.

        Used by the ablation benchmarks to show that the topology-aware locks
        lose their edge when the hierarchy is flat.
        """
        return cls(
            self_us=latency_us * 0.05,
            same_node_us=latency_us,
            same_group_us=latency_us,
            global_us=latency_us,
        )

    # ------------------------------------------------------------------ #
    # Cost computation
    # ------------------------------------------------------------------ #

    def _level_cost(self, common: int, n_levels: int) -> float:
        """Base cost of an access whose endpoints' common level is ``common``."""
        if common == n_levels + 1:
            return self.self_us
        if common == n_levels:
            return self.same_node_us
        if common == n_levels - 1:
            return self.same_group_us
        return self.global_us

    def base_cost(self, machine: Machine, origin: int, target: int) -> float:
        """Distance-dependent base cost of touching ``target``'s window from ``origin``."""
        return self._level_cost(machine.common_level(origin, target), machine.n_levels)

    def cost(self, call: RMACall, machine: Machine, origin: int, target: int) -> float:
        """Latency charged to ``origin`` for issuing ``call`` at ``target``."""
        base = self.base_cost(machine, origin, target)
        if call is RMACall.FLUSH:
            return base * self.flush_fraction
        if call in (RMACall.ACCUMULATE, RMACall.FAO, RMACall.CAS):
            return base + self.atomic_overhead_us
        return base

    def occupancy(self, call: RMACall, origin: int, target: int) -> float:
        """Time the *target's* memory/NIC port is busy serving ``call``.

        Remote accesses to the same rank serialize at that rank (this is what
        makes a centralized lock word a bottleneck under contention); the
        simulator keeps a per-target port and delays operations that arrive
        while the port is busy.  Local accesses and flushes occupy nothing.
        """
        if origin == target or call is RMACall.FLUSH:
            return 0.0
        if call in (RMACall.ACCUMULATE, RMACall.FAO, RMACall.CAS):
            return self.atomic_occupancy_us
        return self.data_occupancy_us


class CostTable:
    """Flat per-``(call, origin, target)`` latency and occupancy arrays.

    ``cost[call_index][origin * P + target]`` is exactly
    ``model.cost(call, machine, origin, target)`` and likewise for
    ``occupancy``.  The stock :class:`LatencyModel` methods depend on the rank
    pair only through its common level, so for them the hierarchy is walked
    once per pair and the model's methods are called once per call and
    *distance class present*, on a representative pair; a model whose type
    overrides ``cost``, ``base_cost`` or ``occupancy`` may charge per rank
    pair and gets one method call per entry.  ``node_of[rank]`` caches the
    leaf element of every rank (used by the fabric-contention fast path).
    """

    __slots__ = ("num_ranks", "cost", "occupancy", "node_of")

    def __init__(self, model: "LatencyModel", machine: Machine):
        p = machine.num_processes
        self.num_ranks = p
        ranks = range(p)
        if all(
            getattr(type(model), name, None) is getattr(LatencyModel, name)
            for name in ("cost", "base_cost", "occupancy")
        ):
            classes = [machine.common_level(o, t) for o in ranks for t in ranks]
            pairs = {c: divmod(i, p) for i, c in enumerate(classes)}  # one per class

            def rows(entry: Callable[[RMACall, int, int], float]) -> List[List[float]]:
                by_class = ({c: entry(call, *pairs[c]) for c in pairs} for call in CALLS)
                return [[values[c] for c in classes] for values in by_class]

        else:

            def rows(entry: Callable[[RMACall, int, int], float]) -> List[List[float]]:
                return [[entry(call, o, t) for o in ranks for t in ranks] for call in CALLS]

        self.cost: List[List[float]] = rows(lambda call, o, t: model.cost(call, machine, o, t))
        self.occupancy: List[List[float]] = rows(model.occupancy)
        self.node_of: Tuple[int, ...] = tuple(machine.node_of(r) for r in ranks)


@lru_cache(maxsize=64)
def _cached_cost_table(model: "LatencyModel", machine: Machine) -> CostTable:
    return CostTable(model, machine)


def cost_table(model: "LatencyModel", machine: Machine) -> CostTable:
    """Build (or fetch from cache) the :class:`CostTable` for a model/machine.

    Models are frozen dataclasses and therefore hashable; unhashable custom
    subclasses simply skip the cache.
    """
    try:
        return _cached_cost_table(model, machine)
    except TypeError:  # unhashable custom model/machine
        return CostTable(model, machine)
