"""Hand-off locality: how often a lock stays on one compute node.

The benefit of the topology-aware locks comes from *where* consecutive
critical sections run: the more often the lock is passed between processes of
the same compute node, the less inter-node traffic is paid.  This module
analyses a run's grant sequence — the ranks that entered the critical
section, in order — for that hand-off locality.

The grant sequence comes from a run observer, not from the lock: wrap any
mutual-exclusion handle with :func:`repro.verification.oracles.observe_lock`
and read the ranks off :attr:`repro.fault.TimelineObserver.holds`, whose
holds close in grant order under mutual exclusion.  The observer issues no
RMA calls, so the run it watches is the unobserved one;
``repro figures ablation-handoff`` is built this way.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.topology.machine import Machine

__all__ = [
    "LocalityReport",
    "locality_report",
]


@dataclass(frozen=True)
class LocalityReport:
    """Summary of a recorded grant sequence."""

    recorded_grants: int
    transitions: int
    same_node_transitions: int

    @property
    def node_locality(self) -> float:
        """Fraction of consecutive grants that stayed on the same compute node."""
        if self.transitions == 0:
            return 1.0
        return self.same_node_transitions / self.transitions


def locality_report(machine: Machine, grants: Sequence[int]) -> LocalityReport:
    """Analyse a grant sequence: how often consecutive grants stayed on one node."""
    grants = [int(g) for g in grants if g >= 0]
    return LocalityReport(
        recorded_grants=len(grants),
        transitions=max(0, len(grants) - 1),
        same_node_transitions=sum(machine.same_node(a, b) for a, b in zip(grants, grants[1:])),
    )
