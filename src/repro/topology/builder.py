"""Convenience builders for machines used throughout the evaluation.

The paper evaluates on Piz Daint (Cray XC30) with 16 MPI processes per
compute node and considers two hierarchy levels (machine and nodes,
Section 5 "Machine Model").  These helpers construct equivalent simulated
machines for a requested total process count, and the three-level variant
from Figure 2 for topology experiments.
"""

from __future__ import annotations

from functools import lru_cache
from repro.topology.machine import Machine

__all__ = ["cached_machine", "xc30_like", "figure2_machine"]

#: Processes per compute node used by the paper (one per HT resource).
XC30_PROCS_PER_NODE = 16


def xc30_like(num_processes: int, procs_per_node: int = XC30_PROCS_PER_NODE) -> Machine:
    """A two-level machine (machine -> nodes) with the paper's node width.

    When ``num_processes`` is smaller than a full node the machine collapses
    to a single node hosting exactly ``num_processes`` ranks, matching how the
    paper's intra-node data points behave (P <= 16).
    """
    if num_processes < 1:
        raise ValueError("num_processes must be >= 1")
    if procs_per_node < 1:
        raise ValueError("procs_per_node must be >= 1")
    if num_processes <= procs_per_node:
        return Machine.cluster(nodes=1, procs_per_node=num_processes)
    if num_processes % procs_per_node != 0:
        raise ValueError(
            f"num_processes ({num_processes}) must be a multiple of procs_per_node "
            f"({procs_per_node}) once it exceeds one node"
        )
    return Machine.cluster(nodes=num_processes // procs_per_node, procs_per_node=procs_per_node)


@lru_cache(maxsize=128)
def cached_machine(
    num_processes: int,
    procs_per_node: int = XC30_PROCS_PER_NODE,
    topology: str = "xc30",
) -> Machine:
    """Memoized machine construction, shared by the sweeps.

    :class:`~repro.topology.machine.Machine` is a frozen dataclass, so one
    instance per ``(procs, procs_per_node, topology)`` can safely be shared by
    every benchmark configuration of a sweep; the campaign executor, the
    figure drivers and the ledger all route machine construction through
    this memo instead of rebuilding the same hierarchy per data point.

    The memo is LRU-bounded: a long-lived process sweeping many distinct
    topologies (the traffic engine's scheme x scenario x P grids, notebook
    sessions) must not grow machine objects without limit.  128 entries cover
    every sweep in the repository many times over while keeping the perf
    benefit — a bounded miss only re-runs a cheap constructor.
    """
    if topology == "xc30":
        return xc30_like(num_processes, procs_per_node=procs_per_node)
    if topology == "figure2":
        machine = figure2_machine(procs_per_node=procs_per_node)
        if machine.num_processes != num_processes:
            raise ValueError(
                f"figure2 topology with procs_per_node={procs_per_node} has "
                f"{machine.num_processes} processes, not the requested {num_processes}"
            )
        return machine
    raise ValueError(f"unknown topology {topology!r}; expected 'xc30' or 'figure2'")


def figure2_machine(procs_per_node: int = 6) -> Machine:
    """The three-level example machine of Figure 2: 2 racks x 2 nodes."""
    return Machine(fanouts=(2, 2), procs_per_leaf=procs_per_node)
