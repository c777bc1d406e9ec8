"""Machine hierarchy model and the mappings ``e(p, i)``, ``c(p)``, ``tail_rank[i, j]``."""

from repro.topology.builder import figure2_machine, xc30_like
from repro.topology.dragonfly import DragonflyTopology
from repro.topology.machine import Machine, MachineLevel
from repro.topology.mapping import CounterPlacement, counter_rank, counter_ranks

__all__ = [
    "CounterPlacement",
    "DragonflyTopology",
    "Machine",
    "MachineLevel",
    "counter_rank",
    "counter_ranks",
    "figure2_machine",
    "xc30_like",
]
