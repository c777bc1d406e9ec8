"""RMA substrate: windows, the Listing-1 call set, latency model and runtimes.

The one runtime, ``"horizon"`` (:class:`SimRuntime`), self-registers with
the :mod:`repro.api` runtime registry at import, so the benchmark harness,
the sweep engines and ``Cluster(runtime=...)`` resolve it by name;
third-party backends join the same catalogue via
``@repro.api.register_runtime``.
"""

from repro.rma.fabric import FabricContentionModel
from repro.rma.latency import CostTable, LatencyModel, cost_table
from repro.rma.ops import AtomicOp, RMACall
from repro.rma.portability import (
    PORTABILITY_TABLE,
    PortabilityEntry,
    environments,
    operations,
    supports_all_required_ops,
)
from repro.rma.runtime_base import (
    Cell,
    ProcessContext,
    RMARuntime,
    RunResult,
    RuntimeError_,
    SimDeadlockError,
)
from repro.rma.sim_runtime import SimProcessContext, SimRuntime
from repro.rma.window import Window

__all__ = [
    "AtomicOp",
    "Cell",
    "CostTable",
    "FabricContentionModel",
    "LatencyModel",
    "cost_table",
    "PORTABILITY_TABLE",
    "PortabilityEntry",
    "ProcessContext",
    "RMACall",
    "environments",
    "operations",
    "supports_all_required_ops",
    "RMARuntime",
    "RunResult",
    "RuntimeError_",
    "SimDeadlockError",
    "SimProcessContext",
    "SimRuntime",
    "Window",
]
