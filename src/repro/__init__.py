"""repro — reproduction of "High-Performance Distributed RMA Locks" (HPDC'16).

The package implements the paper's topology-aware distributed Reader-Writer
lock (RMA-RW) and MCS lock (RMA-MCS), the distributed MCS building block
(D-MCS), centralized baselines standing in for foMPI's locks, a distributed
hashtable case study, and the RMA substrate (windows, atomics, latency model
and runtimes) everything runs on.

Quickstart::

    from repro import Machine, SimRuntime, RMARWLockSpec

    machine = Machine.cluster(nodes=4, procs_per_node=8)
    spec = RMARWLockSpec(machine, t_dc=8, t_l=(4, 4), t_r=64)
    runtime = SimRuntime(machine, window_words=spec.window_words)

    def program(ctx):
        lock = spec.make(ctx)
        ctx.barrier()
        if ctx.rank == 0:
            with lock.writing():
                ...            # exclusive critical section
        else:
            with lock.reading():
                ...            # shared critical section

    result = runtime.run(program, window_init=spec.init_window)
"""

from repro.core import (
    DMCSLockSpec,
    DistributedCounterSpec,
    FompiRWLockSpec,
    FompiSpinLockSpec,
    LayoutAllocator,
    LockHandle,
    LockSpec,
    RMAMCSLockSpec,
    RMARWLockSpec,
    RWLockHandle,
    RWLockSpec,
)
from repro.related import (
    CohortTicketLockSpec,
    HBOLockSpec,
    NumaRWLockSpec,
    TicketLockSpec,
)
from repro.rma import (
    AtomicOp,
    LatencyModel,
    ProcessContext,
    RMACall,
    RunResult,
    SimDeadlockError,
    SimRuntime,
    Window,
)
from repro.topology import CounterPlacement, Machine, figure2_machine, xc30_like

__version__ = "0.1.0"

#: Public-API names resolved lazily from :mod:`repro.api` (PEP 562), so that
#: ``from repro import Cluster`` works without the base package paying the
#: import cost of the benchmark harness.
_API_EXPORTS = frozenset(
    {
        "Cluster",
        "ClusterLock",
        "Session",
        "ParamSpec",
        "UnknownNameError",
        "register_benchmark",
        "register_runtime",
        "register_scheme",
    }
)


def __getattr__(name):
    if name in _API_EXPORTS:
        import repro.api as _api

        return getattr(_api, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | _API_EXPORTS)

__all__ = [
    "AtomicOp",
    "Cluster",
    "ClusterLock",
    "CohortTicketLockSpec",
    "CounterPlacement",
    "DMCSLockSpec",
    "DistributedCounterSpec",
    "FompiRWLockSpec",
    "FompiSpinLockSpec",
    "HBOLockSpec",
    "LatencyModel",
    "LayoutAllocator",
    "LockHandle",
    "LockSpec",
    "Machine",
    "NumaRWLockSpec",
    "ParamSpec",
    "ProcessContext",
    "RMACall",
    "RMAMCSLockSpec",
    "RMARWLockSpec",
    "RWLockHandle",
    "RWLockSpec",
    "RunResult",
    "Session",
    "SimDeadlockError",
    "SimRuntime",
    "TicketLockSpec",
    "UnknownNameError",
    "Window",
    "figure2_machine",
    "register_benchmark",
    "register_runtime",
    "register_scheme",
    "xc30_like",
    "__version__",
]
