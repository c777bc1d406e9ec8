"""Distributed hashtable case study (Section 5.3 of the paper)."""

from repro.dht.distributions import DISTRIBUTIONS, KeyDistribution
from repro.dht.hashtable import DHTFullError, DHTHandle, DHTSpec
from repro.dht.striped_lock import StripedRWLockHandle, StripedRWLockSpec

#: Figure-6 workload names resolved lazily from :mod:`repro.dht.workload`
#: (PEP 562): the scheme registry imports ``repro.dht.striped_lock``, and that
#: must not pull in the benchmark workload.
_WORKLOAD_EXPORTS = frozenset(
    {"ACCESS_PATTERNS", "DHTBenchOutcome", "DHTWorkloadConfig", "build_dht_setup", "run_dht_benchmark"}
)


def __getattr__(name):
    if name in _WORKLOAD_EXPORTS:
        from repro.dht import workload

        return getattr(workload, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | _WORKLOAD_EXPORTS)


__all__ = [
    "ACCESS_PATTERNS",
    "DISTRIBUTIONS",
    "DHTBenchOutcome",
    "DHTFullError",
    "DHTHandle",
    "DHTSpec",
    "DHTWorkloadConfig",
    "KeyDistribution",
    "StripedRWLockHandle",
    "StripedRWLockSpec",
    "build_dht_setup",
    "run_dht_benchmark",
]
