"""Lock implementations: the paper's contribution (RMA-RW, RMA-MCS) and its baselines."""

from repro.core.baselines import (
    FompiRWLockHandle,
    FompiRWLockSpec,
    FompiSpinLockHandle,
    FompiSpinLockSpec,
)
from repro.core.constants import (
    ACQUIRE_START,
    NULL_RANK,
    STATUS_ACQUIRE_PARENT,
    STATUS_MODE_CHANGE,
    STATUS_WAIT,
    WRITE_FLAG,
)
from repro.core.counter import DistributedCounterHandle, DistributedCounterSpec
from repro.core.dmcs import DMCSLockHandle, DMCSLockSpec
from repro.core.instrumentation import LocalityReport, locality_report
from repro.core.layout import LayoutAllocator, Region
from repro.core.lock_base import LockHandle, LockSpec, RWLockHandle, RWLockSpec
from repro.core.rma_mcs import RMAMCSLockHandle, RMAMCSLockSpec
from repro.core.rma_rw import RMARWLockHandle, RMARWLockSpec
from repro.core.tree import TreeLayout, normalize_locality_thresholds

__all__ = [
    "ACQUIRE_START",
    "DMCSLockHandle",
    "DMCSLockSpec",
    "LocalityReport",
    "locality_report",
    "DistributedCounterHandle",
    "DistributedCounterSpec",
    "FompiRWLockHandle",
    "FompiRWLockSpec",
    "FompiSpinLockHandle",
    "FompiSpinLockSpec",
    "LayoutAllocator",
    "LockHandle",
    "LockSpec",
    "NULL_RANK",
    "RMAMCSLockHandle",
    "RMAMCSLockSpec",
    "RMARWLockHandle",
    "RMARWLockSpec",
    "RWLockHandle",
    "RWLockSpec",
    "Region",
    "STATUS_ACQUIRE_PARENT",
    "STATUS_MODE_CHANGE",
    "STATUS_WAIT",
    "TreeLayout",
    "WRITE_FLAG",
    "normalize_locality_thresholds",
]
