"""Fault subsystem: seeded crashes, recovery protocols, and crash oracles.

The package splits into four layers:

* :mod:`repro.fault.plan` — the injection side: :class:`FaultPlan` describes
  seeded rank kills (and optional restarts) in virtual time; every
  deterministic runtime accepts one via ``fault_plan=`` and honors it
  bit-reproducibly, identically on repeat runs and the reference interpreter.
* :mod:`repro.fault.lease_lock` / :mod:`repro.fault.repair_mcs` — the
  recovery side: a lease lock with epoch-fenced release, and an MCS queue
  that splices dead waiters out (plus its intentionally racy mutant, one of
  the explorer's ``KNOWN_MUTANTS``).  All three are ordinary registry schemes.
* :mod:`repro.fault.observers` — :class:`TimelineObserver`, the probe
  observer the fault sweep uses to place kills inside real hold/wait windows.
* :mod:`repro.fault.traffic` — the ``traffic-crash`` traffic scenario: a
  single-lock open-loop service, run on the one open-loop client, and
  :func:`~repro.fault.traffic.crash_traffic_summary`, which reports a
  faulted run's availability and recovery-time percentiles.

The recovery-safety oracles live with the other live oracles in
:mod:`repro.verification.oracles` (:class:`~repro.verification.oracles.\
RecoveryOracleObserver`); the sweep driving all of this is
:mod:`repro.bench.faults` (CLI: ``repro faults``).  The mutant is not swept:
``repro verify`` explores its declared crashes at every kill timing and
passes it only if it finds the orphaned racer.
"""

from repro.fault.observers import TimelineObserver
from repro.fault.plan import (
    FAULT_SCENARIOS,
    FaultPlan,
    LockTimeout,
    RankFault,
    RecoveryInfo,
    declare_recovery,
    fault_rng,
    recovery_info,
)
from repro.rma.runtime_base import FaultHorizonError

__all__ = [
    "FAULT_SCENARIOS",
    "FaultHorizonError",
    "FaultPlan",
    "LockTimeout",
    "RankFault",
    "RecoveryInfo",
    "TimelineObserver",
    "declare_recovery",
    "fault_rng",
    "recovery_info",
]
