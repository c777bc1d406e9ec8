"""Model checking and live oracles for the lock protocols (Section 4.4).

The package covers both halves of the paper's verification story — and the
half the paper could not do, checking the *running implementations*:

* :mod:`repro.verification.interleaving` — the explicit-state model checker
  (the offline SPIN stand-in): exhaustive DFS over every interleaving of a
  reduced protocol model, reporting safety violations and deadlocks.
* :mod:`repro.verification.lock_models` — hand-reduced PROMELA-style models
  (MCS queue, the RW counter root, broken/deadlocking negative controls).
* :mod:`repro.verification.impl_model` — the model *generated from*
  :mod:`repro.core.rma_rw`'s writer/reader acquire paths: one transition per
  RMA call, constants and thresholds taken from the real spec.  Exhaustively
  checked at P = 2-3 by the test-suite; this model found the counter-reset
  race that :meth:`repro.core.counter.DistributedCounterHandle.reset_counter`
  now documents and fixes.
* :mod:`repro.verification.fairness` — bounded-bypass (starvation) analysis
  over all interleavings of a model, plus fairness-annotated model factories.
* :mod:`repro.verification.oracles` — *live* oracles over real executions:
  the runtime observer hook, the acquire/release handle wrappers, and the
  :class:`~repro.verification.oracles.LockOracleObserver` that checks mutual
  exclusion, handoff sanity, reader coexistence and the registry-declared
  bypass bounds while a scheme runs inside the deterministic simulator.
  ``repro conform`` (:mod:`repro.bench.conformance`) sweeps these oracles
  over every registered scheme under seeded schedule perturbation
  (:mod:`repro.rma.perturbation`).

The fault subsystem (:mod:`repro.fault`, README section "Failure &
recovery") extends both halves: crash transitions join the impl models
(:func:`~repro.verification.impl_model.lease_impl_model`,
:func:`~repro.verification.impl_model.repair_queue_impl_model` — virtual
crash/expiry processes let the checker enumerate every crash timing at
P = 2-3), and the live side gains the
:class:`~repro.verification.oracles.RecoveryOracleObserver`, whose
recovery-safety oracles (no double grant inside a live lease, fenced stale
releases, recovery-latency accounting) ``repro faults``
(:mod:`repro.bench.faults`) sweeps over every registered scheme under
seeded rank crashes.
"""

from repro.verification.fairness import (
    BypassAnalyzer,
    BypassResult,
    FairnessSpec,
    mcs_fairness,
    tas_fairness,
    ticket_fairness,
)
from repro.verification.impl_model import (
    alock_impl_model,
    lease_impl_model,
    lock_server_impl_model,
    repair_queue_impl_model,
    rma_rw_impl_model,
)
from repro.verification.interleaving import (
    CheckResult,
    ModelChecker,
    StateExplosionError,
)
from repro.verification.lock_models import (
    ModelSpec,
    broken_test_and_set_model,
    build_checker,
    dining_deadlock_model,
    mcs_model,
    rw_counter_model,
)
from repro.verification.oracles import (
    LockOracleObserver,
    ObservedLock,
    ObservedRWLock,
    OracleReport,
    OracleViolation,
    RecoveryOracleObserver,
    RecoveryReport,
    RunObserver,
    observe_lock,
)

__all__ = [
    "BypassAnalyzer",
    "BypassResult",
    "CheckResult",
    "FairnessSpec",
    "LockOracleObserver",
    "ModelChecker",
    "ModelSpec",
    "ObservedLock",
    "ObservedRWLock",
    "OracleReport",
    "OracleViolation",
    "RecoveryOracleObserver",
    "RecoveryReport",
    "RunObserver",
    "StateExplosionError",
    "alock_impl_model",
    "broken_test_and_set_model",
    "build_checker",
    "dining_deadlock_model",
    "lease_impl_model",
    "lock_server_impl_model",
    "mcs_fairness",
    "mcs_model",
    "observe_lock",
    "repair_queue_impl_model",
    "rma_rw_impl_model",
    "rw_counter_model",
    "tas_fairness",
    "ticket_fairness",
]
