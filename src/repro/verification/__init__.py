"""Model checking and live oracles for the lock protocols (Section 4.4).

The package covers both halves of the paper's verification story, on the
code that runs:

* :mod:`repro.verification.explorer` — the model checker (the offline SPIN
  stand-in): a stateless depth-first search over every interleaving of a
  registered scheme's own ``*_steps`` generators, with sequentially
  consistent windows, judged by the live oracles below plus deadlock
  freedom.  Import it from its module: the package does not load it, so the
  live sweeps that import the oracles do not pay for it.  ``repro verify`` runs it over the whole registry, so a
  third-party ``@register_scheme`` lock is checked too.  Patched with the
  seed port's counter reset, it finds the reader/writer race that
  :meth:`repro.core.counter.DistributedCounterHandle.reset_counter_steps`
  documents and fixes.
* :mod:`repro.verification.oracles` — *live* oracles over real executions:
  the runtime observer hook, the acquire/release handle wrappers, and the
  :class:`~repro.verification.oracles.LockOracleObserver` that checks mutual
  exclusion, handoff sanity, reader coexistence and the registry-declared
  bypass bounds.  The explorer attaches it to every interleaving; ``repro
  conform`` (:mod:`repro.bench.conformance`) sweeps it over every registered
  scheme under seeded schedule perturbation (:mod:`repro.rma.perturbation`).
* :mod:`repro.verification.interleaving` — an explicit-state checker for
  hand-written models, with the two negative controls of
  :mod:`repro.verification.lock_models` (a broken test-and-set, a dining
  deadlock).

Crashes are the one thing the explorer does not enumerate.  The fault
subsystem (:mod:`repro.fault`, README section "Failure & recovery") keeps two
hand-written crash models for it
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

from repro.verification.impl_model import lease_impl_model, repair_queue_impl_model
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
    "CheckResult",
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
    "broken_test_and_set_model",
    "build_checker",
    "dining_deadlock_model",
    "lease_impl_model",
    "observe_lock",
    "repair_queue_impl_model",
]
