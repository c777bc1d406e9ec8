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

Crashes are explored by the same checker: with ``crash="holder-crash"`` or
``"waiter-crash"`` the explorer kills one rank at every moment the scenario
allows, answers ``ctx.fault.dead_at`` from the run's dead set and lets lease
time pass for a dead holder, so the recovery protocols of :mod:`repro.fault`
(README section "Failure & recovery") are checked as written, judged by the
:class:`~repro.verification.oracles.RecoveryOracleObserver`.  Its
recovery-safety oracles (no double grant inside a live lease, fenced stale
releases, recovery-latency accounting) are what ``repro faults``
(:mod:`repro.bench.faults`) sweeps over every registered scheme under seeded
rank crashes.
"""

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
    "LockOracleObserver",
    "ObservedLock",
    "ObservedRWLock",
    "OracleReport",
    "OracleViolation",
    "RecoveryOracleObserver",
    "RecoveryReport",
    "RunObserver",
    "observe_lock",
]
