"""Live safety/fairness oracles over real lock executions.

:mod:`repro.verification.interleaving` checks *abstract* protocol models; the
classes here check the *real* scheme implementations while they run inside a
deterministic simulator.  The pieces:

* :class:`RunObserver` — the runtime observer hook.  Both deterministic
  simulators accept an ``observer=``; they call :meth:`~RunObserver.on_run_start`
  when ``run()`` installs its per-run state (so observer state always resets
  across ``run()`` re-entry) and :meth:`~RunObserver.on_run_end` when a run
  drains cleanly.  The per-rank contexts additionally report every remote
  atomic read-modify-write via :meth:`~RunObserver.on_rmw`.
* :class:`ObservedLock` / :class:`ObservedRWLock` — transparent handle
  wrappers (the :class:`~repro.core.instrumentation.InstrumentedLock` pattern)
  that report ``wait_start``/``acquired``/``released`` events at the
  acquire/release instrumentation points.  They issue **no RMA calls** of
  their own, so an observed run's :class:`~repro.rma.runtime_base.RunResult`
  is bit-identical to an unobserved one.
* :class:`LockOracleObserver` — the live oracle set.  Events arrive in the
  simulator's canonical execution order (exactly one rank runs at a time), so
  the oracles check the *simulated interleaving itself*:

  - **mutual exclusion** — never two writers, never a writer with a reader;
  - **handoff sanity** — acquires and releases stay balanced per rank, no
    re-entrant acquire, release mode matches the acquire mode (the
    queue-discipline errors MCS-family bugs produce);
  - **reader coexistence** — the maximum number of concurrently admitted
    readers is recorded (an RW scheme that never lets readers share the CS
    has lost the point of being an RW lock);
  - **progress/starvation** — the bounded-bypass count of
    :mod:`repro.verification.fairness`, evaluated against the real execution
    trace: a waiter's bypass counter starts at its first remote atomic RMW
    inside ``acquire`` (the FIFO ordering point: the ticket draw / the tail
    swap) and counts foreign critical-section entries until it is granted
    the lock.  Schemes that declare a bound in the registry
    (``register_scheme(..., fairness_bound=...)``) are gated against it;
    for all others the observed maximum is reported as data.

Deadlock and livelock detection stay with the runtime (the structural
no-runnable-rank check, the wall-clock watchdog and ``max_ops``); the
conformance engine (:mod:`repro.bench.conformance`) turns those aborts into
oracle verdicts alongside the violations collected here.

The oracles survive the adaptive control plane's mutations: a scheme swap,
an elastic resize (:mod:`repro.scale.elastic`) or a hot-key re-homing
(:mod:`repro.scale.rehome`) rebuilds the affected table entries' handles at
a phase boundary, and the table re-wraps every rebuilt handle in
:class:`ObservedLock`/:class:`ObservedRWLock` before the next request
touches it — so acquire/release event streams (and therefore the mutual
exclusion and handoff checks) stay continuous across versioned reinstalls,
with the same per-rank balance ledgers carried over.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.core.lock_base import LockHandle, RWLockHandle
from repro.rma.ops import RMACall
from repro.rma.runtime_base import ProcessContext, Steps

__all__ = [
    "LockOracleObserver",
    "MODE_READ",
    "MODE_WRITE",
    "ObservedLock",
    "ObservedRWLock",
    "OracleReport",
    "OracleViolation",
    "RecoveryOracleObserver",
    "RecoveryReport",
    "RunObserver",
    "observe_lock",
]

MODE_WRITE = "write"
MODE_READ = "read"


class RunObserver:
    """Base observer: every hook is a no-op.

    Subclasses override what they need; the runtimes only require this
    interface.  Implementations must not issue RMA calls or touch runtime
    state — observers watch, they never steer (that is what keeps observed
    runs bit-identical to unobserved ones).
    """

    def on_run_start(self, nranks: int) -> None:
        """A run is installing fresh state; reset all observer state."""

    def on_run_end(self) -> None:
        """The run drained cleanly (not called when a run aborts)."""

    def on_rmw(self, rank: int, call: RMACall) -> None:
        """``rank`` completed a remote atomic RMW (FAO/CAS)."""

    def wait_start(self, rank: int, mode: str, t: float) -> None:
        """``rank`` entered ``acquire`` and is about to compete for the lock."""

    def acquired(self, rank: int, mode: str, t: float) -> None:
        """``rank``'s ``acquire`` returned: it is inside the critical section."""

    def released(self, rank: int, mode: str, t: float) -> None:
        """``rank`` is about to run ``release`` (still inside the CS)."""

    # -- fault hooks (only fired on runs with a repro.fault.FaultPlan) ----- #

    def on_crash(self, rank: int, t: float) -> None:
        """``rank`` was killed by the fault plan at virtual time ``t``."""

    def on_restart(self, rank: int, t: float) -> None:
        """``rank`` was revived at virtual time ``t`` (re-runs its program)."""

    def on_lease(self, rank: int, deadline_us: float) -> None:
        """``rank`` acquired a leased lock valid until ``deadline_us``.

        Reported by lease-based schemes right after installing their lock
        word, so recovery oracles can judge takeover legality against the
        exact deadline instead of reconstructing it.
        """

    def on_fenced_release(self, rank: int) -> None:
        """``rank``'s stale release was rejected by the lock's fencing."""


@dataclass(frozen=True)
class OracleViolation:
    """One oracle failure, tied to the event that exposed it."""

    oracle: str
    rank: int
    t: float
    detail: str

    def __str__(self) -> str:  # pragma: no cover - formatting convenience
        return f"[{self.oracle}] rank {self.rank} at t={self.t:.2f}us: {self.detail}"


@dataclass
class OracleReport:
    """Aggregated verdict of one observed run."""

    violations: List[OracleViolation] = field(default_factory=list)
    acquires: int = 0
    releases: int = 0
    write_acquires: int = 0
    read_acquires: int = 0
    max_concurrent_readers: int = 0
    max_bypass: int = 0
    bypass_bound: Optional[int] = None
    runs_observed: int = 0

    @property
    def ok(self) -> bool:
        return not self.violations

    def summary(self) -> Dict[str, Any]:
        """JSON-able condensed form (conformance rows, CI artifacts)."""
        return {
            "ok": self.ok,
            "violations": [str(v) for v in self.violations],
            "acquires": self.acquires,
            "write_acquires": self.write_acquires,
            "read_acquires": self.read_acquires,
            "max_concurrent_readers": self.max_concurrent_readers,
            "max_bypass": self.max_bypass,
            "bypass_bound": self.bypass_bound,
        }


class LockOracleObserver(RunObserver):
    """The live oracle set described in the module docstring.

    One instance observes one run at a time; :meth:`on_run_start` resets every
    per-run structure, so a single observer can be installed on a runtime and
    reused across ``run()`` invocations (including after a failed run).

    Args:
        bypass_bound: Maximum foreign CS entries a waiter may see between its
            ordering RMW and its grant, or ``None`` to only record the
            observed maximum (schemes without a FIFO guarantee).
        max_violations: Stop recording after this many violations (a broken
            lock under a long run would otherwise flood the report).
    """

    def __init__(self, *, bypass_bound: Optional[int] = None, max_violations: int = 32):
        if max_violations < 1:
            raise ValueError("max_violations must be >= 1")
        self.bypass_bound = bypass_bound
        self.max_violations = int(max_violations)
        self._report = OracleReport(bypass_bound=bypass_bound)
        self.on_run_start(0)

    # ------------------------------------------------------------------ #
    # RunObserver hooks
    # ------------------------------------------------------------------ #

    def on_run_start(self, nranks: int) -> None:
        runs = getattr(self, "_report", None)
        previous_runs = runs.runs_observed if runs is not None else 0
        self._report = OracleReport(
            bypass_bound=self.bypass_bound, runs_observed=previous_runs + 1
        )
        #: rank -> mode for every rank currently inside the CS.
        self._holders: Dict[int, str] = {}
        self._readers_in = 0
        self._writers_in = 0
        #: Total CS entries so far (the bypass clock of fairness.py).
        self._entries = 0
        #: rank -> entries counter value at its ordering point (or at
        #: wait_start until the first RMW of the attempt is seen).
        self._wait_baseline: Dict[int, int] = {}
        #: ranks whose current attempt has already passed its ordering RMW.
        self._ordered: Dict[int, bool] = {}

    def on_run_end(self) -> None:
        for rank, mode in sorted(self._holders.items()):
            self._violate(
                "handoff", rank, 0.0,
                f"run finished while rank {rank} still holds the lock ({mode})",
            )
        for rank in sorted(self._wait_baseline):
            self._violate(
                "handoff", rank, 0.0,
                f"run finished while rank {rank} is still waiting in acquire()",
            )

    def on_rmw(self, rank: int, call: RMACall) -> None:
        # The first remote atomic RMW of a pending acquire is the protocol's
        # ordering point (ticket draw / MCS tail swap): from here on a FIFO
        # scheme owes the waiter its bounded-bypass guarantee, regardless of
        # how long perturbation stalls it afterwards.
        if rank in self._wait_baseline and not self._ordered.get(rank, False):
            self._ordered[rank] = True
            self._wait_baseline[rank] = self._entries

    # ------------------------------------------------------------------ #
    # Lock events (from the ObservedLock wrappers)
    # ------------------------------------------------------------------ #

    def wait_start(self, rank: int, mode: str, t: float) -> None:
        if rank in self._holders:
            self._violate(
                "handoff", rank, t,
                f"re-entrant acquire ({mode}) while already holding the lock "
                f"({self._holders[rank]})",
            )
            return
        if rank in self._wait_baseline:
            self._violate("handoff", rank, t, "second acquire() before the first returned")
            return
        self._wait_baseline[rank] = self._entries
        self._ordered[rank] = False

    def acquired(self, rank: int, mode: str, t: float) -> None:
        report = self._report
        baseline = self._wait_baseline.pop(rank, None)
        self._ordered.pop(rank, None)
        if baseline is not None:
            bypass = self._entries - baseline
            if bypass > report.max_bypass:
                report.max_bypass = bypass
            if self.bypass_bound is not None and bypass > self.bypass_bound:
                self._violate(
                    "fairness", rank, t,
                    f"bypassed {bypass} times while waiting (declared bound "
                    f"{self.bypass_bound})",
                )
        if rank in self._holders:
            self._violate("handoff", rank, t, "acquired the lock it already holds")
            return
        if mode == MODE_WRITE:
            if self._writers_in or self._readers_in:
                self._violate(
                    "mutual-exclusion", rank, t,
                    f"writer entered with {self._writers_in} writer(s) and "
                    f"{self._readers_in} reader(s) inside",
                )
            self._writers_in += 1
            report.write_acquires += 1
        else:
            if self._writers_in:
                self._violate(
                    "mutual-exclusion", rank, t,
                    f"reader entered while {self._writers_in} writer(s) inside",
                )
            self._readers_in += 1
            report.read_acquires += 1
            if self._readers_in > report.max_concurrent_readers:
                report.max_concurrent_readers = self._readers_in
        self._holders[rank] = mode
        self._entries += 1
        report.acquires += 1

    def released(self, rank: int, mode: str, t: float) -> None:
        held = self._holders.pop(rank, None)
        if held is None:
            self._violate("handoff", rank, t, f"release ({mode}) without holding the lock")
            return
        if held != mode:
            self._violate(
                "handoff", rank, t, f"acquired as {held} but released as {mode}"
            )
        if held == MODE_WRITE:
            self._writers_in -= 1
        else:
            self._readers_in -= 1
        self._report.releases += 1

    # ------------------------------------------------------------------ #
    # Verdict
    # ------------------------------------------------------------------ #

    def report(self) -> OracleReport:
        """The current run's verdict (valid once the run completed)."""
        return self._report

    def _violate(self, oracle: str, rank: int, t: float, detail: str) -> None:
        if len(self._report.violations) < self.max_violations:
            self._report.violations.append(
                OracleViolation(oracle=oracle, rank=rank, t=float(t), detail=detail)
            )


# --------------------------------------------------------------------------- #
# Recovery oracles (crash / lease / fencing safety)
# --------------------------------------------------------------------------- #

@dataclass
class RecoveryReport(OracleReport):
    """An :class:`OracleReport` extended with crash-recovery accounting."""

    crashes: int = 0
    restarts: int = 0
    #: Crashes that killed a rank *while it held the lock* — the sweep engine
    #: uses this to confirm a holder-crash scenario actually manifested (a
    #: kill landing a microsecond late hits the victim after its release).
    holder_deaths: int = 0
    #: Crashes that killed a rank between ``wait_start`` and ``acquired``.
    waiter_deaths: int = 0
    fenced_releases: int = 0
    #: Live-but-expired holders revoked by a legal lease takeover.
    expired_takeovers: int = 0
    #: Per-recovery latency samples: takeover time minus holder crash time.
    recovery_us: List[float] = field(default_factory=list)

    def summary(self) -> Dict[str, Any]:
        out = super().summary()
        out.update(
            {
                "crashes": self.crashes,
                "restarts": self.restarts,
                "holder_deaths": self.holder_deaths,
                "waiter_deaths": self.waiter_deaths,
                "fenced_releases": self.fenced_releases,
                "expired_takeovers": self.expired_takeovers,
                "recovery_us": [round(v, 3) for v in self.recovery_us],
            }
        )
        return out


class RecoveryOracleObserver(LockOracleObserver):
    """Recovery-safety oracles layered on the base lock oracles.

    Extends :class:`LockOracleObserver` with the three crash-safety checks of
    the fault sweep (:mod:`repro.bench.faults`):

    - **no double grant** — after a *holder* crash, the lock may only be
      re-granted once the crashed hold's lease deadline has passed; a grant
      before that is a double grant inside a live lease.  A crashed hold with
      no lease at all can never legally be re-granted (a scheme without
      leases has no way to distinguish a dead holder from a slow one).
    - **fenced release** — a holder whose lease expired and whose lock was
      taken over must have its late ``release`` *rejected*.  The takeover is
      recorded as a revocation (not a mutual-exclusion violation); the stale
      holder's subsequent release is held pending and must be confirmed by
      :meth:`on_fenced_release` before the rank's next lock event — a stale
      release that silently wrote the lock word is a fencing violation.
    - **recovery accounting** — crash/restart/fence counts and per-recovery
      latency samples (takeover time minus crash time) for the availability
      report of the traffic-crash scenario.

    Holder crashes are *not* handoff violations: :meth:`on_crash` retires the
    dead rank's hold and wait state so the base oracles keep judging the
    survivors only.

    Args:
        lease_us: Fallback lease term for schemes that do not announce exact
            deadlines via :meth:`RunObserver.on_lease`; ``None`` means the
            scheme has no lease (any post-crash re-grant is then a violation).
        bypass_bound, max_violations: See :class:`LockOracleObserver`.
    """

    def __init__(
        self,
        *,
        lease_us: Optional[float] = None,
        bypass_bound: Optional[int] = None,
        max_violations: int = 32,
    ):
        self.lease_us = lease_us
        super().__init__(bypass_bound=bypass_bound, max_violations=max_violations)

    def on_run_start(self, nranks: int) -> None:
        super().on_run_start(nranks)
        base = self._report
        self._report = RecoveryReport(
            bypass_bound=base.bypass_bound, runs_observed=base.runs_observed
        )
        #: dead rank -> {"mode", "deadline", "t"} for holds orphaned by a crash.
        self._crashed_holds: Dict[int, Dict[str, Any]] = {}
        #: current holder -> exact lease deadline (if the scheme announced one).
        self._lease_deadline: Dict[int, float] = {}
        #: deadlines announced by on_lease before the acquired event lands.
        self._announced: Dict[int, float] = {}
        #: live holders revoked by an expired-lease takeover (await fencing).
        self._revoked: Dict[int, str] = {}
        #: rank -> (mode, t) stale releases awaiting their fence confirmation.
        self._pending_fence: Dict[int, Any] = {}

    # ------------------------------------------------------------------ #
    # Fault hooks
    # ------------------------------------------------------------------ #

    def on_crash(self, rank: int, t: float) -> None:
        self._report.crashes += 1
        if rank in self._wait_baseline:
            self._report.waiter_deaths += 1
        mode = self._holders.pop(rank, None)
        if mode is not None:
            self._report.holder_deaths += 1
            if mode == MODE_WRITE:
                self._writers_in -= 1
            else:
                self._readers_in -= 1
            self._crashed_holds[rank] = {
                "mode": mode,
                "deadline": self._lease_deadline.pop(rank, None),
                "t": t,
            }
        # A dead waiter stops competing; a dead rank can no longer confirm a
        # pending fence (the kill may land between the CAS and the report),
        # so drop its pending state without judging it.
        self._wait_baseline.pop(rank, None)
        self._ordered.pop(rank, None)
        self._announced.pop(rank, None)
        self._revoked.pop(rank, None)
        self._pending_fence.pop(rank, None)

    def on_restart(self, rank: int, t: float) -> None:
        self._report.restarts += 1

    def on_lease(self, rank: int, deadline_us: float) -> None:
        self._announced[rank] = float(deadline_us)

    def on_fenced_release(self, rank: int) -> None:
        self._report.fenced_releases += 1
        self._pending_fence.pop(rank, None)

    # ------------------------------------------------------------------ #
    # Lock events
    # ------------------------------------------------------------------ #

    def wait_start(self, rank: int, mode: str, t: float) -> None:
        self._flush_stale(rank, t)
        super().wait_start(rank, mode, t)

    def acquired(self, rank: int, mode: str, t: float) -> None:
        self._flush_stale(rank, t)
        report = self._report
        deadline = self._announced.pop(rank, None)
        if deadline is None and self.lease_us is not None:
            # Scheme declared a lease but does not announce exact deadlines:
            # reconstruct conservatively from the grant timestamp.
            deadline = float(int(t + self.lease_us) + 1)
        # 1. Judge this grant against every hold orphaned by a crash.
        for dead in sorted(self._crashed_holds):
            hold = self._crashed_holds[dead]
            dead_deadline = hold["deadline"]
            if dead_deadline is None:
                self._violate(
                    "recovery", rank, t,
                    f"lock re-granted after rank {dead} crashed holding it "
                    f"with no lease to expire (lost-lock hazard)",
                )
            elif t < dead_deadline:
                self._violate(
                    "lease", rank, t,
                    f"takeover before rank {dead}'s lease deadline "
                    f"{dead_deadline:.0f}us (double grant inside a live lease)",
                )
            else:
                report.recovery_us.append(t - hold["t"])
        self._crashed_holds.clear()
        # 2. A live holder whose lease expired is *revoked* by this grant —
        #    that is the lease contract, not a mutual-exclusion violation.
        #    Its late release must then be fenced (checked via _pending_fence).
        for holder in list(self._holders):
            if holder == rank:
                continue  # a genuine re-entrant acquire stays a violation
            holder_deadline = self._lease_deadline.get(holder)
            if holder_deadline is not None and t >= holder_deadline:
                hmode = self._holders.pop(holder)
                if hmode == MODE_WRITE:
                    self._writers_in -= 1
                else:
                    self._readers_in -= 1
                self._lease_deadline.pop(holder, None)
                self._revoked[holder] = hmode
                report.expired_takeovers += 1
        super().acquired(rank, mode, t)
        if deadline is not None and rank in self._holders:
            self._lease_deadline[rank] = deadline

    def released(self, rank: int, mode: str, t: float) -> None:
        if rank not in self._holders and rank in self._revoked:
            # The lease contract revoked this hold; the release is only legal
            # if the lock rejects it.  Hold it pending until the fence report
            # (or flag it at this rank's next event / run end).
            self._revoked.pop(rank)
            self._pending_fence[rank] = (mode, t)
            return
        super().released(rank, mode, t)
        self._lease_deadline.pop(rank, None)

    def on_run_end(self) -> None:
        for rank in sorted(self._pending_fence):
            self._flush_stale(rank, 0.0)
        super().on_run_end()

    def _flush_stale(self, rank: int, t: float) -> None:
        pend = self._pending_fence.pop(rank, None)
        if pend is not None:
            self._violate(
                "fencing", rank, t,
                f"stale release at t={pend[1]:.2f}us was never fenced "
                f"(a non-holder's release reached the lock word)",
            )


# --------------------------------------------------------------------------- #
# Handle wrappers
# --------------------------------------------------------------------------- #

class ObservedLock(LockHandle):
    """A mutual-exclusion lock reporting its events to a :class:`RunObserver`."""

    def __init__(self, inner: LockHandle, ctx: ProcessContext, observer: RunObserver):
        self.inner = inner
        self.ctx = ctx
        self.observer = observer

    def implements_steps(self) -> bool:
        return self.inner.implements_steps()

    def acquire_steps(self) -> Steps:
        self.observer.wait_start(self.ctx.rank, MODE_WRITE, self.ctx.now())
        yield from self.inner.acquire_steps()
        self.observer.acquired(self.ctx.rank, MODE_WRITE, self.ctx.now())

    def release_steps(self) -> Steps:
        self.observer.released(self.ctx.rank, MODE_WRITE, self.ctx.now())
        yield from self.inner.release_steps()


class ObservedRWLock(RWLockHandle):
    """A reader-writer lock reporting both sides' events to an observer."""

    def __init__(self, inner: RWLockHandle, ctx: ProcessContext, observer: RunObserver):
        self.inner = inner
        self.ctx = ctx
        self.observer = observer

    def implements_steps(self) -> bool:
        return self.inner.implements_steps()

    def acquire_write_steps(self) -> Steps:
        self.observer.wait_start(self.ctx.rank, MODE_WRITE, self.ctx.now())
        yield from self.inner.acquire_write_steps()
        self.observer.acquired(self.ctx.rank, MODE_WRITE, self.ctx.now())

    def release_write_steps(self) -> Steps:
        self.observer.released(self.ctx.rank, MODE_WRITE, self.ctx.now())
        yield from self.inner.release_write_steps()

    def acquire_read_steps(self) -> Steps:
        self.observer.wait_start(self.ctx.rank, MODE_READ, self.ctx.now())
        yield from self.inner.acquire_read_steps()
        self.observer.acquired(self.ctx.rank, MODE_READ, self.ctx.now())

    def release_read_steps(self) -> Steps:
        self.observer.released(self.ctx.rank, MODE_READ, self.ctx.now())
        yield from self.inner.release_read_steps()


def observe_lock(lock: LockHandle, ctx: ProcessContext, observer: RunObserver) -> LockHandle:
    """Wrap ``lock`` so its acquire/release events reach ``observer``."""
    if isinstance(lock, RWLockHandle):
        return ObservedRWLock(lock, ctx, observer)
    return ObservedLock(lock, ctx, observer)
