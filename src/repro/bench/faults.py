"""Fault sweep engine: seeded rank crashes × recovery oracles × schemes.

``repro conform`` proves the schemes are locks; this module asks what they
are when ranks *die*.  Every conformance-capable scheme runs the standard
harness benchmark while a seeded :class:`~repro.fault.FaultPlan` kills one
rank mid-run — a lock **holder**, a **waiter**, or a holder/waiter that later
**restarts** — and a :class:`~repro.verification.oracles.\
RecoveryOracleObserver` checks the recovery-safety oracles: no double grant
before a crashed holder's lease expired, stale releases fenced, base mutual
exclusion and handoff sanity for the survivors.

The grid is the registered ``conformance`` campaign narrowed to wcsb at
P = 4 and 6 iterations, × crash scenario × crash seed: a :class:`FaultPoint`
is one :class:`~repro.bench.campaign.CampaignPoint` plus its scenario and
crash seed, and runs on that point's scheduler.

Kill placement is scheme-aware without being scheme-specific: an unfaulted
**probe run** (same config, same seed) records the real hold and wait
intervals through a :class:`~repro.fault.TimelineObserver`; the crash seed
then draws a victim interval from the probe timeline via the dedicated fault
Philox lane (:func:`repro.fault.fault_rng`) and schedules the kill inside it.
Because the fault path stays cold until the kill fires, the faulted run is
bit-identical to the probe run up to that very instant — the kill genuinely
lands in the middle of a hold (or a parked wait), whatever the scheme.  The
faulted run's horizon leaves room past the scheme's declared lease, so a
crashed holder's lease can expire and be taken over before the run aborts.

Verdicts distinguish what the registry *declares*
(:func:`repro.fault.declare_recovery`) from what happened:

* ``recovered`` — the scheme declares the scenario, the run completed, every
  oracle held;
* ``tolerated`` — an undeclared scenario happened to complete safely (a dead
  TAS waiter just stops spinning);
* ``expected-unavailable`` — an undeclared scenario ended in a detected
  deadlock / lock timeout / fault-horizon abort: honest unavailability, not
  a false pass;
* ``unavailable`` / ``violation`` — a *declared* scenario deadlocked or an
  oracle fired (or the unfaulted probe run itself failed): these fail the
  sweep;
* ``no-crash-window`` — the probe timeline offered no interval to kill in
  (e.g. no rank ever waits at P=1).

A scheme with a planted bug (:data:`repro.verification.explorer.KNOWN_MUTANTS`)
is not swept: ``repro verify`` judges it over every kill timing, and a
sampled kill that misses the bug would read as a recovery.

Each row records the faulted run's :func:`~repro.bench.campaign.run_result_sha`
fingerprint; crash delivery is part of the determinism contract, which
tier-1 holds against the reference interpreter on the same points.

Execution rides on the campaign machinery: :func:`~repro.bench.campaign.\
run_sweep` fans points out over the pool and caches verdict rows in the
``faults`` namespace on the same :func:`~repro.bench.campaign.cache_epoch`
as benchmark and conformance rows (a hash of the :mod:`repro` sources, so an
edited scheme is recomputed).
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.bench.campaign import (
    CampaignPoint,
    ResultCache,
    SweepReport,
    get_campaign,
    run_result_sha,
    run_sweep,
)
from repro.bench.conformance import (
    failure_note,
    observed_run,
    verdicts_by_scheme,
)
from repro.bench.harness import run_lock_benchmark_detailed
from repro.bench.workloads import LockBenchConfig
from repro.fault import (
    FAULT_SCENARIOS,
    FaultHorizonError,
    FaultPlan,
    LockTimeout,
    TimelineObserver,
    fault_rng,
    recovery_info,
)
from repro.rma.runtime_base import SimDeadlockError
from repro.traffic.accounting import nearest_rank_index
from repro.verification.oracles import RecoveryOracleObserver

__all__ = [
    "FaultPoint",
    "fault_points",
    "run_fault_point",
    "run_faults",
    "scheme_verdicts",
]

#: Kill-placement policy: a candidate interval must be long enough that the
#: kill lands well inside it — past the enqueue RMAs of a wait, before the
#: grant at its end — and must be *followed* by another rank's hold in the
#: probe timeline, so that the crash provably leaves pending lock work behind
#: (a kill after the last contended grant would exercise nothing and read as
#: a false "recovered").
_HOLD_MIN_US = 1.0
_WAIT_MIN_US = 6.0
_KILL_FRACTION = 0.5
#: Kill times are integral and only fire at public-call *entry* clocks, so a
#: kill aimed at a sub-microsecond hold can slip past the victim's release.
#: Placement is therefore outcome-verified: the engine tries candidate plans
#: until the oracle confirms the scenario really manifested — a holder died
#: holding, a waiter died parked — bounded by this attempt budget.
_MAX_PLACEMENT_TRIES = 10


@dataclass(frozen=True)
class FaultPoint:
    """One fault-sweep cell: a campaign grid point × crash scenario × crash seed.

    Primitives only, so points pickle into pool workers and hash canonically
    for the ``faults`` cache namespace.
    """

    point: CampaignPoint
    scenario: str
    crash_seed: int

    @property
    def case(self) -> str:
        p = self.point
        return f"{p.scheme}-{self.scenario}-p{p.procs}-s{p.seed}-k{self.crash_seed}"

    def describe(self) -> Dict[str, Any]:
        """Canonical JSON-able description (the cache-key input)."""
        return {
            "kind": "faults",
            "scenario": self.scenario,
            "crash_seed": self.crash_seed,
            **self.point.describe(),
        }


def fault_points(
    *,
    seeds: int = 5,
    schemes: Optional[Sequence[str]] = None,
    scenarios: Optional[Sequence[str]] = None,
    process_counts: Optional[Sequence[int]] = None,
    iterations: Optional[int] = None,
    benchmark: str = "wcsb",
) -> List[FaultPoint]:
    """Expand the fault grid: the ``conformance`` campaign narrowed to one
    benchmark, P = 4 and 6 iterations, × crash scenario × crash seed
    ``1..seeds``.

    ``schemes``, ``process_counts`` and ``iterations`` narrow it further;
    by default every conformance-capable scheme is swept, so third-party
    ``@register_scheme`` locks are crash-tested for free.  A selector skips
    the known mutants; naming one is an error, as ``repro verify`` judges it.
    """
    # A local import: the live sweeps do not load the model checker's module.
    from repro.verification.explorer import KNOWN_MUTANTS

    if seeds < 1:
        raise ValueError("seeds must be >= 1")
    if scenarios is None:
        scenarios = FAULT_SCENARIOS
    for scenario in scenarios:
        if scenario not in FAULT_SCENARIOS:
            raise ValueError(
                f"unknown scenario {scenario!r} (expected one of {FAULT_SCENARIOS})"
            )
    grid = get_campaign("conformance").narrow(schemes=schemes)
    for scheme in grid.schemes:
        if scheme in KNOWN_MUTANTS:
            raise ValueError(
                f"{scheme!r} is a known mutant: `repro verify` judges it over "
                f"every kill timing, where this sweep's sampled kills could pass it"
            )
    spec = grid.narrow(
        schemes=[s for s in grid.resolve_schemes() if s not in KNOWN_MUTANTS],
        benchmarks=(benchmark,),
        process_counts=(4,) if process_counts is None else process_counts,
        iterations=6 if iterations is None else iterations,
    )
    return [
        FaultPoint(point, scenario, crash_seed)
        for point in spec.points()
        for scenario in scenarios
        for crash_seed in range(1, seeds + 1)
    ]


# --------------------------------------------------------------------------- #
# Point execution
# --------------------------------------------------------------------------- #

def _probe(config: LockBenchConfig) -> Tuple[TimelineObserver, float]:
    """Unfaulted probe run: the timeline to place the kill in, plus makespan."""
    probe = TimelineObserver()
    _, raw = run_lock_benchmark_detailed(config, observer=probe)
    makespan = max(raw.finish_times_us) if raw.finish_times_us else 0.0
    return probe, makespan


def _candidate_plans(
    point: FaultPoint, probe: TimelineObserver, makespan: float
) -> List[Tuple[FaultPlan, Dict[str, Any]]]:
    """All candidate fault plans for this point, in seeded trial order.

    The crash seed draws the *order* from the dedicated fault Philox lane;
    the engine then walks the list until the oracle confirms the scenario
    manifested (see :data:`_MAX_PLACEMENT_TRIES`).
    """
    declared = recovery_info(point.point.scheme)
    if point.scenario == "holder-crash":
        kind = "hold"
    elif point.scenario == "waiter-crash":
        kind = "wait"
    else:  # restart: crash whatever the scheme claims to recover from
        kind = "hold" if "holder-crash" in declared.scenarios else "wait"

    def _has_successor(iv):
        # Some *other* rank acquires after this interval ends, so the crash
        # leaves real lock work pending for recovery to unblock.
        return any(
            h.rank != iv.rank and h.start_us > iv.end_us for h in probe.holds
        )

    min_len = _HOLD_MIN_US if kind == "hold" else _WAIT_MIN_US
    candidates = [
        iv
        for iv in probe.intervals(kind)
        if iv.length_us >= min_len and _has_successor(iv)
    ]
    if not candidates:
        return []
    rng = fault_rng(point.crash_seed, stream=point.point.seed)
    order = rng.permutation(len(candidates))

    restart_us: Optional[float] = None
    if point.scenario == "restart":
        # Revive well past the unfaulted makespan: by then any queue node the
        # victim left behind has been spliced/expired, so the restarted rank
        # re-enters from a clean slate.
        restart_us = float(int(2.0 * makespan) + 50)
    # Room past the declared lease, so a crashed holder's lease can run out
    # and be taken over before the run is aborted.
    lease_us = declared.lease_us or 0.0
    horizon = float(int(4.0 * makespan + (restart_us or 0.0) + lease_us) + 100)

    plans: List[Tuple[FaultPlan, Dict[str, Any]]] = []
    for idx in order:
        chosen = candidates[int(idx)]
        if kind == "hold":
            # A hold spans [acquire-return, release-flush-done], but the kill
            # fires at a public call whose *entry* clock reached kill_us —
            # the exact integral time that traps the victim between its
            # grant and its release depends on sub-microsecond call
            # alignment, so offer both integers bracketing the grant edge.
            kills = [float(int(chosen.start_us) + 1), float(int(chosen.start_us))]
        else:
            # Mid-wait: away from the enqueue RMAs at the front and the
            # grant at the end, so the victim dies parked.
            kill = float(int(chosen.start_us + _KILL_FRACTION * chosen.length_us))
            if kill < chosen.start_us:  # integral truncation fell off the front
                kill += 1.0
            kills = [kill]
        for kill_us in kills:
            if kill_us <= 0:
                continue
            plan = FaultPlan.single(
                rank=chosen.rank,
                kill_us=kill_us,
                restart_us=restart_us,
                horizon_us=horizon,
            )
            plans.append(
                (
                    plan,
                    {
                        "victim": chosen.rank,
                        "kill_us": kill_us,
                        "restart_us": restart_us,
                        "horizon_us": horizon,
                    },
                )
            )
    return plans


def _scenario_manifested(scenario: str, oracle: Mapping[str, Any]) -> bool:
    """Did the faulted run actually exhibit the requested crash scenario?"""
    if oracle.get("crashes", 0) < 1:
        return False
    if scenario == "holder-crash":
        return oracle.get("holder_deaths", 0) >= 1
    if scenario == "waiter-crash":
        return oracle.get("waiter_deaths", 0) >= 1
    return oracle.get("restarts", 0) >= 1


def _run_faulted(
    point: FaultPoint, plan: FaultPlan
) -> Tuple[Optional[str], Optional[str], Dict[str, Any]]:
    """One faulted run on the point's scheduler; returns (fingerprint,
    abort-kind, oracle summary)."""
    grid = point.point
    outcome, exc, oracle = observed_run(
        grid.config(),
        RecoveryOracleObserver(lease_us=recovery_info(grid.scheme).lease_us),
        # Honest unavailability, not a violation: the row's abort names it.
        aborts=(SimDeadlockError, FaultHorizonError, LockTimeout),
        scheduler=grid.scheduler,
        fault_plan=plan,
    )
    if outcome is None:
        return None, type(exc).__name__, oracle
    return run_result_sha(outcome[1]), None, oracle


def run_fault_point(point: FaultPoint) -> Dict[str, Any]:
    """Execute one fault point and build its verdict row."""
    grid = point.point
    declared = point.scenario in recovery_info(grid.scheme).scenarios
    config = grid.config()  # outside the net: a bad point is a usage error
    row: Dict[str, Any] = {
        "case": point.case,
        "scheme": grid.scheme,
        "scenario": point.scenario,
        "crash_seed": point.crash_seed,
        "P": grid.procs,
        "benchmark": grid.benchmark,
        "iterations": grid.iterations,
        "seed": grid.seed,
        "declared": declared,
        "probe_makespan_us": None,
        "violations": [],
        "fingerprint": None,
    }
    try:
        probe, makespan = _probe(config)
    except Exception as exc:  # noqa: BLE001 - a failed run is a verdict
        row.update({
            "victim": None, "kill_us": None, "restart_us": None,
            "status": "violation", "ok": False, "violations": [failure_note(exc)],
        })
        return row
    row["probe_makespan_us"] = round(makespan, 3)
    plans = _candidate_plans(point, probe, makespan)
    if not plans:
        row.update({"victim": None, "kill_us": None, "restart_us": None})
        row["status"] = "no-crash-window"
        row["ok"] = True
        return row

    # Outcome-verified placement: walk the seeded candidate order until the
    # oracle confirms the scenario manifested; the last attempt stands if
    # none does.
    tries = 0
    for plan, meta in plans[:_MAX_PLACEMENT_TRIES]:
        tries += 1
        sha, abort, oracle = _run_faulted(point, plan)
        if _scenario_manifested(point.scenario, oracle):
            break
    row.update(meta)
    row["placement_tries"] = tries
    manifested = _scenario_manifested(point.scenario, oracle)

    row["fingerprint"] = sha
    violations = list(oracle["violations"])
    for key in (
        "crashes", "restarts", "holder_deaths", "waiter_deaths",
        "fenced_releases", "expired_takeovers", "recovery_us",
    ):
        row[key] = oracle.get(key)

    unavailable = abort is not None
    oracle_ok = bool(oracle["ok"]) and not violations
    if unavailable:
        row["abort"] = abort
        row["status"] = "unavailable" if declared else "expected-unavailable"
        row["ok"] = not declared
        if declared:
            violations.append(
                f"[recovery] declared scenario {point.scenario!r} ended in "
                f"{abort} instead of recovering (lost lock)"
            )
    elif not oracle_ok:
        row["status"] = "violation"
        row["ok"] = False
    elif not manifested:
        # Every candidate kill either never fired or missed the requested
        # role (e.g. the victim slipped its release under an integral kill
        # time on all tries) — honest "could not stage it", not a recovery.
        row["status"] = "not-manifested"
        row["ok"] = True
    else:
        row["status"] = "recovered" if declared else "tolerated"
        row["ok"] = True
    row["violations"] = violations
    return row


# --------------------------------------------------------------------------- #
# Sweep execution
# --------------------------------------------------------------------------- #

def run_faults(
    *,
    seeds: int = 5,
    jobs: Optional[int] = None,
    cache: "ResultCache | bool | None" = None,
    cache_dir: Optional[Path] = None,
    refresh: bool = False,
    schemes: Optional[Sequence[str]] = None,
    scenarios: Optional[Sequence[str]] = None,
    process_counts: Optional[Sequence[int]] = None,
    iterations: Optional[int] = None,
    benchmark: str = "wcsb",
) -> SweepReport:
    """Run the fault sweep through :func:`~repro.bench.campaign.run_sweep`.

    Verdict rows are cached per source epoch in the ``faults`` namespace;
    ``extra`` carries ``seeds``, ``ok`` and the per-scheme verdict table.
    """
    points = fault_points(
        seeds=seeds,
        schemes=schemes,
        scenarios=scenarios,
        process_counts=process_counts,
        iterations=iterations,
        benchmark=benchmark,
    )
    report = run_sweep(
        "faults", "fault-suite", points, run_fault_point,
        jobs=jobs, cache=cache, cache_dir=cache_dir, namespace="faults",
        refresh=refresh,
    )
    report.extra.update(seeds=seeds, ok=report.ok, schemes=scheme_verdicts(report.rows))
    return report


# --------------------------------------------------------------------------- #
# Reporting
# --------------------------------------------------------------------------- #

def _summarize(group: List[Dict[str, Any]]) -> Dict[str, Any]:
    statuses: Dict[str, int] = {}
    for r in group:
        statuses[r["status"]] = statuses.get(r["status"], 0) + 1
    recovery = [s for r in group for s in (r.get("recovery_us") or [])]
    return {
        "statuses": ",".join(f"{k}:{v}" for k, v in sorted(statuses.items())),
        "recovery_p50_us": (
            round(sorted(recovery)[nearest_rank_index(500, len(recovery))], 1)
            if recovery else "-"
        ),
    }


def scheme_verdicts(rows: Sequence[Dict[str, Any]]) -> List[Dict[str, Any]]:
    """Per-scheme aggregate rows for the CLI table (the manifest's ``schemes``)."""
    return verdicts_by_scheme(rows, _summarize)
