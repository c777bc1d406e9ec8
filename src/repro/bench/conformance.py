"""Conformance & chaos engine: perturbed schedules × live oracles × schemes.

``repro bench`` proves the schemes are *fast*; this module proves they are
*locks*.  It drives every conformance-capable scheme (the ``"conformance"``
campaign selector: all harness schemes, ``harness=False`` schemes with a
registered adapter, and any third-party ``@register_scheme`` lock) through
the standard benchmark harness while

* a seeded :class:`~repro.rma.perturbation.PerturbationModel` steers each run
  through a different — but bit-reproducible — interleaving (per-op latency
  jitter, per-rank slowdowns, transient GC-like pauses), and
* a :class:`~repro.verification.oracles.LockOracleObserver` checks the live
  invariants: mutual exclusion, reader/writer exclusion, handoff sanity,
  reader coexistence and the declared bounded-bypass fairness guarantees,
  with the runtime's structural deadlock and livelock (``max_ops``)
  detection folded into the verdict.

Every point is executed **twice** by default and its
:func:`~repro.bench.campaign.run_result_sha` fingerprints compared, so the
sweep simultaneously certifies the determinism contract: same seed → same
schedule → same verdict, on whichever scheduler ran it.

The benchmark axis is deliberate: **wcsb** gives the critical section real
width in the execution order (in-CS counter update plus computation), which
is what makes holder overlap *observable* to the mutual-exclusion oracle —
an empty critical section (ecsb) acquires and releases back-to-back with no
scheduling point in between, so ecsb and warb instead stress the handoff,
fairness and reader-coexistence oracles under maximal lock churn.

Execution rides on the campaign engine: grids expand from the registered
``conformance`` :class:`~repro.bench.campaign.CampaignSpec`, a
:class:`ConformancePoint` is one :class:`~repro.bench.campaign.CampaignPoint`
of it plus a chaos seed (every chaos seed runs under :data:`CHAOS`), and
:func:`~repro.bench.campaign.run_sweep` fans points out over the pool and
caches verdict rows under the ``conformance`` namespace — keyed on the same
:func:`~repro.bench.campaign.cache_epoch` as benchmark rows, a hash of the
:mod:`repro` sources, so editing any built-in scheme invalidates cached
verdicts.  A ``--import``-ed provider's own module is not hashed: after
editing one, pass ``refresh=True`` / ``--refresh`` to recompute its verdicts.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from functools import partial
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.api.registry import get_scheme
from repro.bench.campaign import (
    CampaignPoint,
    CampaignSpec,
    ResultCache,
    SweepReport,
    get_campaign,
    run_result_sha,
    run_sweep,
)
from repro.bench.harness import run_lock_benchmark_detailed
from repro.bench.workloads import LockBenchConfig
from repro.rma.perturbation import PerturbationModel
from repro.rma.runtime_base import RunObserver, RuntimeError_, SimDeadlockError
from repro.verification.oracles import LockOracleObserver

__all__ = [
    "ChaosProfile",
    "ConformancePoint",
    "conformance_points",
    "run_conformance",
    "run_conformance_point",
    "scheme_verdicts",
]


@dataclass(frozen=True)
class ChaosProfile:
    """Perturbation magnitudes applied to every perturbed point of a sweep.

    The defaults are deliberately violent relative to the base latencies
    (~30% jitter, ranks up to 2x slower, one op in fifty stalled for tens of
    µs) — the point is to reach interleavings the polished cost model never
    produces, not to model a healthy fabric.
    """

    latency_jitter: float = 0.3
    rank_slowdown: float = 1.0
    pause_rate: float = 0.02
    pause_us: Tuple[float, float] = (5.0, 40.0)


#: The profile every chaos point of a sweep runs under.
CHAOS = ChaosProfile()


@dataclass(frozen=True)
class ConformancePoint:
    """One conformance run: a campaign grid point under one chaos seed.

    ``perturb_seed == 0`` is the control run: no perturbation at all (the
    exact schedule of the committed golden fingerprints); seeds ``1..N``
    apply :data:`CHAOS` with that seed.  Primitives only, so points pickle
    into pool workers and hash canonically for the cache.
    """

    point: CampaignPoint
    perturb_seed: int = 0

    @property
    def perturbed(self) -> bool:
        return self.perturb_seed != 0

    @property
    def case(self) -> str:
        p = self.point
        name = f"{p.scheme}-{p.benchmark}-p{p.procs}-fw{p.fw:g}-s{p.seed}"
        name += f"-c{self.perturb_seed}" if self.perturbed else "-control"
        if p.scheduler != "horizon":
            name += f"-{p.scheduler}"
        return name

    def perturbation(self) -> Optional[PerturbationModel]:
        """The seeded perturbation model of this point (None for the control)."""
        if not self.perturbed:
            return None
        return PerturbationModel(seed=self.perturb_seed, **asdict(CHAOS))

    def describe(self) -> Dict[str, Any]:
        """Canonical JSON-able description (the cache-key input)."""
        return {"kind": "conformance", "perturb_seed": self.perturb_seed, **self.point.describe()}

    def config(self) -> LockBenchConfig:
        """The grid point's run configuration."""
        return self.point.config()


def conformance_points(
    spec: "CampaignSpec | str" = "conformance",
    *,
    seeds: int = 5,
    schemes: Optional[Sequence[str]] = None,
    benchmarks: Optional[Sequence[str]] = None,
    process_counts: Optional[Sequence[int]] = None,
    iterations: Optional[int] = None,
) -> List[ConformancePoint]:
    """Expand a campaign grid × the perturbation-seed axis into points.

    Each point of :meth:`CampaignSpec.points` yields one unperturbed control
    point (pinned to the golden schedule) plus ``seeds`` chaos points under
    :data:`CHAOS`.  The keyword overrides narrow the registered grid (the
    CLI flags map onto them 1:1).  Benchmark selectors
    (``"traffic"``, ``"traffic-rw"``) expand too, so ``repro conform
    --benchmarks traffic`` runs the oracle sweep against the open-loop
    scenarios (the observer attaches to the table's hottest entry — see
    :mod:`repro.traffic.scenarios`).
    """
    if seeds < 0:
        raise ValueError("seeds must be non-negative")
    if isinstance(spec, str):
        spec = get_campaign(spec)
    spec = spec.narrow(
        schemes=schemes, benchmarks=benchmarks, process_counts=process_counts, iterations=iterations
    )
    return [ConformancePoint(p, s) for p in spec.points() for s in range(seeds + 1)]


# --------------------------------------------------------------------------- #
# Point execution
# --------------------------------------------------------------------------- #

def failure_note(exc: Exception) -> str:
    """The verdict violation of a run that raised ``exc``."""
    if isinstance(exc, SimDeadlockError):
        return f"[deadlock] {exc}"
    if isinstance(exc, RuntimeError_):
        return f"[runtime] {exc}"
    return f"[error] {type(exc).__name__}: {exc}"


def observed_run(
    config: LockBenchConfig,
    observer: RunObserver,
    *,
    aborts: Tuple[type, ...] = (),
    **run_options: Any,
) -> Tuple[Optional[Tuple[Any, Any]], Optional[Exception], Dict[str, Any]]:
    """Run ``config`` under ``observer``; returns (outcome, exception, oracle).

    ``outcome`` is the harness's ``(bench, raw)`` pair, None when the run
    raised.  A failed run is a verdict, not a crash: an exception listed in
    ``aborts`` is returned as it is, any other one also fails the oracle
    summary with a ``[deadlock]``, ``[runtime]`` or ``[error]`` violation.
    That covers every wait inside the simulator; a blocking-only lock
    (``--import``) that stalls *outside* it — on a ``threading.Event``
    shared between ranks, or a busy loop that never calls its context —
    hangs the sweep, as no watchdog aborts a bridged rank.

    Callers build ``config`` (``point.config()`` imports the scheme's
    provider) outside the net, so a point that cannot be configured stays a
    usage error.  The harness builds the spec, so the benchmark's
    ``spec_transform`` applies (a traffic point verifies the real lock
    table) and a crashing builder is a verdict too.
    """
    try:
        outcome = run_lock_benchmark_detailed(config, observer=observer, **run_options)
    except Exception as exc:  # noqa: BLE001 - a failed run is a verdict
        oracle = observer.report().summary()
        if not isinstance(exc, aborts):
            oracle["ok"] = False
            oracle["violations"] = list(oracle["violations"]) + [failure_note(exc)]
        return None, exc, oracle
    return outcome, None, observer.report().summary()


def _run_once(point: ConformancePoint) -> Tuple[Optional[str], Dict[str, Any], Dict[str, Any]]:
    """One observed, possibly perturbed run; returns (fingerprint, oracle, bench)."""
    grid = point.point
    info = get_scheme(grid.scheme)
    bound = info.fairness_bound(grid.procs) if info.fairness_bound is not None else None
    outcome, _, oracle = observed_run(
        point.config(),
        LockOracleObserver(bypass_bound=bound),
        scheduler=grid.scheduler,
        perturbation=point.perturbation(),
    )
    if outcome is None:
        return None, oracle, {}
    bench, raw = outcome
    metrics = {
        "elapsed_us": bench.elapsed_us,
        "throughput_mln_s": bench.throughput_mln_per_s,
        "rma_ops": raw.total_ops(),
    }
    return run_result_sha(raw), oracle, metrics


def run_conformance_point(point: ConformancePoint, *, recheck: bool = True) -> Dict[str, Any]:
    """Execute one conformance point and build its verdict row.

    With ``recheck`` (the default) the point runs twice and the row records
    whether fingerprint *and* oracle verdict repeated bit-for-bit — the
    determinism half of the conformance contract.
    """
    fingerprint, oracle, metrics = _run_once(point)
    violations = list(oracle["violations"])
    reproducible: Optional[bool] = None
    if recheck:
        fingerprint2, oracle2, _ = _run_once(point)
        reproducible = fingerprint == fingerprint2 and oracle == oracle2
        if not reproducible:
            violations.append(
                "[determinism] re-run with the same seed diverged "
                f"(fingerprints {fingerprint} vs {fingerprint2})"
            )
    ok = bool(oracle["ok"]) and not violations
    grid = point.point
    row: Dict[str, Any] = {
        "case": point.case,
        "scheme": grid.scheme,
        "benchmark": grid.benchmark,
        "P": grid.procs,
        "procs_per_node": grid.procs_per_node,
        "iterations": grid.iterations,
        "fw": grid.fw,
        "seed": grid.seed,
        "scheduler": grid.scheduler,
        "perturb_seed": point.perturb_seed,
        "perturbed": point.perturbed,
        "fingerprint": fingerprint,
        "reproducible": reproducible,
        "ok": ok,
        "violations": violations,
        "acquires": oracle["acquires"],
        "write_acquires": oracle["write_acquires"],
        "read_acquires": oracle["read_acquires"],
        "max_concurrent_readers": oracle["max_concurrent_readers"],
        "max_bypass": oracle["max_bypass"],
        "bypass_bound": oracle["bypass_bound"],
    }
    row.update(metrics)
    return row


# --------------------------------------------------------------------------- #
# Sweep execution
# --------------------------------------------------------------------------- #

def run_conformance(
    spec: "CampaignSpec | str" = "conformance",
    *,
    seeds: int = 5,
    jobs: Optional[int] = None,
    cache: "ResultCache | bool | None" = None,
    cache_dir: Optional[Path] = None,
    refresh: bool = False,
    recheck: bool = True,
    schemes: Optional[Sequence[str]] = None,
    benchmarks: Optional[Sequence[str]] = None,
    process_counts: Optional[Sequence[int]] = None,
    iterations: Optional[int] = None,
) -> SweepReport:
    """Run the conformance sweep through :func:`~repro.bench.campaign.run_sweep`.

    Verdict rows are cached in the ``conformance`` namespace; a row recorded
    without ``recheck`` carries no determinism certificate (``reproducible``
    is None) and is never served to a rechecking sweep, or the "executed
    twice" contract would silently lapse.  ``extra`` carries ``seeds``,
    ``ok`` and the per-scheme verdict table.
    """
    if isinstance(spec, str):
        spec = get_campaign(spec)
    points = conformance_points(
        spec,
        seeds=seeds,
        schemes=schemes,
        benchmarks=benchmarks,
        process_counts=process_counts,
        iterations=iterations,
    )
    report = run_sweep(
        "conformance", spec.name, points,
        partial(run_conformance_point, recheck=recheck),
        jobs=jobs, cache=cache, cache_dir=cache_dir, namespace="conformance",
        refresh=refresh,
        servable=(lambda row: row.get("reproducible") is not None) if recheck else None,
    )
    report.extra.update(seeds=seeds, ok=report.ok, schemes=scheme_verdicts(report.rows))
    return report


# --------------------------------------------------------------------------- #
# Reporting
# --------------------------------------------------------------------------- #

def failure_rows(report: SweepReport, columns: Sequence[str]) -> List[Dict[str, Any]]:
    """Failure-detail rows for the CLI (empty when everything passed): each
    failing row's ``columns``, then its first three violations."""
    out = []
    for row in report.failures:
        detail = {column: row.get(column) for column in columns}
        violations = row["violations"]
        detail["violations"] = "; ".join(str(v) for v in violations[:3]) + (
            "; ..." if len(violations) > 3 else ""
        )
        out.append(detail)
    return out


def verdicts_by_scheme(
    rows: Sequence[Dict[str, Any]],
    summarize: Callable[[List[Dict[str, Any]]], Dict[str, Any]],
) -> List[Dict[str, Any]]:
    """One aggregate row per scheme, in first-seen order: ``scheme``,
    ``points``, the columns ``summarize(group)`` returns, then ``verdict``."""
    by_scheme: Dict[str, List[Dict[str, Any]]] = {}
    for row in rows:
        by_scheme.setdefault(row["scheme"], []).append(row)
    out = []
    for scheme, group in by_scheme.items():
        bad = sum(1 for r in group if not r["ok"])
        out.append(
            {
                "scheme": scheme,
                "points": len(group),
                **summarize(group),
                "verdict": f"FAIL ({bad} points)" if bad else "ok",
            }
        )
    return out


def _summarize(group: List[Dict[str, Any]]) -> Dict[str, Any]:
    rechecked = [r for r in group if r.get("reproducible") is not None]
    bounds = {r["bypass_bound"] for r in group if r["bypass_bound"] is not None}
    return {
        "violations": sum(len(r["violations"]) for r in group),
        "reproducible": (
            "yes" if all(r["reproducible"] for r in rechecked) else "NO"
        ) if rechecked else "-",
        "max_bypass": max(r["max_bypass"] for r in group),
        # Cells at different P have different bounds (P - 1); the aggregate
        # shows the largest so the pair stays readable (per-point gating
        # used each point's own bound).
        "bypass_bound": max(bounds) if bounds else "-",
        "max_readers": max(r["max_concurrent_readers"] for r in group),
    }


def scheme_verdicts(rows: Sequence[Dict[str, Any]]) -> List[Dict[str, Any]]:
    """Per-scheme aggregate rows for the CLI table (the manifest's ``schemes``)."""
    return verdicts_by_scheme(rows, _summarize)
