"""The committed ``BENCH_*.json`` baselines: ``repro regress`` and every ``--bless``.

:func:`check_manifest` is the one check of a manifest, chosen by its
``suite``.  :func:`bless_sweep` runs it on the exact payload it is about to
write and refuses (:class:`BlessError`) any hard or fail finding before the
target is touched; :func:`run_regress` runs it on the committed files, after
gating a campaign's rows (default: ``ci-gate``) against its baseline.

The gate checks determinism only: the fields of
:data:`repro.bench.campaign.DETERMINISM_FIELDS` are bit-exact functions of
each point's seed, and any mismatch is a *hard* failure (exit code
:data:`EXIT_HARD` = 2): either the scheduler's observable behaviour changed
(re-bless deliberately, with a commit message saying why) or determinism
broke.  Host speed (``sim_ops_per_s``, wall times) is recorded in the rows
but not compared: speed is measured with the ledger (``python3 -m ledger``).
A manifest below one of its structural floors exits :data:`EXIT_FAIL` = 1.

**Schema-bump rule.** Whenever a field joins (or changes meaning inside)
:data:`~repro.bench.campaign.DETERMINISM_FIELDS`, bump
:data:`~repro.bench.campaign.CACHE_SCHEMA_VERSION` in the same commit and
re-bless ``BENCH_campaign.json``: the schema version is folded into the cache
epoch, so the bump atomically invalidates every cached row (campaign,
conformance *and* fault verdicts — they share the epoch machinery), and the
re-bless records the new row shape in the committed baseline.  Skipping the
bump would let stale cached rows (missing the new field) gate fresh runs and
report phantom determinism diffs; skipping the re-bless fails the very next
``repro regress``.  Schema 3 added the ``recovery`` field alongside the
fault sweep (:mod:`repro.bench.faults`).
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.bench.campaign import (
    _REPO_ROOT,
    DETERMINISM_FIELDS,
    SweepReport,
    canonical_json,
    get_campaign,
    manifest_payload,
    run_campaign,
    write_manifest_json,
)

__all__ = [
    "EXIT_FAIL",
    "EXIT_HARD",
    "EXIT_OK",
    "BlessError",
    "Finding",
    "bless_sweep",
    "check_campaign_manifest",
    "check_manifest",
    "check_scale_manifest",
    "check_traffic_manifest",
    "check_tune_manifest",
    "compare_campaign_rows",
    "exit_code",
    "format_findings",
    "manifest_path",
    "run_regress",
]

EXIT_OK = 0
#: A committed manifest is below one of its structural floors.
EXIT_FAIL = 1
#: Bit-exact determinism fields diverged (or the manifests are unusable).
EXIT_HARD = 2


def manifest_path(suite: str) -> Path:
    """The committed manifest of ``suite``: ``BENCH_<suite>.json`` at the repo root."""
    return _REPO_ROOT / f"BENCH_{suite}.json"


DEFAULT_CAMPAIGN = "ci-gate"
DEFAULT_CAMPAIGN_BASELINE = manifest_path("campaign")

#: Structural floor of the committed traffic baseline: the acceptance grid
#: covers at least this many distinct schemes.
TRAFFIC_MIN_SCHEMES = 3

#: Structural floor of the committed tune baseline: the threshold sweep
#: certifies best rows for at least this many distinct schemes.
TUNE_MIN_SCHEMES = 3


@dataclass(frozen=True)
class Finding:
    """One comparison outcome; ``level`` is ``"hard"``, ``"fail"`` or ``"warn"``."""

    level: str
    case: str
    field: str
    message: str


def exit_code(findings: Sequence[Finding]) -> int:
    """Map findings to the process exit code (hard > fail > ok)."""
    levels = {f.level for f in findings}
    if "hard" in levels:
        return EXIT_HARD
    if "fail" in levels:
        return EXIT_FAIL
    return EXIT_OK


def format_findings(findings: Sequence[Finding]) -> str:
    """Human-readable report, worst findings first."""
    if not findings:
        return "regress: all checks passed"
    order = {"hard": 0, "fail": 1, "warn": 2}
    lines = []
    for f in sorted(findings, key=lambda f: (order.get(f.level, 3), f.case, f.field)):
        lines.append(f"[{f.level.upper():4s}] {f.case}: {f.field}: {f.message}")
    return "\n".join(lines)


def compare_campaign_rows(
    baseline_rows: Sequence[Mapping[str, Any]],
    current_rows: Sequence[Mapping[str, Any]],
) -> List[Finding]:
    """Compare one campaign run against the committed baseline rows.

    Determinism fields must match bit-exactly (hard findings otherwise);
    every other field, host throughput included, is not compared.  Cases the
    campaign no longer produces are hard failures (the manifest must be
    re-blessed); brand-new cases only warn, so adding a scheme does not
    break CI before the baseline catches up.
    """
    findings: List[Finding] = []
    current_by_case = {str(row["case"]): row for row in current_rows}
    baseline_by_case = {str(row["case"]): row for row in baseline_rows}

    for case, base in baseline_by_case.items():
        cur = current_by_case.get(case)
        if cur is None:
            findings.append(
                Finding("hard", case, "case", "baseline case missing from the campaign run; re-bless the manifest")
            )
            continue
        for fname in DETERMINISM_FIELDS:
            if fname not in base:
                continue  # older manifest schema; gate only the recorded fields
            if base[fname] != cur.get(fname):
                findings.append(
                    Finding(
                        "hard",
                        case,
                        fname,
                        f"determinism field diverged: baseline {base[fname]!r} vs current {cur.get(fname)!r}",
                    )
                )

    for case in current_by_case:
        if case not in baseline_by_case:
            findings.append(
                Finding("warn", case, "case", "new case not in the baseline; bless to start gating it")
            )
    return findings


def check_campaign_manifest(payload: Mapping[str, Any]) -> List[Finding]:
    """Check a campaign manifest's row shape: the rows :func:`compare_campaign_rows` reads.

    ``rows`` must be a list of row objects each carrying a ``case`` key.
    """
    rows = payload.get("rows")
    if isinstance(rows, list) and all(isinstance(row, dict) and "case" in row for row in rows):
        return []
    message = "'rows' must be a list of row objects each carrying a 'case' key"
    return [Finding("hard", str(payload.get("campaign", "campaign")), "rows", message)]


def _row_findings(name: str, suite: str, rows: Any) -> List[Finding]:
    """The row checks the traffic and scale manifests share.

    Rows exist and each carries a determinism fingerprint and the open-loop
    percentile block.  A missing or malformed row list is a single ``rows``
    finding.
    """
    if not isinstance(rows, list) or not rows:
        return [Finding("hard", name, "rows", f"manifest has no {suite} rows")]
    if not all(isinstance(row, dict) and "case" in row for row in rows):
        return [Finding("hard", name, "rows", "malformed row without a 'case' key")]
    findings: List[Finding] = []
    for row in rows:
        case = str(row["case"])
        if not row.get("fingerprint"):
            findings.append(Finding("hard", case, "fingerprint", f"{suite} row has no determinism fingerprint"))
        percentiles = row.get("percentiles")
        if not isinstance(percentiles, dict) or "e2e_p99_us" not in percentiles:
            findings.append(
                Finding("hard", case, "percentiles", f"{suite} row has no tail-latency percentile block")
            )
    return findings


def check_traffic_manifest(payload: Mapping[str, Any]) -> List[Finding]:
    """Check a ``BENCH_traffic.json`` traffic manifest.

    The manifest documents a healthy sweep: the shared row checks (rows with
    fingerprints and percentile blocks) and at least
    :data:`TRAFFIC_MIN_SCHEMES` schemes.
    """
    name = "BENCH_traffic.json"
    rows = payload.get("rows")
    findings = _row_findings(name, "traffic", rows)
    if any(f.field == "rows" for f in findings):
        return findings
    schemes = {str(row.get("scheme", "")) for row in rows} - {""}
    if len(schemes) < TRAFFIC_MIN_SCHEMES:
        findings.append(
            Finding(
                "fail",
                name,
                "schemes",
                f"baseline covers {len(schemes)} scheme(s); "
                f"the traffic gate expects at least {TRAFFIC_MIN_SCHEMES}",
            )
        )
    return findings


def check_tune_manifest(payload: Mapping[str, Any]) -> List[Finding]:
    """Check a ``BENCH_tune.json`` auto-tuner manifest.

    The manifest documents a trustworthy threshold table: grid rows exist,
    every best row carries a re-run determinism certificate (``fingerprint``
    bit-equal to ``refingerprint`` — the winner replayed from scratch must
    reproduce the cached run exactly), and best rows cover at least
    :data:`TUNE_MIN_SCHEMES` distinct schemes.  Every finding is reported.
    Tune rows reuse the campaign row schema, so there is deliberately no
    schema-version coupling here beyond what the campaign gate already
    enforces.
    """
    name = "BENCH_tune.json"
    rows = payload.get("rows")
    if not isinstance(rows, list) or not rows:
        return [Finding("hard", name, "rows", "manifest has no tune grid rows")]
    best = payload.get("best")
    if not isinstance(best, list) or not best:
        return [Finding("hard", name, "best", "manifest has no best-threshold rows")]
    findings: List[Finding] = []
    schemes = set()
    for row in best:
        if not isinstance(row, dict) or "scheme" not in row:
            findings.append(Finding("hard", name, "best", "malformed best row without a 'scheme' key"))
            continue
        schemes.add(str(row["scheme"]))
        case = str(row.get("best_case", row["scheme"]))
        fingerprint = row.get("fingerprint")
        refingerprint = row.get("refingerprint")
        if not fingerprint or not refingerprint:
            findings.append(
                Finding("hard", case, "refingerprint", "best row has no re-run determinism certificate")
            )
        elif fingerprint != refingerprint:
            findings.append(
                Finding(
                    "hard",
                    case,
                    "refingerprint",
                    f"winner re-run diverged from its recorded run: {fingerprint!r} vs {refingerprint!r}",
                )
            )
    if len(schemes) < TUNE_MIN_SCHEMES:
        findings.append(
            Finding(
                "fail",
                name,
                "schemes",
                f"baseline certifies best rows for {len(schemes)} scheme(s); "
                f"the tune gate expects at least {TUNE_MIN_SCHEMES}",
            )
        )
    return findings


def check_scale_manifest(payload: Mapping[str, Any]) -> List[Finding]:
    """Check a ``BENCH_scale.json`` fluid-scale manifest.

    The shared row checks (as for the traffic manifest), every fluid
    validation record is within tolerance and carries one identical sampled
    fingerprint across its run and repeat run, and the re-homing
    verdict beats static placement in every compared pair.
    """
    name = "BENCH_scale.json"
    findings = _row_findings(name, "scale", payload.get("rows"))
    if any(f.field == "rows" for f in findings):
        return findings
    fluid = payload.get("fluid")
    if not isinstance(fluid, list) or not fluid:
        findings.append(Finding("hard", name, "fluid", "manifest has no fluid validation records"))
    else:
        for record in fluid:
            if not isinstance(record, dict) or "name" not in record:
                findings.append(Finding("hard", name, "fluid", "malformed fluid record without a 'name' key"))
                continue
            case = str(record["name"])
            if not record.get("within_tolerance"):
                failed = [
                    str(c.get("name", "?"))
                    for c in record.get("checks", ())
                    if isinstance(c, dict) and not c.get("ok")
                ]
                findings.append(
                    Finding(
                        "hard",
                        case,
                        "validation",
                        f"fluid record outside tolerance (failing checks: {failed or 'unknown'})",
                    )
                )
            if not record.get("fingerprints_identical"):
                findings.append(
                    Finding(
                        "hard",
                        case,
                        "fingerprints",
                        f"sampled cohort fingerprints diverged: {record.get('fingerprints')!r}",
                    )
                )
    rehome = payload.get("rehome")
    if not isinstance(rehome, dict) or not rehome.get("pairs"):
        findings.append(Finding("hard", name, "rehome", "manifest has no re-homing comparison"))
    elif not rehome.get("improved"):
        findings.append(
            Finding(
                "fail",
                name,
                "rehome",
                "recorded re-homing run does not beat static placement; "
                "re-bless after fixing the policy or the scenario",
            )
        )
    return findings


#: Suite -> the check of its committed ``BENCH_<suite>.json``.
_CHECKS: Mapping[str, Callable[[Mapping[str, Any]], List[Finding]]] = {
    "campaign": check_campaign_manifest,
    "traffic": check_traffic_manifest,
    "tune": check_tune_manifest,
    "scale": check_scale_manifest,
}


def check_manifest(payload: Any) -> List[Finding]:
    """The one check of a manifest, chosen by its ``suite``.

    :func:`bless_sweep` runs it on the payload it is about to write and
    :func:`run_regress` on the committed files, so a bless refuses exactly
    what the gate would flag.
    """
    if not isinstance(payload, Mapping):
        return [Finding("hard", "manifest", "json", "manifest is not a JSON object")]
    check = _CHECKS.get(str(payload.get("suite")))
    if check is None:
        message = f"no manifest check for suite {payload.get('suite')!r}"
        return [Finding("hard", str(payload.get("campaign", "manifest")), "suite", message)]
    return check(payload)


class BlessError(RuntimeError):
    """A bless refused to record its manifest (cache miss, drift or a failed check)."""


def _determinism_json(rows: Sequence[Mapping[str, Any]]) -> str:
    """The rows' determinism fields, as one canonical JSON string."""
    return canonical_json(
        [{name: row[name] for name in DETERMINISM_FIELDS if name in row} for row in rows]
    )


def bless_sweep(
    run: Callable[..., SweepReport],
    path: Path,
    *,
    jobs: Optional[int] = None,
) -> Tuple[SweepReport, Dict[str, Any]]:
    """Record a suite's manifest at ``path``: cold, then warm, then the check.

    ``run(jobs=..., refresh=...)`` runs the suite once through the cache.
    The cold run refreshes every cached row; the warm run must serve every
    point from the cache and equal the cold rows on
    :data:`~repro.bench.campaign.DETERMINISM_FIELDS`.  Then
    :func:`check_manifest` runs on the payload about to be written, and a
    hard or fail finding raises :class:`BlessError` before ``path`` is
    touched.  Returns the cold report and the timing block written with it.
    """
    cold = run(jobs=jobs, refresh=True)
    timing: Dict[str, Any] = {
        "cpu_count": os.cpu_count(),
        "jobs": cold.jobs,
        "workers": cold.workers,
        "cold_wall_s": round(cold.wall_s, 3),
    }
    warm = run(jobs=jobs, refresh=False)
    if warm.cache_hits != warm.points:
        raise BlessError(
            f"warm {cold.suite} run expected {warm.points} cache hits, got "
            f"{warm.cache_hits} — did the cache epoch change (a source edit, "
            f"REPRO_CACHE_EPOCH) or a concurrent process prune the cache mid-bless?"
        )
    if _determinism_json(warm.rows) != _determinism_json(cold.rows):
        raise BlessError(
            f"warm {cold.suite} rows drifted from the cold run's determinism fields; "
            f"refusing to bless"
        )
    timing["warm_wall_s"] = round(warm.wall_s, 3)
    timing["warm_cache_hits"] = warm.cache_hits
    if cold.wall_s > 0:
        timing["warm_over_cold"] = round(warm.wall_s / cold.wall_s, 4)
    payload = manifest_payload(cold, timing=timing)
    refused = [f for f in check_manifest(payload) if f.level in ("hard", "fail")]
    if refused:
        raise BlessError(
            f"refusing to bless {path}: `repro regress` would flag the manifest\n"
            f"{format_findings(refused)}"
        )
    write_manifest_json(payload, path)
    return cold, timing


def run_regress(
    *,
    campaign: str = DEFAULT_CAMPAIGN,
    baseline_path: Path = DEFAULT_CAMPAIGN_BASELINE,
    jobs: Optional[int] = None,
    fresh: bool = True,
    cache_dir: Optional[Path] = None,
    output: Optional[Path] = None,
    print_fn: Callable[[str], None] = print,
) -> int:
    """Entry point behind ``repro regress``; returns the process exit code.

    The gate recomputes every point by default (``fresh=True``), so it checks
    what this code produces, not what an earlier run left in the cache.
    ``fresh=False`` (CLI ``--reuse-cache``) opts into cache reads for quick
    iterating; the cache epoch follows the package sources, so cached
    determinism fields are current.  Either way the cache is refreshed with
    the run's rows.  The committed traffic, tune and scale manifests are
    always checked.  ``repro regress --bless`` does not come here: it runs
    :func:`bless_sweep`.
    """
    get_campaign(campaign)  # validate early with the helpful UnknownNameError

    baseline_path = Path(baseline_path)
    if not baseline_path.exists():
        print_fn(
            f"regress: no baseline manifest at {baseline_path}; "
            f"run `repro regress --bless` to record one"
        )
        return EXIT_HARD
    try:
        baseline = json.loads(baseline_path.read_text())
    except ValueError as exc:
        print_fn(f"regress: unreadable baseline manifest {baseline_path}: {exc}")
        return EXIT_HARD
    findings = check_manifest(baseline)
    if exit_code(findings) == EXIT_HARD:
        print_fn(f"regress: malformed baseline manifest {baseline_path}")
        print_fn(format_findings(findings))
        return EXIT_HARD

    report = run_campaign(campaign, jobs=jobs, cache_dir=cache_dir, refresh=fresh)
    print_fn(report.summary())
    if output is not None:
        # Label the gating run's wall time honestly: it is only a cold time
        # when every point was actually computed.
        wall_key = "cold_wall_s" if report.cache_misses == report.points else "cached_wall_s"
        timing = {
            "cpu_count": os.cpu_count(),
            "jobs": report.jobs,
            wall_key: round(report.wall_s, 3),
        }
        write_manifest_json(report, Path(output), timing=timing)
        print_fn(f"wrote {output}")

    findings.extend(compare_campaign_rows(baseline["rows"], report.rows))
    for suite in _CHECKS:
        if suite == "campaign":
            continue  # the baseline, checked above
        path = manifest_path(suite)
        if not path.exists():
            message = f"{suite} manifest not found; run `repro {suite} --bless` to record one"
            findings.append(Finding("warn", str(path), "file", message))
            continue
        try:
            payload = json.loads(path.read_text())
        except ValueError as exc:
            findings.append(Finding("hard", str(path), "json", f"unreadable manifest: {exc}"))
            continue
        findings.extend(check_manifest(payload))

    print_fn(format_findings(findings))
    code = exit_code(findings)
    if code == EXIT_OK:
        print_fn(f"regress: PASS ({report.points} campaign points gated)")
    return code
