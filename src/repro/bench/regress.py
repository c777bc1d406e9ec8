"""The ``repro regress`` gate: campaign results vs the committed baselines.

Runs a campaign (default: ``ci-gate``) through the campaign engine and
compares its rows against the committed ``BENCH_campaign.json`` manifest, and
sanity-checks the ``BENCH_traffic.json`` open-loop traffic baseline (see
:func:`check_traffic_manifest`), the ``BENCH_tune.json`` auto-tuner
baseline (see :func:`check_tune_manifest`) and the ``BENCH_scale.json``
fluid-scale baseline (see :func:`check_scale_manifest`).  The gate checks
determinism only: the fields of
:data:`repro.bench.campaign.DETERMINISM_FIELDS` are bit-exact functions of
each point's seed, and any mismatch is a *hard* failure (exit code
:data:`EXIT_HARD` = 2): either the scheduler's observable behaviour changed
(re-bless deliberately, with a commit message saying why) or determinism
broke.  Host speed (``sim_ops_per_s``, wall times) is recorded in the rows
but not compared: speed is measured with the ledger (``python3 -m ledger``).
A manifest below one of its structural floors exits :data:`EXIT_FAIL` = 1.

``repro regress --bless`` rewrites the baseline through the shared bless
flow (:func:`repro.bench.campaign.bless_sweep`): a fresh (cache-refreshing)
run plus its cold/warm wall times.

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
from typing import Any, Callable, List, Mapping, Optional, Sequence

from repro.bench.campaign import (
    DETERMINISM_FIELDS,
    get_campaign,
    run_campaign,
    write_manifest_json,
)

__all__ = [
    "EXIT_FAIL",
    "EXIT_HARD",
    "EXIT_OK",
    "Finding",
    "check_scale_manifest",
    "check_traffic_manifest",
    "check_tune_manifest",
    "compare_campaign_rows",
    "exit_code",
    "format_findings",
    "run_regress",
]

EXIT_OK = 0
#: A committed manifest is below one of its structural floors.
EXIT_FAIL = 1
#: Bit-exact determinism fields diverged (or the manifests are unusable).
EXIT_HARD = 2

_REPO_ROOT = Path(__file__).resolve().parents[3]
DEFAULT_CAMPAIGN = "ci-gate"
DEFAULT_CAMPAIGN_BASELINE = _REPO_ROOT / "BENCH_campaign.json"
DEFAULT_TRAFFIC_BASELINE = _REPO_ROOT / "BENCH_traffic.json"
DEFAULT_TUNE_BASELINE = _REPO_ROOT / "BENCH_tune.json"
DEFAULT_SCALE_BASELINE = _REPO_ROOT / "BENCH_scale.json"

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
    """Sanity-check the committed ``BENCH_traffic.json`` traffic manifest.

    The manifest is blessed by ``repro traffic --bless`` (the rows themselves
    are re-derivable through the campaign cache); here the gate only checks
    that the *recorded* baseline still documents a healthy sweep: the shared
    row checks (rows with fingerprints and percentile blocks) and at least
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
    """Sanity-check the committed ``BENCH_tune.json`` auto-tuner manifest.

    The manifest is blessed by ``repro tune --bless`` (grid rows go through
    the same campaign cache as every other point); the gate checks that the
    *recorded* baseline still documents a trustworthy threshold table: grid
    rows exist, every best row carries a re-run determinism certificate
    (``fingerprint`` bit-equal to ``refingerprint`` — the winner replayed
    from scratch must reproduce the cached run exactly), and best rows cover
    at least :data:`TUNE_MIN_SCHEMES` distinct schemes.  Tune rows reuse the
    campaign row schema, so there is deliberately no schema-version coupling
    here beyond what the campaign gate already enforces.
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
            return [Finding("hard", name, "best", "malformed best row without a 'scheme' key")]
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
    """Sanity-check the committed ``BENCH_scale.json`` fluid-scale manifest.

    The manifest is blessed by ``repro scale --bless`` (campaign rows go
    through the shared cache; :func:`repro.scale.engine.check_bless` refuses
    to record a failing sweep in the first place).  The gate re-checks the
    *recorded* baseline: the shared row checks (as for the traffic manifest),
    every fluid validation record is within tolerance and carries one
    identical sampled fingerprint across its scheduler/re-run matrix, and
    the re-homing verdict still beats static placement in every compared
    pair.
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


def run_regress(
    *,
    campaign: str = DEFAULT_CAMPAIGN,
    baseline_path: Path = DEFAULT_CAMPAIGN_BASELINE,
    traffic_baseline_path: Optional[Path] = DEFAULT_TRAFFIC_BASELINE,
    tune_baseline_path: Optional[Path] = DEFAULT_TUNE_BASELINE,
    scale_baseline_path: Optional[Path] = DEFAULT_SCALE_BASELINE,
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
    the run's rows.  ``repro regress --bless`` does not come here: it runs
    the shared bless flow (:func:`repro.bench.campaign.bless_sweep`).
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
        baseline_rows = baseline["rows"]
    except (ValueError, KeyError) as exc:
        print_fn(f"regress: unreadable baseline manifest {baseline_path}: {exc}")
        return EXIT_HARD
    if not isinstance(baseline_rows, list) or not all(
        isinstance(row, dict) and "case" in row for row in baseline_rows
    ):
        print_fn(
            f"regress: malformed baseline manifest {baseline_path}: "
            f"'rows' must be a list of row objects each carrying a 'case' key"
        )
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

    findings = compare_campaign_rows(baseline_rows, report.rows)
    for path, default, check, suite in (
        (traffic_baseline_path, DEFAULT_TRAFFIC_BASELINE, check_traffic_manifest, "traffic"),
        (tune_baseline_path, DEFAULT_TUNE_BASELINE, check_tune_manifest, "tune"),
        (scale_baseline_path, DEFAULT_SCALE_BASELINE, check_scale_manifest, "scale"),
    ):
        if path is None:  # 'none' on the CLI opts out
            continue
        path = Path(path)
        if not path.exists():
            # The default file missing is survivable (warn); an explicit
            # path must exist.
            level = "warn" if path == default else "hard"
            findings.append(
                Finding(
                    level,
                    str(path),
                    "file",
                    f"{suite} manifest not found; run `repro {suite} --bless` to record one",
                )
            )
            continue
        try:
            payload = json.loads(path.read_text())
        except ValueError as exc:
            findings.append(Finding("hard", str(path), "json", f"unreadable manifest: {exc}"))
            continue
        findings.extend(check(payload))

    print_fn(format_findings(findings))
    code = exit_code(findings)
    if code == EXIT_OK:
        print_fn(f"regress: PASS ({report.points} campaign points gated)")
    return code
