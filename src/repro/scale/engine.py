"""The ``repro scale`` sweep: fluid validation + elastic/re-homing campaign.

A traffic sweep plus two scale-only results: the scale scenarios are
registered benchmarks, so :func:`run_scale` runs the ``scale-suite`` grid
through :func:`repro.traffic.engine.run_traffic` (campaign cache, parallel
executor and determinism fingerprints unchanged) and adds the fluid records
and the re-homing verdict.  One sweep produces three artifact groups:

* **Campaign rows** — the ``scale-suite`` grid (elastic resize plus the
  static/re-homed hot-key pair), fingerprinted like every campaign row.
* **Fluid validation records** — :func:`repro.scale.fluid.validate_fluid`
  for every registered fluid scenario: analytic rate/share checks, sampled
  percentiles and a repeat-run fingerprint certificate.  This is where
  the 10^6-clients/s scenario (``fluid-mega``) runs — in seconds.
* **The re-homing verdict** — :func:`rehome_comparison` pairs the
  ``scale-hot`` / ``scale-hot-rehome`` rows per scheme and P and reports
  the end-to-end p99 delta.

Rows, fluid fingerprints and the verdict are identical across repeat runs
and ``--jobs`` settings; tier-1 holds the rows and the sampled cohorts to
the reference interpreter (``tests/reference.py``).

``repro scale --bless`` writes ``BENCH_scale.json`` through
:func:`repro.bench.regress.bless_sweep`, which refuses a manifest that
:func:`repro.bench.regress.check_scale_manifest` flags: fluid records that
fail, or re-homing that does not beat static placement.  ``repro regress``
runs the same check on the committed file.
"""

from __future__ import annotations

import time
from dataclasses import replace
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.bench.campaign import CampaignSpec, SweepReport, get_campaign
from repro.scale.fluid import FLUID_SCENARIOS, get_fluid_scenario, validate_fluid
from repro.traffic.engine import run_traffic

__all__ = [
    "rehome_comparison",
    "run_scale",
    "scale_display_rows",
    "scale_spec",
]

def scale_spec(
    *,
    schemes: Optional[Sequence[str]] = None,
    scenarios: Optional[Sequence[str]] = None,
    iterations: Optional[int] = None,
) -> CampaignSpec:
    """The ``scale-suite`` campaign, narrowed by the CLI's overrides."""
    return get_campaign("scale-suite").narrow(
        schemes=schemes, benchmarks=scenarios, iterations=iterations
    )


def rehome_comparison(rows: Sequence[Mapping[str, Any]]) -> Dict[str, Any]:
    """Pair the static and re-homed hot-key rows per scheme and P.

    Returns ``{"pairs": [...], "improved": bool}`` where each pair carries
    both end-to-end p99 values and their delta; ``improved`` requires the
    re-homed p99 to be strictly lower in *every* compared pair.
    """
    by_key: Dict[Tuple[str, int], Dict[str, float]] = {}
    for row in rows:
        benchmark = row.get("benchmark", "")
        if benchmark not in ("scale-hot", "scale-hot-rehome"):
            continue
        pct = row.get("percentiles") or {}
        key = (row.get("scheme", ""), int(row.get("P", 0)))
        by_key.setdefault(key, {})[benchmark] = float(pct.get("e2e_p99_us", 0.0))
    pairs: List[Dict[str, Any]] = []
    for (scheme, procs), vals in sorted(by_key.items()):
        if "scale-hot" not in vals or "scale-hot-rehome" not in vals:
            continue
        static_p99 = vals["scale-hot"]
        rehomed_p99 = vals["scale-hot-rehome"]
        pairs.append(
            {
                "scheduler": "horizon",
                "scheme": scheme,
                "P": procs,
                "static_p99_us": static_p99,
                "rehome_p99_us": rehomed_p99,
                "delta_us": static_p99 - rehomed_p99,
                "improved": bool(rehomed_p99 < static_p99),
            }
        )
    return {
        "pairs": pairs,
        "improved": bool(pairs) and all(p["improved"] for p in pairs),
    }


def run_scale(
    spec: Optional[CampaignSpec] = None,
    *,
    jobs: Optional[int] = None,
    cache: Any = None,
    cache_dir: Optional[Path] = None,
    refresh: bool = False,
    fluid_names: Optional[Sequence[str]] = None,
    fluid_seed: int = 17,
) -> SweepReport:
    """Run the scale grid plus the fluid set.

    ``fluid_names`` narrows the fluid validation sweep (default: every
    registered :class:`~repro.scale.fluid.FluidScenario`); one report
    carries both the campaign's and the cohorts' determinism certificates.
    ``extra`` adds ``fluid`` and ``rehome`` to the traffic sweep's
    ``schedulers``.
    """
    names = tuple(fluid_names) if fluid_names is not None else tuple(sorted(FLUID_SCENARIOS))
    fluids = [get_fluid_scenario(name) for name in names]  # fail before the campaign
    t0 = time.perf_counter()
    report = run_traffic(
        spec if spec is not None else scale_spec(),
        jobs=jobs, cache=cache, cache_dir=cache_dir, refresh=refresh,
    )
    fluid = [validate_fluid(scenario, seed=fluid_seed) for scenario in fluids]
    extra = dict(report.extra, fluid=fluid, rehome=rehome_comparison(report.rows))
    return replace(
        report, suite="scale", wall_s=time.perf_counter() - t0, extra=extra
    )


def scale_display_rows(report: SweepReport) -> List[Dict[str, Any]]:
    """Flatten a scale report into the table the CLI prints: campaign rows
    first, then one synthetic row per fluid scenario."""
    out: List[Dict[str, Any]] = []
    for row in report.rows:
        pct = row.get("percentiles") or {}
        out.append(
            {
                "case": row["case"],
                "P": row["P"],
                "sched": row.get("scheduler", "horizon"),
                "e2e_p50_us": round(float(pct.get("e2e_p50_us", 0.0)), 2),
                "e2e_p99_us": round(float(pct.get("e2e_p99_us", 0.0)), 2),
                "swaps": int(pct.get("swaps_total", 0)),
                "resizes": int(pct.get("resizes_total", 0)),
                "ok": "-",
                "cached": "yes" if row.get("cached") else "no",
            }
        )
    for record in report.extra["fluid"]:
        pct = record["sampled"]["percentiles"]
        out.append(
            {
                "case": f"{record['name']} ({record['clients_per_s']:.0f}/s)",
                "P": 0,
                "sched": "+".join(record["schedulers"]),
                "e2e_p50_us": round(float(pct.get("e2e_p50_us", 0.0)), 2),
                "e2e_p99_us": round(float(pct.get("e2e_p99_us", 0.0)), 2),
                "swaps": 0,
                "resizes": 0,
                "ok": "yes"
                if record["within_tolerance"] and record["fingerprints_identical"]
                else "NO",
                "cached": "-",
            }
        )
    return out
