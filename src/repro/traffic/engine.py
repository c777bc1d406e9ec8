"""The ``repro traffic`` sweep: scheme x scenario campaigns with percentiles.

This is a thin orchestration layer over the campaign engine: traffic points
*are* campaign points (the scenarios are registered benchmarks), so the
content-addressed :class:`~repro.bench.campaign.ResultCache`, the parallel
executor and the determinism fingerprints all apply unchanged.  What this
module adds:

* **The sweep** — :func:`run_traffic` runs the grid on ``horizon``; its
  rows are bit-identical across repeat runs and ``--jobs`` settings, and
  tier-1 holds them to the reference interpreter (``tests/reference.py``).
* **Percentile report tables** — :func:`traffic_display_rows` flattens the
  nested percentile/phase fields into the table the CLI prints.
* **The committed baseline** — ``repro traffic --bless`` records
  ``BENCH_traffic.json`` through :func:`repro.bench.regress.bless_sweep`;
  :func:`repro.bench.regress.check_traffic_manifest` checks it there and on
  every gate run.
"""

from __future__ import annotations

import time
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Sequence

from repro.api.registry import get_runtime
from repro.bench.campaign import (
    CampaignSpec,
    SweepReport,
    get_campaign,
    run_campaign,
)

__all__ = [
    "run_traffic",
    "top_key_rows",
    "traffic_display_rows",
    "traffic_spec",
]


def traffic_spec(
    *,
    schemes: Optional[Sequence[str]] = None,
    scenarios: Optional[Sequence[str]] = None,
    process_counts: Optional[Sequence[int]] = None,
    iterations: Optional[int] = None,
) -> CampaignSpec:
    """The sweep grid: the registered ``traffic-suite`` campaign, narrowed.

    ``scenarios`` accepts literal benchmark names and the ``traffic`` /
    ``traffic-rw`` selectors.
    """
    return get_campaign("traffic-suite").narrow(
        schemes=schemes, benchmarks=scenarios, process_counts=process_counts, iterations=iterations
    )


def run_traffic(
    spec: Optional[CampaignSpec] = None,
    *,
    schedulers: Sequence[str] = ("horizon",),
    jobs: Optional[int] = None,
    cache: Any = None,
    cache_dir: Optional[Path] = None,
    refresh: bool = False,
) -> SweepReport:
    """Run the traffic grid on every requested scheduler, concatenating rows.

    Rows keep their per-scheduler case names (a scheduler other than
    ``horizon`` suffixes its cases with ``-<name>``), so a merged manifest
    gates every core's fingerprints at once; ``extra["schedulers"]`` names
    the cores.
    """
    if spec is None:
        spec = traffic_spec()
    schedulers = tuple(schedulers)
    if not schedulers:
        raise ValueError("at least one scheduler is required")
    for name in schedulers:
        get_runtime(name)  # validate early, helpful UnknownNameError
    t0 = time.perf_counter()
    reports = [
        run_campaign(
            spec, jobs=jobs, cache=cache, cache_dir=cache_dir, refresh=refresh,
            scheduler=scheduler,
        )
        for scheduler in schedulers
    ]
    return SweepReport(
        suite="traffic",
        name=spec.name,
        rows=[row for report in reports for row in report.rows],
        jobs=reports[-1].jobs,
        wall_s=time.perf_counter() - t0,
        cache_hits=sum(report.cache_hits for report in reports),
        cache_misses=sum(report.cache_misses for report in reports),
        epoch=reports[-1].epoch,
        workers=max(report.workers for report in reports),
        extra={"schedulers": list(schedulers)},
    )


def traffic_display_rows(rows: Sequence[Mapping[str, Any]]) -> List[Dict[str, Any]]:
    """Flatten traffic campaign rows into the percentile table the CLI prints."""
    out: List[Dict[str, Any]] = []
    for row in rows:
        pct = row.get("percentiles") or {}
        out.append(
            {
                "case": row["case"],
                "P": row["P"],
                "sched": row.get("scheduler", "horizon"),
                "e2e_p50_us": round(float(pct.get("e2e_p50_us", 0.0)), 2),
                "e2e_p99_us": round(float(pct.get("e2e_p99_us", 0.0)), 2),
                "e2e_p999_us": round(float(pct.get("e2e_p999_us", 0.0)), 2),
                "acq_p99_us": round(float(pct.get("acquire_p99_us", 0.0)), 2),
                "offered_per_s": round(float(pct.get("offered_per_s", 0.0)), 0),
                "phases": len(row.get("phases") or ()),
                "cached": "yes" if row.get("cached") else "no",
            }
        )
    return out


def top_key_rows(
    spec: CampaignSpec,
    *,
    top_keys: int,
) -> List[Dict[str, Any]]:
    """The ``repro traffic --top-keys N`` report: hottest entries per scenario.

    Pure virtual-time analysis — the shares come from
    :func:`repro.control.policy.collect_entry_phase_stats` over the
    materialized schedules (the same statistics the adaptive swap planner
    and the re-homing planner consume), so the report costs no simulation
    and is identical across repeat runs and ``--jobs`` settings.
    """
    from repro.control.policy import collect_entry_phase_stats
    from repro.traffic.scenarios import get_scenario

    if top_keys < 1:
        raise ValueError("top_keys must be >= 1")
    rows: List[Dict[str, Any]] = []
    for benchmark in spec.resolve_benchmarks():
        scenario = get_scenario(benchmark)
        for procs in spec.process_counts:
            stats = collect_entry_phase_stats(
                scenario,
                seed=spec.seed,
                nranks=int(procs),
                requests=spec.iterations,
                fw_default=spec.fw_values[0] if spec.fw_values else 0.0,
            )
            share = stats.entry_share()
            counts = stats.counts.reshape(stats.num_phases, stats.num_locks).sum(axis=0)
            order = sorted(range(stats.num_locks), key=lambda e: (-share[e], e))
            for rank_pos, entry in enumerate(order[: int(top_keys)], start=1):
                rows.append(
                    {
                        "scenario": benchmark,
                        "P": int(procs),
                        "rank": rank_pos,
                        "key": int(entry),
                        "requests": int(counts[entry]),
                        "share": round(float(share[entry]), 4),
                    }
                )
    return rows
