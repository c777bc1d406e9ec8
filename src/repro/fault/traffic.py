"""``traffic-crash``: an open-loop service scenario built to be crashed.

The closed-loop microbenchmarks measure lock cost; this scenario measures
*service availability while ranks die*.  Every rank is an open-loop client of
one shared lock: requests arrive on a uniform cadence, each request takes the
lock as a writer, computes its critical section, and releases.  It is an
ordinary :class:`~repro.traffic.generators.TrafficScenario`, so it runs on the
one open-loop client (:func:`~repro.traffic.scenarios.make_open_loop_program`)
and its latencies are the ones the traffic accounting reads.  Because
arrivals are anchored to the run's opening time rather than to the previous
response, a survivor's latency series shows exactly how far the service fell
behind while a crash was being recovered — and a crashed rank simply stops
submitting.

The scenario registers under the dedicated ``fault-traffic`` tag (not
``traffic``), so the campaign grids and the ``repro traffic`` sweeps — which
fingerprint unfaulted runs — do not pick it up.  A caller runs it under a
:class:`~repro.fault.FaultPlan` and folds the run, plus its
:class:`~repro.verification.oracles.RecoveryOracleObserver` report, through
:func:`crash_traffic_summary` into an availability / recovery-percentile row
(``examples/fault_demo.py`` does).

Without a fault plan the scenario is an ordinary deterministic benchmark:
``availability == 1.0`` and the usual fingerprint gates apply.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from repro.traffic.accounting import nearest_rank_index
from repro.traffic.generators import TrafficScenario
from repro.traffic.scenarios import register_traffic_scenario

__all__ = ["crash_traffic_summary"]

# One lock, every request a writer, arrivals 12 µs apart on average and a
# fixed 1.5 µs critical section.
register_traffic_scenario(
    TrafficScenario(
        name="traffic-crash",
        help="open-loop single-lock service for crash sweeps: availability and "
        "recovery-time accounting under a FaultPlan",
        num_locks=1,
        arrival="uniform",
        mean_gap_us=12.0,
        key_dist="uniform",
        fw=1.0,
        cs_us=(1.5, 1.5),
    ),
    tags=("fault-traffic",),
)


def crash_traffic_summary(
    config: Any,
    run_returns: List[Any],
    observer_report: Optional[Any] = None,
) -> Dict[str, Any]:
    """Availability and recovery percentiles of one (possibly faulted) run.

    ``run_returns`` is ``RunResult.returns`` of a ``traffic-crash`` run:
    survivor dictionaries plus ``{"__crashed__": True, ...}`` markers.  A
    crashed rank's unserved requests count as submitted-but-lost, so
    availability is ``completed / submitted`` over the whole fleet.  When the
    run was watched by a :class:`~repro.verification.oracles.\
    RecoveryOracleObserver`, its report contributes the crash/restart counts
    and the per-recovery latency percentiles.
    """
    per_rank = int(config.iterations)
    submitted = per_rank * len(run_returns)
    completed = 0
    crashes_seen = 0
    for ret in run_returns:
        if isinstance(ret, dict) and ret.get("__crashed__", False):
            crashes_seen += 1
        else:
            completed += len(ret["latencies"])
    summary: Dict[str, Any] = {
        "benchmark": "traffic-crash",
        "scheme": config.scheme,
        "P": len(run_returns),
        "submitted": submitted,
        "completed": completed,
        "availability": (completed / submitted) if submitted else 0.0,
        "crashed_ranks": crashes_seen,
    }
    if observer_report is not None:
        samples = sorted(getattr(observer_report, "recovery_us", []) or [])
        summary["crashes"] = getattr(observer_report, "crashes", crashes_seen)
        summary["restarts"] = getattr(observer_report, "restarts", 0)
        summary["fenced_releases"] = getattr(observer_report, "fenced_releases", 0)
        n = len(samples)
        summary["recovery_p50_us"] = samples[nearest_rank_index(500, n)] if samples else None
        summary["recovery_p95_us"] = samples[nearest_rank_index(950, n)] if samples else None
        summary["recovery_max_us"] = samples[-1] if samples else None
    return summary
