"""``traffic-crash``: an open-loop service benchmark built to be crashed.

The closed-loop microbenchmarks measure lock cost; this benchmark measures
*service availability while ranks die*.  Every rank is an open-loop client of
one shared lock: requests arrive on a fixed cadence (with a small seeded
jitter), each request takes the lock, computes its critical section, and
releases.  Because arrivals are anchored to the run's opening time rather
than to the previous response, a survivor's latency series shows exactly how
far the service fell behind while a crash was being recovered — and a crashed
rank simply stops submitting.

The benchmark registers under the dedicated ``fault-traffic`` tag (not
``traffic``), so the campaign grids and the ``repro traffic`` sweeps — which
fingerprint unfaulted runs — do not pick it up; it is driven by the fault
sweep (:mod:`repro.bench.faults`), the ``repro faults`` CLI, and
:func:`crash_traffic_summary` below, which folds a faulted run plus its
:class:`~repro.verification.oracles.RecoveryOracleObserver` report into the
availability / recovery-percentile row the ISSUE asks for.

Without a fault plan the program is an ordinary deterministic benchmark:
``availability == 1.0`` and the usual fingerprint gates apply.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from repro.api.registry import register_benchmark
from repro.core.lock_base import RWLockHandle
from repro.rma.runtime_base import BARRIER, COMPUTE, ProcessContext
from repro.traffic.accounting import nearest_rank_index

__all__ = ["crash_traffic_summary"]

#: Open-loop request cadence per rank (virtual microseconds between arrivals)
#: and the uniform jitter drawn on top from the rank's deterministic RNG.
_GAP_US = 12.0
_JITTER_US = 4.0
#: Critical-section compute per request.
_CS_US = 1.5


def _make_crash_traffic_program(config: Any, spec: Any, is_rw: bool):
    """The open-loop client as a step program (see :mod:`repro.rma.runtime_base`)."""
    requests = int(config.iterations)

    def program(ctx: ProcessContext):
        lock = spec.make(ctx)
        observer = ctx.observer
        if observer is not None:
            from repro.verification.oracles import observe_lock

            lock = observe_lock(lock, ctx, observer)
        rng_uniform = ctx.rng.uniform
        now = ctx.now
        yield (BARRIER,)
        t_open = now()
        latencies: List[float] = []
        completed = 0
        for i in range(requests):
            # Anchored to the opening time: a stalled service accumulates
            # backlog into the end-to-end latency instead of hiding it.
            arrival = t_open + i * _GAP_US + float(rng_uniform(0.0, _JITTER_US))
            t_now = now()
            if arrival > t_now:
                yield (COMPUTE, arrival - t_now)
            if is_rw:
                rw_lock: RWLockHandle = lock  # type: ignore[assignment]
                yield from rw_lock.acquire_write_steps()
            else:
                yield from lock.acquire_steps()
            yield (COMPUTE, _CS_US)
            if is_rw:
                yield from rw_lock.release_write_steps()
            else:
                yield from lock.release_steps()
            latencies.append(now() - arrival)
            completed += 1
        end = now()
        yield (BARRIER,)
        return {
            "start": t_open,
            "end": end,
            "latencies": latencies,
            "reads": 0,
            "writes": completed,
            "completed": completed,
            "submitted": requests,
        }

    return program


@register_benchmark(
    "traffic-crash",
    help="open-loop single-lock service for crash sweeps: availability and "
    "recovery-time accounting under a FaultPlan",
    tags=("fault-traffic",),
)
def _factory(config, spec, is_rw, shared_offset):
    return _make_crash_traffic_program(config, spec, is_rw)


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
            completed += int(ret["completed"])
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
