"""Event tracing for simulated runs: where does the protocol spend its time?

The paper explains its performance results through *where* RMA traffic goes:
topology-oblivious locks pay for inter-node transfers on nearly every
hand-off, while the topology-aware designs keep most traffic inside a node.
This module makes that reasoning measurable on the simulated runtime:

* :class:`TraceRecorder` — a :class:`~repro.rma.runtime_base.RunObserver`;
  install it on a runtime (``SimRuntime(..., observer=recorder)``) to record
  one :class:`TraceEvent` per RMA call: the issuing rank, the call type, the
  target and the virtual start time and duration.
* analysis helpers — per-rank and per-call summaries, a breakdown of
  communication time by topological distance (self / intra-node / inter-node),
  the hottest target ranks (contention hot spots) and per-rank utilisation.
* :func:`render_rank_activity` — a compact ASCII timeline of when each rank
  was busy communicating, for eyeballing protocol phases in examples and
  reports.

Tracing is optional and adds no cost when disabled (the runtime's hook is a
single ``if`` per call).
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence

from repro.rma.ops import RMACall
from repro.rma.runtime_base import RunObserver
from repro.topology.machine import Machine

__all__ = [
    "TraceEvent",
    "TraceRecorder",
    "TraceSummary",
    "distance_breakdown",
    "hottest_targets",
    "render_rank_activity",
    "summarize_trace",
    "trace_rows_by_distance",
]

#: Distance classes used by the breakdowns, ordered from cheapest to most expensive.
DISTANCE_CLASSES = ("self", "same_node", "remote")


@dataclass(frozen=True)
class TraceEvent:
    """One recorded RMA call."""

    rank: int
    call: str
    target: int
    start_us: float
    duration_us: float

    @property
    def end_us(self) -> float:
        return self.start_us + self.duration_us


class TraceRecorder(RunObserver):
    """Collects :class:`TraceEvent` objects from a simulated run.

    The recorder is a run observer (``SimRuntime(..., observer=recorder)``);
    the runtime calls :meth:`on_request` for every RMA call it charges.
    ``capacity`` bounds memory use for long runs — once reached, further
    events are counted but not stored (``dropped_events`` reports how many).
    """

    def __init__(self, capacity: int = 200_000):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = int(capacity)
        self.events: List[TraceEvent] = []
        self.dropped_events = 0

    def on_request(self, rank: int, call: RMACall, target: int, start_us: float, duration_us: float) -> None:
        """Runtime hook: store one event (or count it once the capacity is hit)."""
        if len(self.events) >= self.capacity:
            self.dropped_events += 1
            return
        self.events.append(
            TraceEvent(
                rank=int(rank),
                call=call.value if isinstance(call, RMACall) else str(call),
                target=int(target),
                start_us=float(start_us),
                duration_us=float(duration_us),
            )
        )


@dataclass
class TraceSummary:
    """Aggregate view of one trace."""

    num_events: int
    total_comm_time_us: float
    makespan_us: float
    ops_by_call: Dict[str, int] = field(default_factory=dict)
    time_by_call_us: Dict[str, float] = field(default_factory=dict)

    def as_rows(self) -> List[Dict[str, object]]:
        """One row per call type, for the table formatter."""
        rows = []
        for call, count in sorted(self.ops_by_call.items()):
            rows.append(
                {
                    "call": call,
                    "count": count,
                    "time_us": round(self.time_by_call_us.get(call, 0.0), 2),
                    "share_pct": round(
                        100.0 * self.time_by_call_us.get(call, 0.0) / self.total_comm_time_us, 1
                    )
                    if self.total_comm_time_us > 0
                    else 0.0,
                }
            )
        return rows


def summarize_trace(events: Sequence[TraceEvent]) -> TraceSummary:
    """Total operation counts and communication time, by call type."""
    ops: Counter = Counter()
    time_by_call: Dict[str, float] = defaultdict(float)
    total = 0.0
    makespan = 0.0
    for ev in events:
        ops[ev.call] += 1
        time_by_call[ev.call] += ev.duration_us
        total += ev.duration_us
        makespan = max(makespan, ev.end_us)
    return TraceSummary(
        num_events=len(events),
        total_comm_time_us=total,
        makespan_us=makespan,
        ops_by_call=dict(ops),
        time_by_call_us=dict(time_by_call),
    )


def _distance_class(machine: Machine, origin: int, target: int) -> str:
    if origin == target:
        return "self"
    if machine.same_node(origin, target):
        return "same_node"
    return "remote"


def distance_breakdown(events: Sequence[TraceEvent], machine: Machine) -> Dict[str, Dict[str, float]]:
    """Operations and time split by topological distance of each call.

    This is the quantitative form of the paper's locality argument: for a
    topology-aware lock the ``remote`` share of both counters should be much
    smaller than for a topology-oblivious one under the same workload.
    """
    out: Dict[str, Dict[str, float]] = {
        cls: {"ops": 0.0, "time_us": 0.0} for cls in DISTANCE_CLASSES
    }
    for ev in events:
        cls = _distance_class(machine, ev.rank, ev.target)
        out[cls]["ops"] += 1
        out[cls]["time_us"] += ev.duration_us
    total_ops = sum(v["ops"] for v in out.values())
    total_time = sum(v["time_us"] for v in out.values())
    for cls, values in out.items():
        values["ops_share_pct"] = 100.0 * values["ops"] / total_ops if total_ops else 0.0
        values["time_share_pct"] = 100.0 * values["time_us"] / total_time if total_time else 0.0
    return out


def hottest_targets(events: Sequence[TraceEvent], top: int = 5) -> List[Dict[str, object]]:
    """Ranks receiving the most *remote* traffic — the contention hot spots."""
    if top < 1:
        raise ValueError("top must be >= 1")
    ops: Counter = Counter()
    time_by_target: Dict[int, float] = defaultdict(float)
    for ev in events:
        if ev.target == ev.rank:
            continue
        ops[ev.target] += 1
        time_by_target[ev.target] += ev.duration_us
    rows = [
        {"target": target, "remote_ops": count, "time_us": round(time_by_target[target], 2)}
        for target, count in ops.most_common(top)
    ]
    return rows


def render_rank_activity(
    events: Sequence[TraceEvent],
    num_ranks: int,
    *,
    width: int = 64,
    makespan_us: Optional[float] = None,
) -> str:
    """ASCII activity strip per rank: ``#`` where the rank was communicating.

    Each row is one rank; virtual time runs left to right over ``width``
    buckets.  A bucket is marked when the rank spent any time communicating in
    it, which makes protocol phases (e.g. the serial hand-off chain of a queue
    lock versus the parallel reader phase of an RW lock) visible at a glance.
    """
    if width < 1:
        raise ValueError("width must be >= 1")
    if num_ranks < 1:
        raise ValueError("num_ranks must be >= 1")
    end = makespan_us if makespan_us is not None else max((ev.end_us for ev in events), default=0.0)
    if end <= 0:
        end = 1.0
    grid = [[" "] * width for _ in range(num_ranks)]
    for ev in events:
        if not 0 <= ev.rank < num_ranks:
            continue
        first = min(width - 1, int(ev.start_us / end * width))
        last = min(width - 1, int(max(ev.start_us, ev.end_us - 1e-9) / end * width))
        for bucket in range(first, last + 1):
            grid[ev.rank][bucket] = "#"
    label_width = len(str(num_ranks - 1))
    lines = [f"rank {str(rank).rjust(label_width)} |{''.join(row)}|" for rank, row in enumerate(grid)]
    header = f"virtual time 0 .. {end:.1f} us ({width} buckets)"
    return "\n".join([header] + lines)


def trace_rows_by_distance(
    breakdown: Mapping[str, Mapping[str, float]],
) -> List[Dict[str, object]]:
    """Flatten a :func:`distance_breakdown` result into report rows."""
    rows = []
    for cls in DISTANCE_CLASSES:
        values = breakdown.get(cls, {})
        rows.append(
            {
                "distance": cls,
                "ops": int(values.get("ops", 0)),
                "ops_share_pct": round(values.get("ops_share_pct", 0.0), 1),
                "time_us": round(values.get("time_us", 0.0), 2),
                "time_share_pct": round(values.get("time_share_pct", 0.0), 1),
            }
        )
    return rows
