"""Open-loop traffic engine: multi-lock service simulation with tail latency.

The paper's evaluation (and the benchmark harness reproducing it) measures
locks in a closed loop — throughput under saturation on a single lock.  This
package measures them the way the RDMA lock-management literature evaluates
lock *services*: open-loop request arrivals against a table of many locks
with skewed key popularity, time-varying load phases, and latency-percentile
accounting.  The pieces:

* :mod:`repro.traffic.generators` — seeded, bit-reproducible request
  schedules: Poisson/uniform/burst arrivals, Zipf/uniform key popularity,
  read/write mixes, CS/think-time distributions and phased load shifts.
* :mod:`repro.traffic.table` — the lock-table service layer: any registered
  ``@register_scheme`` lock replicated per table entry (or the DHT's striped
  lock reused as a table), behind the ordinary ``LockSpec`` surface.
* :mod:`repro.traffic.accounting` — deterministic p50/p90/p99/p99.9
  reservoirs over acquire and end-to-end latencies, plus per-phase rows.
* :mod:`repro.traffic.scenarios` — scenarios self-register as benchmarks
  (``traffic-zipf``, ``traffic-phased``, ...), so the harness, campaigns,
  chaos perturbation and the conformance oracles all drive them unchanged.
* :mod:`repro.traffic.engine` — the ``repro traffic`` sweep: scheme x
  scenario campaigns with the content-addressed cache, percentile report
  tables and the committed ``BENCH_traffic.json`` baseline.

Every table entry is a mutable *scheme slot* (:class:`TableEntry`): the
adaptive control plane (:mod:`repro.control`) swaps per-entry schemes and
thresholds at phase boundaries as deterministic virtual-time events, and
``repro tune`` maintains the best-known thresholds the policies feed from.
See the "Adaptive control plane" section of the README for the policy-table
format and the swap semantics.

For loads past what per-request simulation can materialize (10^6+ clients/s),
:mod:`repro.scale` layers a fluid-flow model, sampled-cohort tail recovery,
elastic table resizing and topology-aware re-homing on top of this package —
see the "Fluid-scale traffic & elasticity" section of the README.
"""

from repro.traffic.accounting import (
    PERCENTILES,
    LatencyReservoir,
    TrafficSummary,
    aggregate_traffic,
    nearest_rank_index,
    nearest_rank_percentiles,
)
from repro.traffic.generators import (
    ARRIVAL_KINDS,
    KEY_DISTRIBUTIONS,
    Phase,
    RequestSchedule,
    TrafficScenario,
    generate_schedule,
    traffic_rng,
    zipf_cdf,
    zipf_head_frequencies,
)
from repro.traffic.scenarios import (
    ADAPTIVE_POLICY,
    ADAPTIVE_SCENARIO,
    BUILTIN_SCENARIOS,
    register_traffic_scenario,
    scenario_tags,
)
from repro.traffic.table import (
    LockTableHandle,
    LockTableSpec,
    StripedLockTableSpec,
    TableEntry,
    as_lock_table,
    build_lock_table,
)

__all__ = [
    "ADAPTIVE_POLICY",
    "ADAPTIVE_SCENARIO",
    "ARRIVAL_KINDS",
    "BUILTIN_SCENARIOS",
    "KEY_DISTRIBUTIONS",
    "PERCENTILES",
    "LatencyReservoir",
    "LockTableHandle",
    "LockTableSpec",
    "Phase",
    "RequestSchedule",
    "StripedLockTableSpec",
    "TableEntry",
    "TrafficScenario",
    "TrafficSummary",
    "aggregate_traffic",
    "as_lock_table",
    "build_lock_table",
    "generate_schedule",
    "nearest_rank_index",
    "nearest_rank_percentiles",
    "register_traffic_scenario",
    "scenario_tags",
    "traffic_rng",
    "zipf_cdf",
    "zipf_head_frequencies",
]
