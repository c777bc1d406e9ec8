"""Hot-key detection and topology-aware re-homing of lock table entries.

A statically striped table homes entry ``i`` on rank ``i % nranks`` — fine
under uniform traffic, but a skewed workload whose hot key happens to live
across the machine from the clients generating most of its requests pays a
remote-group hop on every lock-word access.  The control plane's per-entry
traffic statistics (:func:`repro.control.policy.collect_entry_phase_stats`
with ``per_rank=True``) tell us *where* each entry's requests originate;
:func:`repro.control.policy._dominant_node` reduces that to the node
sourcing the plurality of the traffic and the busiest rank within it.  A
:class:`~repro.control.policy.PolicyRule` with ``action="rehome"`` then
rotates the entry's ``home_rank`` (and ``tail_rank``) toward that rank at
the next phase boundary, through exactly the same drain-reinit-install
crossing as a scheme swap — so re-homing inherits the control plane's
determinism story wholesale: identical plans and fingerprints across
repeat runs, ``--jobs`` settings and the reference interpreter.

This module ships the policy plus a matched scenario pair used by the
``scale-suite`` campaign to *measure* the win:

* ``scale-hot`` — static placement.  Entry 0 (the Zipf head, biased to
  three quarters of node 3's traffic) stays homed on rank 0 / node 0.
* ``scale-hot-rehome`` — the identical schedule with :data:`REHOME_POLICY`
  attached; the boundary crossing moves entry 0's home to node 3, and the
  blessed ``BENCH_scale.json`` baseline asserts the end-to-end p99 drops.
"""

from __future__ import annotations

import dataclasses

from repro.control.policy import PolicyRule, PolicyTable
from repro.traffic.generators import Phase, TrafficScenario
from repro.traffic.scenarios import register_traffic_scenario

__all__ = [
    "REHOME_POLICY",
    "STATIC_HOT_SCENARIO",
    "REHOME_SCENARIO",
]

#: One rule: any entry seeing enough traffic with a clear dominant source
#: node gets re-homed onto that node's busiest rank, keeping the scenario's
#: scheme.  ``min_node_share`` guards against thrashing on flat traffic.
REHOME_POLICY = PolicyTable(
    rules=(
        PolicyRule(
            name="follow-the-traffic",
            action="rehome",
            scheme="fompi-spin",
            min_requests=8,
            min_node_share=0.3,
        ),
    ),
    max_swaps_per_boundary=2,
)

#: Skewed three-phase workload whose hot key is fed mostly by the last node.
#: At the campaign's 32 ranks / 8 per node, ``bias_ranks=(24, 32)`` is node 3
#: exactly; entry 0's static home is rank 0 on node 0 — maximally misplaced.
STATIC_HOT_SCENARIO = register_traffic_scenario(
    TrafficScenario(
        name="scale-hot",
        help="hot Zipf head fed from the far node, static entry placement",
        num_locks=64,
        arrival="poisson",
        mean_gap_us=6.0,
        key_dist="zipf",
        zipf_exponent=0.9,
        bias_ranks=(24, 32),
        bias_fraction=0.75,
        bias_key=0,
        # The warm phase is deliberately short relative to the campaign's
        # per-rank request count (48 requests at ~6 us gaps): the re-homing
        # crossing fires at the warm->hot boundary, so the bulk of the run —
        # and the p99 the baseline gates — is served under the new placement.
        phases=(
            Phase(duration_us=36.0, rate_scale=1.0, name="warm"),
            Phase(duration_us=150.0, rate_scale=2.0, name="hot"),
            Phase(duration_us=None, rate_scale=1.0, name="cooldown"),
        ),
    ),
    tags=("scale",),
)

#: The same schedule bit-for-bit (same name-independent generator draws),
#: with the re-homing policy attached: at the warm->hot boundary the plan
#: moves entry 0's home onto the node sourcing 3/4 of its traffic.
REHOME_SCENARIO = register_traffic_scenario(
    dataclasses.replace(
        STATIC_HOT_SCENARIO,
        name="scale-hot-rehome",
        help="the scale-hot workload with topology-aware re-homing attached",
    ),
    policy=REHOME_POLICY,
    tags=("scale",),
)
