"""Elastic lock tables: resize/re-shard the key space at phase boundaries.

A fixed-size lock table wastes memory at low load and concentrates contention
at high load.  An :class:`ElasticPlan` declares how many of a table's entries
are *active* per traffic phase: each request's key folds onto the active
prefix (``key % active``), and a :class:`ResizeEvent` at a phase boundary
grows or shrinks that prefix mid-run.  Growth re-initializes the newly
activated entries' slabs through the versioned-install path of
:meth:`repro.traffic.table.TableEntry` (barrier → ``get`` → per-rank
slab re-init → flush → version-guarded :meth:`~repro.traffic.table.TableEntry.reinstall`
→ barrier), exactly mirroring the adaptive control plane's scheme-swap
crossing — so a resize is a collective, bit-reproducible virtual-time event:
identical fingerprints across deterministic schedulers and across
``--jobs`` settings.

The plan is *declarative and pure*: every rank derives the same active-entry
schedule locally from the plan (no shared mutable counter), which is what
keeps the re-sharding deterministic under threaded runtimes.

Scenarios attach a plan through
:func:`repro.traffic.scenarios.register_traffic_scenario`'s ``elastic``
keyword; the built-in ``scale-elastic`` scenario below exercises a grow and
a shrink across three phases.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Tuple

import numpy as np

from repro.rma.runtime_base import BARRIER, FLUSH, GET, PUT, Steps

__all__ = [
    "ELASTIC_PLAN",
    "ELASTIC_SCENARIO",
    "ElasticController",
    "ElasticPlan",
    "ResizeEvent",
]


@dataclass(frozen=True)
class ResizeEvent:
    """One resize: after phase boundary ``boundary``, ``active`` entries serve."""

    boundary: int
    active: int

    def __post_init__(self) -> None:
        if self.boundary < 0:
            raise ValueError("resize boundary must be non-negative")
        if self.active < 1:
            raise ValueError("resize active count must be >= 1")


@dataclass(frozen=True)
class ElasticPlan:
    """The declarative resize schedule of one scenario.

    ``capacity`` is the table's construction size (the maximum the plan may
    activate); ``initial_active`` how many entries serve phase 0.  Events are
    keyed by phase boundary: crossing boundary ``b`` (between phases ``b``
    and ``b + 1``) applies the event's ``active`` count to every later phase
    until the next event.
    """

    capacity: int
    initial_active: int
    events: Tuple[ResizeEvent, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "events", tuple(self.events))
        if self.capacity < 1:
            raise ValueError("capacity must be >= 1")
        if not 1 <= self.initial_active <= self.capacity:
            raise ValueError("initial_active must be within [1, capacity]")
        last = -1
        for event in self.events:
            if event.boundary <= last:
                raise ValueError("resize events must have strictly increasing boundaries")
            if event.active > self.capacity:
                raise ValueError(
                    f"resize to {event.active} entries exceeds the table capacity "
                    f"{self.capacity}"
                )
            last = event.boundary

    @property
    def num_boundaries(self) -> int:
        """Boundaries the rank program must cross collectively (0..max event)."""
        if not self.events:
            return 0
        return self.events[-1].boundary + 1

    def active_by_phase(self, num_phases: int) -> np.ndarray:
        """Active entry count per phase index (length ``num_phases``)."""
        active = np.full(int(num_phases), self.initial_active, dtype=np.int64)
        for event in self.events:
            if event.boundary + 1 < num_phases:
                active[event.boundary + 1 :] = event.active
        return active

    def validate(self, scenario: Any) -> None:
        """Check the plan fits ``scenario`` (called at registration time)."""
        if self.capacity != scenario.num_locks:
            raise ValueError(
                f"elastic plan capacity {self.capacity} != scenario "
                f"{scenario.name!r} num_locks {scenario.num_locks}"
            )
        finite_boundaries = len(scenario.effective_phases()) - 1
        if self.num_boundaries > finite_boundaries:
            raise ValueError(
                f"elastic plan needs {self.num_boundaries} phase boundaries but "
                f"scenario {scenario.name!r} has only {finite_boundaries}"
            )

    def make_controller(self, table: Any) -> "ElasticController":
        """Bind the plan to a live table (the rank program's crossing hook)."""
        return ElasticController(table, self)


class ElasticController:
    """Executes an :class:`ElasticPlan` against a live table.

    :meth:`cross_steps` is the collective resize event every rank performs at
    each plan boundary, following :class:`repro.control.policy.PolicyController`'s
    drain-reinit-install shape.  Only *growth* touches the window: the
    entries activated by the crossing get their slab words rewritten to the
    construction spec's initial values and their slots version-bumped (so
    lazily-built handles — and any attached oracle observer — rebuild against
    the pristine slab).  A shrink only narrows the key fold; the deactivated
    entries drain at the barrier and are simply never addressed again.
    """

    def __init__(self, table: Any, plan: ElasticPlan):
        self.table = table
        self.plan = plan
        # Precompute each boundary's newly-activated entries and their
        # target slot versions (1-based occurrence count per entry, matching
        # the reset_entries() state at run start).  Pure function of the
        # plan, so every rank derives the identical schedule.
        occurrences: Dict[int, int] = {}
        by_boundary: Dict[int, Tuple[Tuple[int, ...], Dict[int, int]]] = {}
        active = plan.initial_active
        for event in plan.events:
            grown: List[int] = []
            targets: Dict[int, int] = {}
            if event.active > active:
                for index in range(active, event.active):
                    occurrences[index] = occurrences.get(index, 0) + 1
                    grown.append(index)
                    targets[index] = occurrences[index]
            by_boundary[event.boundary] = (tuple(grown), targets)
            active = event.active
        self._by_boundary = by_boundary

    def cross_steps(self, ctx: Any, boundary: int) -> Steps:
        """Perform the collective resize crossing; returns re-init count."""
        yield (BARRIER,)
        grown, targets = self._by_boundary.get(boundary, ((), {}))
        if grown:
            rank = ctx.rank
            # Kept for the same reason as in PolicyController.cross_steps: a
            # counted operation of the crossing, included in every elastic
            # fingerprint pinned in BENCH_scale.json.
            yield (GET, rank, self.table.entry(grown[0]).base_offset)
            for index in grown:
                entry = self.table.entry(index)
                inits = entry.spec.init_window(rank)
                for offset in range(entry.base_offset, entry.base_offset + entry.stride):
                    yield (PUT, int(inits.get(offset, 0)), rank, offset)
            yield (FLUSH, rank)
            for index in grown:
                self.table.entry(index).reinstall(version=targets[index])
        yield (BARRIER,)
        return len(grown)


# --------------------------------------------------------------------------- #
# Built-in elastic scenario (registered under the "scale" tag so the
# committed traffic baselines stay untouched).
# --------------------------------------------------------------------------- #

def _register_builtin():
    from repro.traffic.generators import Phase, TrafficScenario
    from repro.traffic.scenarios import register_traffic_scenario

    plan = ElasticPlan(
        capacity=64,
        initial_active=8,
        events=(ResizeEvent(boundary=0, active=64), ResizeEvent(boundary=1, active=16)),
    )
    scenario = register_traffic_scenario(
        TrafficScenario(
            name="scale-elastic",
            help="elastic table: 8 entries -> grow to 64 under load -> shrink to 16",
            num_locks=64,
            arrival="poisson",
            mean_gap_us=8.0,
            key_dist="zipf",
            zipf_exponent=0.9,
            # Spans sized to the campaign's per-rank request count (48 at
            # 8 us base gaps) so requests actually land in all three phases:
            # the grow crossing re-shards the surge, the shrink crossing the
            # settle tail.
            phases=(
                Phase(duration_us=32.0, rate_scale=1.0, name="low"),
                Phase(duration_us=96.0, rate_scale=2.0, name="surge"),
                Phase(duration_us=None, rate_scale=0.75, name="settle"),
            ),
        ),
        elastic=plan,
        tags=("scale",),
    )
    return plan, scenario


ELASTIC_PLAN, ELASTIC_SCENARIO = _register_builtin()
