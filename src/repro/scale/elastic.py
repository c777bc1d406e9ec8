"""Elastic lock tables: resize/re-shard the key space at phase boundaries.

A fixed-size lock table wastes memory at low load and concentrates contention
at high load.  An :class:`ElasticPlan` declares how many of a table's entries
are *active* per traffic phase: each request's key folds onto the active
prefix (``key % active``), and a :class:`ResizeEvent` at a phase boundary
grows or shrinks that prefix mid-run.  The plan only supplies the fold and
its per-boundary installs (:attr:`ElasticPlan.crossings`, one
:class:`EntryRegrow` per newly activated entry); the open-loop client
(:func:`repro.traffic.scenarios.make_open_loop_program`) runs them through
the same drain-reinit-install crossing as the adaptive control plane's
scheme swaps (barrier → ``get`` → per-rank slab re-init → flush →
version-guarded install → barrier) — so a resize is a collective,
bit-reproducible virtual-time event: identical fingerprints across
repeat runs, ``--jobs`` settings and the reference interpreter.

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
from typing import Any, Dict, Tuple

import numpy as np

__all__ = [
    "ELASTIC_PLAN",
    "ELASTIC_SCENARIO",
    "ElasticPlan",
    "EntryRegrow",
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
class EntryRegrow:
    """One install of a resize crossing: entry ``entry_index``, re-activated
    by a grow, re-initialized and bumped to slot version ``version``.

    The slab words are rewritten to the spec the entry holds (so lazily-built
    handles — and any attached oracle observer — rebuild against a pristine
    slab) and the spec stays: :meth:`~repro.traffic.table.TableEntry.reinstall`
    only bumps the version, which striped entries, whose scheme slots reject
    swaps, accept too.
    """

    entry_index: int
    version: int

    def placed(self, entry: Any, nranks: int) -> Any:
        return entry.spec

    def install(self, entry: Any, nranks: int) -> None:
        entry.reinstall(version=self.version)


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

    @property
    def crossings(self) -> Tuple[Tuple[EntryRegrow, ...], ...]:
        """Per boundary (``0 .. num_boundaries - 1``), the entries its resize
        crossing re-activates.

        Only growth touches the window: a shrink only narrows the key fold
        (the deactivated entries drain at the barrier and are never addressed
        again), so its crossing, like that of a boundary without an event, is
        the bare barrier pair.  An entry's target version counts its
        activations (1 for the first, matching the ``reset_entries()`` state
        at run start), so a regrown entry's handles rebuild again.
        """
        activations: Dict[int, int] = {}
        by_boundary: Dict[int, Tuple[EntryRegrow, ...]] = {}
        active = self.initial_active
        for event in self.events:
            grown = []
            for index in range(active, event.active):
                activations[index] = activations.get(index, 0) + 1
                grown.append(EntryRegrow(index, activations[index]))
            by_boundary[event.boundary] = tuple(grown)
            active = event.active
        return tuple(by_boundary.get(b, ()) for b in range(self.num_boundaries))

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
