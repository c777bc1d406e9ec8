"""The online half of the adaptive control plane: declarative policy switching.

The paper's Section 5 sensitivity analysis shows the best lock design (and
the best DC/DR/DW/DT thresholds within one design) depend on the read
fraction and the contention level — exactly the quantities the traffic
engine's phased scenarios vary mid-run.  This module turns that observation
into a *controller*: a declarative :class:`PolicyTable` maps per-entry
traffic statistics (read fraction, waiter depth) to a target scheme +
thresholds, and the open-loop client
(:func:`repro.traffic.scenarios.make_open_loop_program`) installs the
resulting :class:`SwapPlan` at :class:`~repro.traffic.generators.Phase`
boundaries as collective, bit-reproducible virtual-time events.

Determinism contract — the part that makes adaptive runs gate-able:

* Decisions are derived **only from virtual-time state**: the per-entry
  per-phase statistics come from the materialized request schedules (pure
  functions of ``(scenario, seed, rank)``), never from measured wall time or
  run-order-dependent quantities.  :func:`build_swap_plan` therefore computes
  the identical plan on every repeat run, under any ``--jobs`` setting and
  on the reference interpreter.
* A swap executes at a phase boundary as a *drain-then-reinit* crossing,
  the one an elastic resize uses too: every rank barriers (so no holder is
  in flight), rewrites its **own** window words of the affected slabs to
  the new scheme's initial values, flushes, installs the new spec into the
  shared :class:`TableEntry` slot (idempotent, version-guarded — any rank
  may install, exactly one does, :meth:`EntrySwap.install`) and barriers
  again.  Handles rebuild lazily from the entry version; an attached oracle
  observer survives the rebuild, so safety/fairness verdicts span the swap.
* An empty plan adds **zero** barriers and zero RMA operations: a null
  policy is bit-identical to a policy-free run.

The offline half (``repro tune``, :mod:`repro.control.tune`) produces the
best-known thresholds this table feeds from.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Optional, Tuple

import numpy as np

from repro.api.registry import SchemeInfo, get_scheme, scheme_names

# repro.traffic imports this module at scenario-registration time, so the
# traffic imports below must stay function-local (importing the traffic
# package here would close the cycle).
if False:  # pragma: no cover - typing only
    from repro.traffic.generators import TrafficScenario

__all__ = [
    "EntryPhaseStats",
    "EntrySwap",
    "PolicyRule",
    "PolicyTable",
    "SwapPlan",
    "TrafficStats",
    "build_swap_plan",
    "collect_entry_phase_stats",
    "policy_min_entry_words",
]


@dataclass(frozen=True)
class EntryPhaseStats:
    """Virtual-time traffic statistics of one table entry during one phase.

    ``read_fraction`` is the fraction of the entry's requests arriving as
    reads; ``waiter_depth`` is the offered critical-section utilization
    (total CS time over the phase span, summed across ranks) — a value above
    1.0 means the entry cannot serve its offered load without queueing, the
    virtual-time proxy for a deep waiter queue.
    """

    entry: int
    phase: int
    requests: int
    writes: int
    cs_us_total: float
    span_us: float

    @property
    def read_fraction(self) -> float:
        if self.requests <= 0:
            return 0.0
        return 1.0 - self.writes / self.requests

    @property
    def waiter_depth(self) -> float:
        if self.span_us <= 0.0:
            return 0.0
        return self.cs_us_total / self.span_us


@dataclass(frozen=True)
class PolicyRule:
    """One row of a policy table: a stats window mapped to a target scheme.

    A rule *matches* a stats row when the entry saw at least ``min_requests``
    requests and both the read fraction and the waiter depth fall inside the
    rule's closed bounds.  ``params`` are the thresholds passed to the target
    scheme's registered builder (e.g. ``(("t_r", 256),)`` for a read-heavy
    ``rma-rw`` rule) — validated against the scheme's
    :class:`~repro.api.registry.ParamSpec` declarations, so third-party
    ``@register_scheme`` locks are valid targets for free.

    ``action`` selects what a match does.  ``"swap"`` (the default) installs
    the rule's scheme with its params.  ``"rehome"`` additionally moves the
    placed spec's ``home_rank``/``tail_rank`` toward the *node* originating
    most of the entry's requests in the decision phase (the paper's locality
    story applied online; see :mod:`repro.scale.rehome`) — the dominant node
    must carry at least ``min_node_share`` of the entry's requests, and a
    rehome that would land on the entry's current home is skipped.
    """

    name: str
    scheme: str
    params: Tuple[Tuple[str, Any], ...] = ()
    min_read_fraction: float = 0.0
    max_read_fraction: float = 1.0
    min_waiter_depth: float = 0.0
    max_waiter_depth: float = math.inf
    min_requests: int = 1
    action: str = "swap"
    min_node_share: float = 0.0

    def __post_init__(self) -> None:
        if isinstance(self.params, Mapping):
            object.__setattr__(self, "params", tuple(sorted(self.params.items())))
        else:
            object.__setattr__(self, "params", tuple((k, v) for k, v in self.params))
        info = get_scheme(self.scheme)
        reason = info.swap_incompatible_reason()
        if reason is not None:
            # Fail at rule-construction time, not mid-run inside
            # build_swap_plan or a crossing, and tell the author which
            # registered schemes *are* valid swap targets.
            candidates = [
                name for name in scheme_names()
                if get_scheme(name).swap_compatible
            ]
            raise ValueError(
                f"policy rule {self.name!r} targets scheme {self.scheme!r}, "
                f"which is not swap-compatible: {reason}. "
                f"Swap-compatible schemes: {', '.join(candidates)}"
            )
        for key, value in self.params:
            info.param(key)  # raises UnknownNameError for unknown thresholds
        if not 0.0 <= self.min_read_fraction <= self.max_read_fraction <= 1.0:
            raise ValueError("read-fraction bounds must satisfy 0 <= min <= max <= 1")
        if not 0.0 <= self.min_waiter_depth <= self.max_waiter_depth:
            raise ValueError("waiter-depth bounds must satisfy 0 <= min <= max")
        if self.min_requests < 1:
            raise ValueError("min_requests must be >= 1")
        if self.action not in ("swap", "rehome"):
            raise ValueError(
                f"policy rule {self.name!r} has unknown action {self.action!r}; "
                f"expected 'swap' or 'rehome'"
            )
        if not 0.0 <= self.min_node_share <= 1.0:
            raise ValueError("min_node_share must be within [0, 1]")

    def matches(self, stats: EntryPhaseStats) -> bool:
        if stats.requests < self.min_requests:
            return False
        return (
            self.min_read_fraction <= stats.read_fraction <= self.max_read_fraction
            and self.min_waiter_depth <= stats.waiter_depth <= self.max_waiter_depth
        )

    def build_spec(self, machine: Any) -> Tuple[Any, SchemeInfo]:
        """Build the rule's target base spec for ``machine``."""
        info = get_scheme(self.scheme)
        return info.build(machine, **dict(self.params)), info


@dataclass(frozen=True)
class PolicyTable:
    """An ordered rule list plus a per-boundary swap budget.

    ``decide`` returns the first matching rule (order is priority).  The
    budget caps how many entries may swap at one boundary — the hottest
    entries (most requests in the decision phase) win, which bounds the
    re-initialization traffic a crossing injects.
    """

    rules: Tuple[PolicyRule, ...] = ()
    max_swaps_per_boundary: int = 4

    def __post_init__(self) -> None:
        object.__setattr__(self, "rules", tuple(self.rules))
        if self.max_swaps_per_boundary < 1:
            raise ValueError("max_swaps_per_boundary must be >= 1")

    def decide(self, stats: EntryPhaseStats) -> Optional[PolicyRule]:
        for rule in self.rules:
            if rule.matches(stats):
                return rule
        return None


@dataclass(frozen=True)
class EntrySwap:
    """One planned scheme-slot install: entry × boundary × target version.

    ``home_rank`` is the re-homing override: ``None`` keeps the table's
    default round-robin placement, a rank pins the placed spec's
    ``home_rank``/``tail_rank`` there (see :meth:`TableEntry.place`).
    """

    boundary: int
    entry_index: int
    version: int
    scheme: str
    rw: bool
    rule: str
    spec: Any
    home_rank: Optional[int] = None

    def placed(self, entry: Any, nranks: int) -> Any:
        """The spec the crossing re-initializes ``entry``'s slab for."""
        return entry.place(self.spec, nranks=nranks, home_rank=self.home_rank)

    def install(self, entry: Any, nranks: int) -> None:
        """Install into ``entry`` (version-guarded: only the first rank's call does)."""
        entry.swap_spec(
            self.spec,
            rw=self.rw,
            scheme=self.scheme,
            nranks=nranks,
            version=self.version,
            home_rank=self.home_rank,
        )


@dataclass(frozen=True)
class SwapPlan:
    """The precomputed swap schedule of one run.

    ``num_boundaries`` counts the scenario's finite phase boundaries; a rank
    crosses each exactly once, in order, installing :attr:`crossings`.  An
    ``empty`` plan (no swaps) adds no crossing — zero extra barriers, zero
    extra RMA ops, bit-identical fingerprints.
    """

    num_boundaries: int
    swaps: Tuple[EntrySwap, ...] = ()

    @property
    def empty(self) -> bool:
        return not self.swaps

    @property
    def crossings(self) -> Tuple[Tuple[EntrySwap, ...], ...]:
        """Per boundary, the swaps its crossing installs (possibly none)."""
        return tuple(
            tuple(swap for swap in self.swaps if swap.boundary == boundary)
            for boundary in range(self.num_boundaries)
        )


def policy_min_entry_words(machine: Any, policy: PolicyTable) -> int:
    """Slab floor so every rule's target scheme fits any table entry.

    Scenario registrations pass this as ``build_lock_table``'s
    ``min_entry_words``, so a table built for (say) ``fompi-spin`` still has
    room to place an ``rma-rw`` spec with its larger distributed-counter
    footprint.
    """
    words = 0
    for rule in policy.rules:
        spec, _ = rule.build_spec(machine)
        words = max(words, spec.window_words)
    return words


@dataclass(frozen=True)
class TrafficStats:
    """Aggregated per-(phase, entry) request statistics of one scenario run.

    Flat arrays indexed ``phase * num_locks + entry``; ``rank_counts`` (only
    collected when requested) adds the per-source-rank breakdown the
    topology-aware re-homing planner and the ``--top-keys`` report consume.
    Pure virtual-time state: everything derives from the materialized
    request schedules, never from measured time.
    """

    num_locks: int
    num_phases: int
    counts: np.ndarray
    writes: np.ndarray
    cs_us: np.ndarray
    rank_counts: Optional[np.ndarray] = None

    def entry_share(self) -> np.ndarray:
        """Per-entry request share over the whole run (sums to 1, or 0)."""
        per_entry = self.counts.reshape(self.num_phases, self.num_locks).sum(axis=0)
        total = per_entry.sum()
        if total <= 0:
            return np.zeros(self.num_locks, dtype=np.float64)
        return per_entry.astype(np.float64) / float(total)


def collect_entry_phase_stats(
    scenario: TrafficScenario,
    *,
    seed: int,
    nranks: int,
    requests: int,
    fw_default: float = 0.0,
    num_locks: Optional[int] = None,
    per_rank: bool = False,
) -> TrafficStats:
    """Aggregate all ranks' materialized schedules into :class:`TrafficStats`.

    The single source of per-entry traffic statistics: the swap planner, the
    re-homing planner and the traffic engine's hot-key report all fold the
    same ``np.bincount`` over ``phase * num_locks + entry`` keys, so their
    views of "hot" agree bit-exactly.  ``num_locks`` defaults to the
    scenario's table size (pass the live table's size when a caller folds
    keys onto a smaller table).
    """
    from repro.traffic.generators import generate_schedule

    locks = int(scenario.num_locks if num_locks is None else num_locks)
    num_phases = len(scenario.effective_phases())
    size = num_phases * locks
    counts = np.zeros(size, dtype=np.int64)
    writes = np.zeros(size, dtype=np.float64)
    cs_tot = np.zeros(size, dtype=np.float64)
    rank_counts = np.zeros((size, nranks), dtype=np.int64) if per_rank else None
    for rank in range(int(nranks)):
        sched = generate_schedule(scenario, seed, rank, requests, fw_default)
        if not len(sched):
            continue
        entries = np.mod(sched.lock_index, locks)
        keys = sched.phase * locks + entries
        counts += np.bincount(keys, minlength=size)
        writes += np.bincount(keys, weights=sched.is_write.astype(np.float64), minlength=size)
        cs_tot += np.bincount(keys, weights=sched.cs_us, minlength=size)
        if rank_counts is not None:
            rank_counts[:, rank] = np.bincount(keys, minlength=size)
    return TrafficStats(
        num_locks=locks,
        num_phases=num_phases,
        counts=counts,
        writes=writes,
        cs_us=cs_tot,
        rank_counts=rank_counts,
    )


def _dominant_node(
    machine: Any, entry_rank_counts: np.ndarray
) -> Tuple[int, int, float]:
    """The node originating most of an entry's requests.

    Returns ``(home_rank, node_index, share)`` where ``home_rank`` is the
    busiest rank of the dominant node (deterministic tie-breaks: lowest node,
    then lowest rank).
    """
    nranks = int(entry_rank_counts.shape[0])
    total = float(entry_rank_counts.sum())
    node_totals: Dict[int, int] = {}
    for rank in range(nranks):
        node = int(machine.node_of(rank))
        node_totals[node] = node_totals.get(node, 0) + int(entry_rank_counts[rank])
    best_node = min(node_totals, key=lambda n: (-node_totals[n], n))
    best_rank = -1
    best_count = -1
    for rank in range(nranks):
        if int(machine.node_of(rank)) != best_node:
            continue
        count = int(entry_rank_counts[rank])
        if count > best_count:
            best_rank, best_count = rank, count
    share = (node_totals[best_node] / total) if total > 0 else 0.0
    return best_rank, best_node, share


def build_swap_plan(
    scenario: TrafficScenario,
    config: Any,
    table: Any,
    policy: Optional[PolicyTable],
) -> SwapPlan:
    """Compute the deterministic swap schedule of one scenario run.

    Statistics are aggregated from **all** ranks' materialized request
    schedules — pure virtual-time state, identical across repeat runs and
    job counts.  Decisions are reactive: the crossing into phase ``b + 1`` uses
    the statistics of phase ``b`` (always a finite phase, so spans are well
    defined).  Per boundary, at most ``policy.max_swaps_per_boundary``
    entries swap, hottest first (ties broken by entry index).

    ``rehome`` rules consult the per-source-rank breakdown: a matched entry
    is re-placed with its ``home_rank`` pinned to the busiest rank of the
    node originating most of its traffic (provided that node carries at
    least the rule's ``min_node_share`` and the home actually moves).
    """
    from repro.traffic.table import LockTableSpec

    phases = scenario.effective_phases()
    ends: List[float] = []
    t_end = 0.0
    for phase in phases:
        t_end = math.inf if phase.duration_us is None else t_end + float(phase.duration_us)
        ends.append(t_end)
    finite_ends = [e for e in ends[:-1] if math.isfinite(e)]
    num_boundaries = len(finite_ends)
    if (
        policy is None
        or not policy.rules
        or num_boundaries == 0
        or not isinstance(table, LockTableSpec)
    ):
        return SwapPlan(num_boundaries=0)

    machine = config.machine
    nranks = int(machine.num_processes)
    num_locks = table.num_locks
    need_rank_counts = any(rule.action == "rehome" for rule in policy.rules)
    stats_all = collect_entry_phase_stats(
        scenario,
        seed=int(config.seed),
        nranks=nranks,
        requests=int(config.iterations),
        fw_default=float(config.fw),
        num_locks=num_locks,
        per_rank=need_rank_counts,
    )
    counts, writes, cs_tot = stats_all.counts, stats_all.writes, stats_all.cs_us

    swaps: List[EntrySwap] = []
    versions: Dict[int, int] = {}
    # Planned identity per entry: (scheme, params, home).  Params start as
    # None ("construction-time thresholds, unknown here"), so a rule
    # targeting the run's own scheme still swaps once to pin its thresholds;
    # homes start at the construction placement, so a rehome that would not
    # move the home plans nothing.
    current: Dict[int, Tuple[str, Any, Optional[int]]] = {}

    def current_identity(entry_index: int) -> Tuple[str, Any, Optional[int]]:
        got = current.get(entry_index)
        if got is not None:
            return got
        home = getattr(table.entry(entry_index).spec, "home_rank", None)
        if home is None:
            home = getattr(table.entry(entry_index).spec, "tail_rank", None)
        return (table.scheme, None, home)

    phase_start = 0.0
    for boundary in range(num_boundaries):
        span = finite_ends[boundary] - phase_start
        phase_start = finite_ends[boundary]
        candidates: List[Tuple[int, int, PolicyRule, Optional[int]]] = []
        base_key = boundary * num_locks
        for entry_index in range(num_locks):
            n = int(counts[base_key + entry_index])
            if n == 0:
                continue
            stats = EntryPhaseStats(
                entry=entry_index,
                phase=boundary,
                requests=n,
                writes=int(writes[base_key + entry_index]),
                cs_us_total=float(cs_tot[base_key + entry_index]),
                span_us=span,
            )
            rule = policy.decide(stats)
            if rule is None:
                continue
            home: Optional[int] = None
            if rule.action == "rehome":
                assert stats_all.rank_counts is not None
                home, _, share = _dominant_node(
                    machine, stats_all.rank_counts[base_key + entry_index]
                )
                if home < 0 or share < rule.min_node_share:
                    continue
            cur_scheme, cur_params, cur_home = current_identity(entry_index)
            if rule.action == "rehome":
                if (cur_scheme, cur_home) == (rule.scheme, home):
                    continue
            elif (cur_scheme, cur_params) == (rule.scheme, rule.params):
                continue
            candidates.append((n, entry_index, rule, home))
        candidates.sort(key=lambda c: (-c[0], c[1]))
        for n, entry_index, rule, home in candidates[: policy.max_swaps_per_boundary]:
            spec, info = rule.build_spec(machine)
            # Validate placement now — a slab too small for the rule's scheme
            # (or a homeless spec under a rehome rule) should fail at plan
            # time with a clear message, not mid-run.
            table.entry(entry_index).place(spec, nranks=nranks, home_rank=home)
            versions[entry_index] = versions.get(entry_index, 0) + 1
            swaps.append(
                EntrySwap(
                    boundary=boundary,
                    entry_index=entry_index,
                    version=versions[entry_index],
                    scheme=rule.scheme,
                    rw=info.rw,
                    rule=rule.name,
                    spec=spec,
                    home_rank=home,
                )
            )
            current[entry_index] = (
                rule.scheme,
                None if rule.action == "rehome" else rule.params,
                home,
            )
    return SwapPlan(num_boundaries=num_boundaries, swaps=tuple(swaps))
