"""Traffic scenarios: open-loop service simulations as registered benchmarks.

A :class:`~repro.traffic.generators.TrafficScenario` registered through
:func:`register_traffic_scenario` becomes an ordinary benchmark-registry
entry, which is the whole integration story in one decorator call:

* ``LockBenchConfig(scheme=..., benchmark="traffic-zipf")`` validates and
  runs through :func:`repro.bench.harness.run_lock_benchmark` unchanged —
  ``iterations`` is the per-rank request count, ``fw`` the writer fraction
  (when the scenario doesn't pin one), ``seed`` feeds the schedule
  generators.
* The registered ``spec_transform`` swaps the single lock the harness built
  for a full :class:`~repro.traffic.table.LockTableSpec` sized to the
  scenario's ``num_locks``, so the runtime's windows cover the whole table.
  The table is built once per process for its configuration and handed out
  reset (see ``_shared_table``).
* The registered ``program_factory`` replaces the closed benchmark loop with
  the open-loop client: each rank takes its deterministic request schedule
  (drawn once per process and shared, see
  :func:`~repro.traffic.generators.generate_schedule`) *before* the run,
  then serves requests at their arrival times —
  waiting out idle gaps with ``ctx.compute`` and carrying queueing backlog
  into the end-to-end latency when the service falls behind.  One body,
  :func:`make_open_loop_program`, serves every run: an attached policy or
  elastic plan only hands it a per-phase key fold and the per-boundary
  installs its one drain-reinit-install crossing performs.
* The ``tags`` (``"traffic"``, ``"traffic-rw"``) feed the campaign engine's
  benchmark selectors, so campaigns such as ``traffic-suite`` sweep every
  registered scenario — including third-party ones — for free.
* Chaos and conformance ride along: a seeded
  :class:`~repro.rma.perturbation.PerturbationModel` perturbs traffic points
  exactly like closed-loop points, and when a run observer is installed the
  program attaches the live safety/fairness oracles to the table's hottest
  entry (index 0 — the Zipf head), whose per-lock invariants they check.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.api.registry import get_scheme, register_benchmark
from repro.control.policy import (
    PolicyRule,
    PolicyTable,
    build_swap_plan,
    policy_min_entry_words,
)
from repro.core.lock_base import RWLockHandle, program_for_spec
from repro.rma.runtime_base import BARRIER, COMPUTE, FLUSH, GET, PUT, ProcessContext, Steps
from repro.traffic.generators import Phase, TrafficScenario, generate_schedule
from repro.traffic.table import as_lock_table, build_lock_table

__all__ = [
    "ADAPTIVE_POLICY",
    "ADAPTIVE_SCENARIO",
    "BUILTIN_SCENARIOS",
    "get_scenario",
    "make_open_loop_program",
    "register_traffic_scenario",
    "scenario_tags",
]

#: Registered scenarios by benchmark name — the traffic engine's hot-key
#: report and the fluid-scale engine resolve scenario objects through this.
_SCENARIOS: Dict[str, TrafficScenario] = {}


def get_scenario(name: str) -> TrafficScenario:
    """The registered :class:`TrafficScenario` behind benchmark ``name``."""
    try:
        return _SCENARIOS[name]
    except KeyError:
        raise KeyError(
            f"no traffic scenario registered under {name!r}; "
            f"known: {', '.join(sorted(_SCENARIOS))}"
        ) from None


def scenario_tags(scenario: TrafficScenario) -> tuple:
    """Registry tags of a scenario: all are ``traffic``; mixed read/write
    scenarios additionally join the ``traffic-rw`` selector."""
    tags = ["traffic"]
    if scenario.rw or any(p.fw is not None and 0.0 < p.fw < 1.0 for p in scenario.phases):
        tags.append("traffic-rw")
    return tuple(tags)


def _make_traffic_program(
    scenario: TrafficScenario,
    config: Any,
    spec: Any,
    is_rw: bool,
    policy: Optional[PolicyTable] = None,
    elastic: Optional[Any] = None,
):
    """Build the open-loop rank program for one scenario/config pair.

    An attached policy and elastic plan are turned, before the run, into
    what :func:`make_open_loop_program` takes: a per-phase key fold and a
    per-boundary list of crossings.  With a ``policy``, the swap plan is
    computed up front from the materialized schedules (virtual-time state
    only — see :func:`repro.control.policy.build_swap_plan`); an empty plan
    (null policy, single-phase scenario, striped table) adds no crossing, so
    the run is bit-identical to one without any policy at all.

    ``elastic`` attaches an :class:`~repro.scale.elastic.ElasticPlan` (duck
    typed — any object with ``active_by_phase`` and ``crossings``): each
    request's key folds onto the entries *active* in its phase, whether or
    not the plan has resize events, and its resize crossings run before any
    swap crossing of the same boundary.
    """
    table = as_lock_table(spec, is_rw)
    fold = None
    # In crossing order: at a shared boundary the resize crosses first.
    plans = []
    if elastic is not None:
        fold = np.asarray(elastic.active_by_phase(len(scenario.effective_phases()))).tolist()
        plans.append(("resizes", elastic.crossings))
    swaps = ()
    if policy is not None:
        plan = build_swap_plan(scenario, config, table, policy)
        if not plan.empty:
            plans.append(("swaps", plan.crossings))
            swaps = plan.swaps
    width = max((len(per_boundary) for _, per_boundary in plans), default=0)
    crossings = [
        tuple((key, per_boundary[b]) for key, per_boundary in plans if b < len(per_boundary))
        for b in range(width)
    ]
    program = make_open_loop_program(
        scenario,
        table,
        is_rw=is_rw,
        draw_role=is_rw and config.is_rw_scheme,
        requests=int(config.iterations),
        seed=int(config.seed),
        fw_default=float(config.fw),
        fold=fold,
        crossings=crossings,
    )
    # The harness matches the program to entry 0's handles; a swap may
    # install a scheme whose handles are blocking-only.
    for swap in swaps:
        program = program_for_spec(swap.spec, config.machine, program)
    return program


def _cross_steps(table: Any, installs: Sequence[Any], ctx: ProcessContext) -> Steps:
    """One collective drain-reinit-install crossing; returns the install count.

    Every rank performs it at the same plan boundary:

    1. ``BARRIER`` — no request is in flight, every holder has released —
       then one counted ``GET`` of the rank's own slab of the first install.
       The barrier already orders the install after every pre-boundary
       request; the ``GET`` is part of the crossing's protocol (it advances
       the rank's clock), so every adaptive and elastic fingerprint pinned in
       ``BENCH_tune.json`` and ``BENCH_scale.json`` includes it.
    2. A ``PUT`` of each of the rank's **own** slab words of every install's
       entry, to the initial value of the spec placed there (zero where the
       spec declares nothing), then ``FLUSH``.
    3. The version-guarded install into the shared
       :class:`~repro.traffic.table.TableEntry`: the first rank's call wins,
       the rest are no-ops, so no leader election is needed.
    4. ``BARRIER`` — all ranks observe the new slots before any request of
       the next phase issues; handles rebuild lazily from the version bump.

    An install is an :class:`~repro.control.policy.EntrySwap` (a scheme swap
    or re-homing) or an :class:`~repro.scale.elastic.EntryRegrow` (an entry
    re-activated by a resize); each names its ``entry_index``, the spec its
    slab is re-initialized for (``placed``) and its ``install``.  With no
    installs the crossing is the bare barrier pair.
    """
    yield (BARRIER,)
    if installs:
        rank = ctx.rank
        nranks = ctx.nranks
        yield (GET, rank, table.entry(installs[0].entry_index).base_offset)
        for install in installs:
            entry = table.entry(install.entry_index)
            inits = install.placed(entry, nranks).init_window(rank)
            for offset in range(entry.base_offset, entry.base_offset + entry.stride):
                yield (PUT, int(inits.get(offset, 0)), rank, offset)
        yield (FLUSH, rank)
        for install in installs:
            install.install(table.entry(install.entry_index), nranks)
    yield (BARRIER,)
    return len(installs)


def make_open_loop_program(
    scenario: TrafficScenario,
    table: Any,
    *,
    is_rw: bool,
    draw_role: bool,
    requests: int,
    seed: int,
    fw_default: float = 0.0,
    lane: Optional[int] = None,
    fold: Optional[Sequence[int]] = None,
    crossings: Sequence[Sequence[Tuple[str, Sequence[Any]]]] = (),
):
    """The open-loop rank program over ``table`` — the only one.

    Plain traffic, adaptive swaps, elastic resizes, re-homing, the crash
    service ``traffic-crash`` (:mod:`repro.fault.traffic`) and the
    fluid-scale engine's sampled cohorts (:mod:`repro.scale.fluid`, with
    ``lane`` naming their dedicated Philox counter lane) all run this body;
    what differs is handed in, built before the run:

    * ``fold`` — per phase, how many table entries the keys fold onto
      (``key % fold[phase]``).  The default is ``num_locks`` in every phase,
      which also folds a cohort's keys drawn over a (possibly huge) key
      space onto its small table.
    * ``crossings`` — per phase boundary, the ``(key, installs)`` crossings
      every rank performs (:func:`_cross_steps`), in order, each its own
      barrier pair.  A rank crosses boundary ``b`` before serving its first
      request of a later phase, and crosses the boundaries left after its
      last request, so the collective barriers always pair up across ranks.
      The returned dict counts each ``key``'s installs (``swaps``,
      ``resizes``).  Empty for a plain run, which then pays nothing: no
      barrier, no ``reset_entries()``, no entry lookup per request.

    With crossings, each request's read/write role resolves against the
    entry's *current* scheme slot (a swapped-to plain lock treats every
    request as a writer); without, against ``is_rw`` and ``draw_role``.

    A step program (see :mod:`repro.rma.runtime_base`); a caller whose table
    may hold blocking-only handles passes it through
    :func:`repro.core.lock_base.program_for_spec`, as the harness does.
    """
    if fold is None:
        fold = [table.num_locks] * len(scenario.effective_phases())
    num_boundaries = len(crossings)
    counted = {key: 0 for per_boundary in crossings for key, _ in per_boundary}
    reservoir_cap = scenario.reservoir_cap

    def program(ctx: ProcessContext):
        if crossings:
            table.reset_entries()
        handle = table.make(ctx)
        observer = ctx.observer
        if observer is not None:
            # The oracles' invariants are per lock; watch the hottest entry.
            # The observer survives swaps: rebuilt handles re-wrap with it.
            handle.observe(observer, index=0)
        arrivals, lock_ids, roles, cs_times, think_times, phase_ids = generate_schedule(
            scenario, seed, ctx.rank, requests, fw_default, lane=lane
        ).columns()

        now = ctx.now
        table_lock = handle.lock
        table_entry = table.entry
        counts = dict(counted)

        def cross(boundary: int) -> Steps:
            for key, installs in crossings[boundary]:
                counts[key] += yield from _cross_steps(table, installs, ctx)

        yield (BARRIER,)
        t_open = now()
        e2e: List[float] = []
        acquire_lat: List[float] = []
        hold_us: List[float] = []
        out_arrivals: List[float] = []
        out_phases: List[int] = []
        write_flags: List[int] = []
        reads = 0
        writes = 0
        next_boundary = 0
        prev_end = t_open
        for i in range(requests):
            phase_id = phase_ids[i]
            while next_boundary < num_boundaries and phase_id > next_boundary:
                yield from cross(next_boundary)
                next_boundary += 1
            arrival = t_open + arrivals[i]
            ready = arrival
            think = think_times[i]
            if think > 0.0:
                # A paced client: never issues before the arrival, nor before
                # its think time after the previous response has elapsed.
                ready = max(ready, prev_end + think)
            t_now = now()
            if ready > t_now:
                yield (COMPUTE, ready - t_now)
            index = lock_ids[i] % fold[phase_id]
            if crossings:
                entry_rw = table_entry(index).rw
                as_writer = not entry_rw or roles[i]
            else:
                entry_rw = is_rw
                as_writer = not draw_role or roles[i]
            lock = table_lock(index)
            t0 = now()
            if entry_rw and not as_writer:
                rw_lock: RWLockHandle = lock  # type: ignore[assignment]
                yield from rw_lock.acquire_read_steps()
            else:
                yield from lock.acquire_steps()
            t1 = now()
            cs = cs_times[i]
            if cs > 0.0:
                yield (COMPUTE, cs)
            if entry_rw and not as_writer:
                yield from rw_lock.release_read_steps()
            else:
                yield from lock.release_steps()
            t2 = now()
            acquire_lat.append(float(t1 - t0))
            hold_us.append(float(t2 - t1))
            e2e.append(float(t2 - arrival))
            out_arrivals.append(arrival)
            out_phases.append(phase_id)
            write_flags.append(1 if as_writer else 0)
            if as_writer:
                writes += 1
            else:
                reads += 1
            prev_end = t2
        # A rank whose schedule ends early still owes the remaining collective
        # crossings, or the other ranks' barriers would never pair up.
        while next_boundary < num_boundaries:
            yield from cross(next_boundary)
            next_boundary += 1
        end = now()
        yield (BARRIER,)
        out = {
            "start": t_open,
            "end": end,
            # "latencies" is the end-to-end series so the harness's generic
            # mean/p95 summary measures what a client of the service sees.
            "latencies": e2e,
            "acquire_latencies": acquire_lat,
            "hold_us": hold_us,
            "arrivals": out_arrivals,
            "phases": out_phases,
            "write_flags": write_flags,
            "reads": reads,
            "writes": writes,
            **counts,
        }
        if reservoir_cap is not None:
            # The accounting layer sizes its LatencyReservoir from this.
            out["reservoir_cap"] = int(reservoir_cap)
        return out

    return program


@lru_cache(maxsize=16)
def _cached_table(
    machine: Any, scheme: str, info: Any, num_locks: int, params: tuple, min_entry_words: int
) -> Any:
    # ``info`` is in the key so a scheme re-registered under the same name
    # gets a table of its own.
    table, _ = build_lock_table(
        machine, scheme, num_locks, params=dict(params), min_entry_words=min_entry_words
    )
    return table


def _shared_table(config: Any, num_locks: int, min_entry_words: int) -> Any:
    """The lock table a traffic point runs on, shared by every point with the
    same machine, scheme, table size, scheme parameters and slab floor.

    A table is a pure function of those, so its derived entry specs, init
    tiles and group inits are built once per process.  Only its scheme slots
    change during a run (the crossings of an adaptive, elastic or re-homing
    run install into them), so it is handed out reset to its construction
    state: the swap planner, which reads it before any rank starts, never
    sees what an earlier run installed.  Points in one process run one at a
    time (the campaign engine runs parallel points in worker processes).  A
    configuration that cannot be hashed builds a table of its own.
    """
    info = get_scheme(config.scheme)
    # harness=False schemes route through info.build too (the striped
    # table path), so their declared parameters must not be dropped here.
    params = info.params_from_config(config)
    try:
        table = _cached_table(
            config.machine, config.scheme, info, num_locks,
            tuple(sorted(params.items())), min_entry_words,
        )
    except TypeError:  # an unhashable machine, scheme or parameter value
        table, _ = build_lock_table(
            config.machine, config.scheme, num_locks, params=params,
            min_entry_words=min_entry_words,
        )
    table.reset_entries()
    return table


def register_traffic_scenario(
    scenario: TrafficScenario,
    *,
    policy: Optional[PolicyTable] = None,
    elastic: Optional[Any] = None,
    tags: Optional[Sequence[str]] = None,
    replace: bool = False,
) -> TrafficScenario:
    """Register ``scenario`` as a benchmark; returns the scenario unchanged.

    After this, every consumer of the benchmark registry can drive it: the
    harness, ``Cluster.bench``, campaign grids (via the ``traffic`` selector),
    the conformance sweep and the ``repro traffic`` CLI.

    ``policy`` attaches an adaptive :class:`~repro.control.policy.PolicyTable`
    to the scenario: the registered table is built with slabs large enough
    for every rule's target scheme and the rank program executes the
    deterministic swap plan at phase boundaries.  ``elastic`` attaches an
    :class:`~repro.scale.elastic.ElasticPlan`: requests fold onto its
    active prefix, and its resize events re-shard the key space at phase
    boundaries.  ``tags`` overrides the default
    :func:`scenario_tags` (adaptive scenarios register under
    ``"traffic-adaptive"``, fluid-scale scenarios under ``"scale"``, the
    crash service under ``"fault-traffic"``, so the policy-free ``traffic``
    selector grids stay unchanged).
    """
    if elastic is not None:
        elastic.validate(scenario)

    def _spec_transform(config: Any, spec: Any, is_rw: bool, _scenario=scenario) -> Any:
        min_entry_words = (
            policy_min_entry_words(config.machine, policy) if policy is not None else 0
        )
        return _shared_table(config, _scenario.num_locks, min_entry_words)

    @register_benchmark(
        scenario.name,
        help=scenario.help or f"open-loop traffic: {scenario.arrival} arrivals, "
        f"{scenario.key_dist} keys over {scenario.num_locks} locks",
        spec_transform=_spec_transform,
        tags=tuple(tags) if tags is not None else scenario_tags(scenario),
        replace=replace,
    )
    def _factory(config, spec, is_rw, shared_offset, _scenario=scenario):
        return _make_traffic_program(
            _scenario, config, spec, is_rw, policy=policy, elastic=elastic
        )

    _SCENARIOS[scenario.name] = scenario
    return scenario


# --------------------------------------------------------------------------- #
# Built-in scenario catalogue.  Third parties add more with one call:
#     register_traffic_scenario(TrafficScenario(name="traffic-mine", ...))
# --------------------------------------------------------------------------- #

BUILTIN_SCENARIOS = tuple(
    register_traffic_scenario(scenario)
    for scenario in (
        TrafficScenario(
            name="traffic-zipf",
            help="Zipf(1.0) popularity over a 1024-lock table, Poisson arrivals",
            num_locks=1024,
            arrival="poisson",
            mean_gap_us=8.0,
            key_dist="zipf",
            zipf_exponent=1.0,
        ),
        TrafficScenario(
            name="traffic-uniform",
            help="uniform popularity over a 1024-lock table, Poisson arrivals",
            num_locks=1024,
            arrival="poisson",
            mean_gap_us=8.0,
            key_dist="uniform",
        ),
        TrafficScenario(
            name="traffic-burst",
            help="bursty arrivals (mean burst 8) against Zipf(0.9) keys",
            num_locks=1024,
            arrival="burst",
            mean_gap_us=10.0,
            burst_size=8,
            key_dist="zipf",
            zipf_exponent=0.9,
        ),
        TrafficScenario(
            name="traffic-readheavy",
            help="95% reads on the Zipf(1.0) head (social-graph style service)",
            num_locks=1024,
            arrival="poisson",
            mean_gap_us=6.0,
            key_dist="zipf",
            zipf_exponent=1.0,
            fw=0.05,
        ),
        TrafficScenario(
            name="traffic-phased",
            help="warm-up -> 4x load spike with hotter keys and more writes -> cooldown",
            num_locks=1024,
            arrival="poisson",
            mean_gap_us=8.0,
            key_dist="zipf",
            zipf_exponent=0.8,
            fw=0.05,
            phases=(
                Phase(duration_us=120.0, rate_scale=1.0, name="warm"),
                Phase(
                    duration_us=160.0,
                    rate_scale=4.0,
                    zipf_exponent=1.3,
                    fw=0.3,
                    name="spike",
                ),
                Phase(duration_us=None, rate_scale=0.75, name="cooldown"),
            ),
        ),
    )
)

#: The built-in adaptive policy: the paper's Section 5 guidance as two rules.
#: A read-dominated entry runs the reader-writer lock with a high reader
#: threshold (long reader leases, writes rare enough to absorb the preemption
#: cost); a write-dominated entry runs the queue-based d-mcs lock (FIFO
#: handoff beats reader batching once most requests are exclusive).
ADAPTIVE_POLICY = PolicyTable(
    rules=(
        PolicyRule(
            name="write-storm",
            scheme="d-mcs",
            max_read_fraction=0.7,
            min_requests=4,
        ),
        PolicyRule(
            name="read-heavy",
            scheme="rma-rw",
            params=(("t_r", 256),),
            min_read_fraction=0.7,
            min_requests=4,
        ),
    ),
    max_swaps_per_boundary=4,
)

#: The adaptive scenario ships under its own ``traffic-adaptive`` tag (not
#: ``traffic``), so the policy-free traffic-suite grids and the committed
#: BENCH_traffic.json baseline are untouched by the control plane.
ADAPTIVE_SCENARIO = register_traffic_scenario(
    TrafficScenario(
        name="traffic-adaptive",
        help="read-heavy -> write-storm -> cooldown with per-entry policy switching",
        num_locks=16,
        arrival="poisson",
        mean_gap_us=8.0,
        key_dist="zipf",
        zipf_exponent=1.1,
        fw=0.05,
        phases=(
            Phase(duration_us=140.0, rate_scale=1.0, fw=0.05, name="read-heavy"),
            Phase(duration_us=160.0, rate_scale=2.0, fw=0.8, name="write-storm"),
            Phase(duration_us=None, rate_scale=0.75, fw=0.05, name="cooldown"),
        ),
    ),
    policy=ADAPTIVE_POLICY,
    tags=("traffic-adaptive",),
)
