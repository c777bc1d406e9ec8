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
* The registered ``program_factory`` replaces the closed benchmark loop with
  the open-loop client: each rank materializes its deterministic request
  schedule *before* the run, then serves requests at their arrival times —
  waiting out idle gaps with ``ctx.compute`` and carrying queueing backlog
  into the end-to-end latency when the service falls behind.
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

from typing import Any, Dict, List, Optional, Sequence

import numpy as np

from repro.api.registry import register_benchmark
from repro.control.policy import (
    PolicyController,
    PolicyRule,
    PolicyTable,
    build_swap_plan,
    policy_min_entry_words,
)
from repro.core.lock_base import RWLockHandle, program_for_spec
from repro.rma.runtime_base import BARRIER, COMPUTE, ProcessContext
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

    With a ``policy``, the swap plan is computed up front from the
    materialized schedules (virtual-time state only — see
    :func:`repro.control.policy.build_swap_plan`); a non-empty plan selects
    the adaptive program body, which crosses every phase boundary
    collectively and resolves each request's read/write role against the
    entry's *current* scheme slot.  An empty plan (null policy, single-phase
    scenario, striped table) falls back to the policy-free body, which is
    bit-identical to a run without any policy at all.

    ``elastic`` attaches an :class:`~repro.scale.elastic.ElasticPlan` (duck
    typed — any object with ``num_boundaries``, ``active_by_phase`` and
    ``make_controller``): the program folds each request's key onto the
    entries *active* in its phase and performs the plan's resize crossings
    collectively at phase boundaries, alongside any policy crossings.
    """
    table = as_lock_table(spec, is_rw)
    draw_role = is_rw and config.is_rw_scheme
    fw_default = float(config.fw)
    requests = int(config.iterations)
    seed = int(config.seed)

    controller = None
    if policy is not None:
        plan = build_swap_plan(scenario, config, table, policy)
        if not plan.empty:
            controller = PolicyController(table, plan)
    if elastic is not None and elastic.num_boundaries == 0:
        elastic = None
    if controller is not None or elastic is not None:
        program = _make_adaptive_program(
            scenario, table, controller, requests, seed, fw_default,
            elastic=elastic,
        )
        # The harness matches the program to entry 0's handles; a swap may
        # install a scheme whose handles are blocking-only.
        for swap in controller.plan.swaps if controller is not None else ():
            program = program_for_spec(swap.spec, config.machine, program)
        return program

    return make_open_loop_program(
        scenario,
        table,
        is_rw=is_rw,
        draw_role=draw_role,
        requests=requests,
        seed=seed,
        fw_default=fw_default,
    )


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
):
    """The policy-free open-loop rank program over ``table``.

    Exported for the fluid-scale engine (:mod:`repro.scale.fluid`), whose
    sampled-request cohorts drive the same body through the real simulator —
    with ``lane`` naming their dedicated Philox counter lane — and fold keys
    drawn over the scenario's (possibly huge) key space onto a small table
    via the ``% num_locks`` mapping below.

    A step program (see :mod:`repro.rma.runtime_base`); a caller whose table
    may hold blocking-only handles passes it through
    :func:`repro.core.lock_base.program_for_spec`, as the harness does.
    """
    num_locks = table.num_locks
    reservoir_cap = scenario.reservoir_cap

    def program(ctx: ProcessContext):
        handle = table.make(ctx)
        observer = getattr(ctx, "observer", None)
        if observer is not None:
            # The oracles' invariants are per lock; watch the hottest entry.
            handle.observe(observer, index=0)
        schedule = generate_schedule(
            scenario, seed, ctx.rank, requests, fw_default, lane=lane
        )
        arrivals = schedule.arrival_us
        lock_ids = schedule.lock_index
        roles = schedule.is_write
        cs_times = schedule.cs_us
        think_times = schedule.think_us
        phase_ids = schedule.phase

        now = ctx.now
        table_lock = handle.lock
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
        prev_end = t_open
        for i in range(requests):
            arrival = t_open + float(arrivals[i])
            ready = arrival
            think = float(think_times[i])
            if think > 0.0:
                # A paced client: never issues before the arrival, nor before
                # its think time after the previous response has elapsed.
                ready = max(ready, prev_end + think)
            t_now = now()
            if ready > t_now:
                yield (COMPUTE, ready - t_now)
            as_writer = True
            if draw_role:
                as_writer = bool(roles[i])
            index = int(lock_ids[i]) % num_locks
            lock = table_lock(index)
            t0 = now()
            if is_rw and not as_writer:
                rw_lock: RWLockHandle = lock  # type: ignore[assignment]
                yield from rw_lock.acquire_read_steps()
            else:
                yield from lock.acquire_steps()
            t1 = now()
            cs = float(cs_times[i])
            if cs > 0.0:
                yield (COMPUTE, cs)
            if is_rw and not as_writer:
                yield from rw_lock.release_read_steps()
            else:
                yield from lock.release_steps()
            t2 = now()
            acquire_lat.append(float(t1 - t0))
            hold_us.append(float(t2 - t1))
            e2e.append(float(t2 - arrival))
            out_arrivals.append(float(arrival))
            out_phases.append(int(phase_ids[i]))
            write_flags.append(1 if as_writer else 0)
            if as_writer:
                writes += 1
            else:
                reads += 1
            prev_end = t2
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
        }
        if reservoir_cap is not None:
            # The accounting layer sizes its LatencyReservoir from this.
            out["reservoir_cap"] = int(reservoir_cap)
        return out

    return program


def _make_adaptive_program(
    scenario: TrafficScenario,
    table: Any,
    controller: Optional[PolicyController],
    requests: int,
    seed: int,
    fw_default: float,
    elastic: Optional[Any] = None,
):
    """The policy-switched / elastic variant of the open-loop rank program.

    Differences from the policy-free body, all deterministic in virtual
    time: (1) every rank crosses each plan boundary exactly once, in order —
    before serving its first request of a later phase, with any leftover
    boundaries crossed after its last request, so the collective barriers
    inside :meth:`PolicyController.cross_steps` (and the elastic controller's
    resize crossings, performed first at a shared boundary) always pair up
    across ranks; (2) each request's read/write role resolves against the
    entry's *current* scheme slot (a swapped-to plain lock treats every
    request as a writer); (3) with an elastic plan, each request's key folds
    onto the entries *active* in its phase (``key % active``), so a resize
    re-shards the key space mid-run.  The returned dict additionally carries
    ``swaps`` and/or ``resizes`` — the plan event counts every rank observed
    (determinism fields by construction).
    """
    num_phases = len(scenario.effective_phases())
    active_by_phase = (
        None if elastic is None else np.asarray(elastic.active_by_phase(num_phases))
    )
    elastic_controller = None if elastic is None else elastic.make_controller(table)
    reservoir_cap = scenario.reservoir_cap

    def program(ctx: ProcessContext):
        table.reset_entries()
        handle = table.make(ctx)
        observer = getattr(ctx, "observer", None)
        if observer is not None:
            # The oracles' invariants are per lock; watch the hottest entry.
            # The observer survives swaps: rebuilt handles re-wrap with it.
            handle.observe(observer, index=0)
        schedule = generate_schedule(scenario, seed, ctx.rank, requests, fw_default)
        arrivals = schedule.arrival_us
        lock_ids = schedule.lock_index
        roles = schedule.is_write
        cs_times = schedule.cs_us
        think_times = schedule.think_us
        phase_ids = schedule.phase

        now = ctx.now
        table_lock = handle.lock
        table_entry = table.entry
        num_locks = table.num_locks
        policy_boundaries = 0 if controller is None else controller.num_boundaries
        elastic_boundaries = 0 if elastic is None else elastic.num_boundaries
        num_boundaries = max(policy_boundaries, elastic_boundaries)
        cross = None if controller is None else controller.cross_steps
        elastic_cross = None if elastic_controller is None else elastic_controller.cross_steps
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
        swaps_seen = 0
        resizes_seen = 0
        next_boundary = 0
        prev_end = t_open
        for i in range(requests):
            while next_boundary < num_boundaries and int(phase_ids[i]) > next_boundary:
                if elastic_cross is not None and next_boundary < elastic_boundaries:
                    resizes_seen += yield from elastic_cross(ctx, next_boundary)
                if cross is not None and next_boundary < policy_boundaries:
                    swaps_seen += yield from cross(ctx, next_boundary)
                next_boundary += 1
            arrival = t_open + float(arrivals[i])
            ready = arrival
            think = float(think_times[i])
            if think > 0.0:
                ready = max(ready, prev_end + think)
            t_now = now()
            if ready > t_now:
                yield (COMPUTE, ready - t_now)
            if active_by_phase is None:
                index = int(lock_ids[i]) % num_locks
            else:
                index = int(lock_ids[i]) % int(active_by_phase[int(phase_ids[i])])
            entry_rw = table_entry(index).rw
            as_writer = not entry_rw or bool(roles[i])
            lock = table_lock(index)
            t0 = now()
            if entry_rw and not as_writer:
                rw_lock: RWLockHandle = lock  # type: ignore[assignment]
                yield from rw_lock.acquire_read_steps()
            else:
                yield from lock.acquire_steps()
            t1 = now()
            cs = float(cs_times[i])
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
            out_arrivals.append(float(arrival))
            out_phases.append(int(phase_ids[i]))
            write_flags.append(1 if as_writer else 0)
            if as_writer:
                writes += 1
            else:
                reads += 1
            prev_end = t2
        # A rank whose schedule ends early still owes the remaining collective
        # crossings, or the other ranks' barriers would never pair up.
        while next_boundary < num_boundaries:
            if elastic_cross is not None and next_boundary < elastic_boundaries:
                resizes_seen += yield from elastic_cross(ctx, next_boundary)
            if cross is not None and next_boundary < policy_boundaries:
                swaps_seen += yield from cross(ctx, next_boundary)
            next_boundary += 1
        end = now()
        yield (BARRIER,)
        out = {
            "start": t_open,
            "end": end,
            "latencies": e2e,
            "acquire_latencies": acquire_lat,
            "hold_us": hold_us,
            "arrivals": out_arrivals,
            "phases": out_phases,
            "write_flags": write_flags,
            "reads": reads,
            "writes": writes,
        }
        if controller is not None:
            out["swaps"] = swaps_seen
        if elastic_controller is not None:
            out["resizes"] = resizes_seen
        if reservoir_cap is not None:
            out["reservoir_cap"] = int(reservoir_cap)
        return out

    return program


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
    :class:`~repro.scale.elastic.ElasticPlan` whose resize events re-shard
    the key space at phase boundaries.  ``tags`` overrides the default
    :func:`scenario_tags` (adaptive scenarios register under
    ``"traffic-adaptive"``, fluid-scale scenarios under ``"scale"``, so the
    policy-free ``traffic`` selector grids stay unchanged).
    """
    if elastic is not None:
        elastic.validate(scenario)

    def _spec_transform(config: Any, spec: Any, is_rw: bool, _scenario=scenario) -> Any:
        from repro.api.registry import get_scheme

        info = get_scheme(config.scheme)
        # harness=False schemes route through info.build too (the striped
        # table path), so their declared parameters must not be dropped here.
        params = info.params_from_config(config)
        min_entry_words = (
            policy_min_entry_words(config.machine, policy) if policy is not None else 0
        )
        table, _ = build_lock_table(
            config.machine, config.scheme, _scenario.num_locks, params=params,
            min_entry_words=min_entry_words,
        )
        return table

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
