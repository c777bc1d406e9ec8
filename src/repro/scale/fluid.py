"""Fluid-flow load modeling with a sampled-request sub-stream for tails.

Simulating millions of clients per second request-by-request is exactly what
the discrete-event engine should *not* be asked to do.  This module splits
the problem the way large-scale service models do:

* **Fluid aggregate** — :func:`fluid_profile` treats each (entry, phase)
  pair's arrivals as a deterministic fluid: the scenario's declared client
  rate and key-popularity pmf give a per-entry arrival rate
  ``λ_e = rate × pmf_e`` and each entry serves as a unit-capacity station at
  ``μ = 1 / mean_cs``.  Within a phase the rates are constant, so the fluid
  queue has a closed form — ``served = min(backlog + λ·T, μ·T)`` — and the
  whole profile advances in one vectorized step per phase, carrying backlog
  across phase boundaries.  Ten-million-key tables and 10^6+ clients/s
  resolve in milliseconds of wall time, in exact virtual time.
* **Sampled sub-stream** — fluid averages cannot see tails.
  :func:`run_sampled` threads a small, seeded cohort of proxy ranks through
  the *real* simulator: each of ``sample_ranks`` ranks draws an ordinary
  open-loop schedule on a dedicated Philox counter lane
  (:data:`FLUID_LANE` — disjoint by construction from the workload and
  traffic lanes), thinned so the cohort's aggregate rate equals the declared
  client rate (``mean_gap_us = sample_ranks × 10^6 / clients_per_s``, the
  Poisson-superposition split).  Keys are drawn over the scenario's **full**
  key space — the memoized :func:`~repro.traffic.generators.zipf_cdf` makes
  a 2^20-key cdf a one-time cost — and fold onto a small table by the open
  loop's ``key % num_locks`` mapping, so the simulated window stays tiny
  while the popularity skew is exact.  The cohort's reservoir-bounded
  percentiles recover p50–p99.9.
* **Validation** — :func:`validate_fluid` closes the loop at small scale:
  the fluid rates are checked against exactly materialized schedules
  (analytically, no simulation) and the sampled percentiles against the
  fluid service model, with a determinism certificate pinning the sampled
  fingerprint across a repeat run (tier-1 also holds it to the reference
  interpreter, ``tests/reference.py``).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Any, Dict, List, Sequence, Tuple

import numpy as np

from repro.core.lock_base import program_for_spec
from repro.rma.sim_runtime import SimRuntime
from repro.topology.builder import XC30_PROCS_PER_NODE, cached_machine
from repro.traffic.accounting import aggregate_traffic
from repro.traffic.generators import (
    Phase,
    TrafficScenario,
    generate_schedule,
    zipf_cdf,
)
from repro.traffic.scenarios import make_open_loop_program
from repro.traffic.table import build_lock_table

__all__ = [
    "FLUID_LANE",
    "FLUID_MEGA",
    "FLUID_PHASED",
    "FLUID_SCENARIOS",
    "FluidPhase",
    "FluidProfile",
    "FluidScenario",
    "fluid_profile",
    "get_fluid_scenario",
    "register_fluid_scenario",
    "run_sampled",
    "sampled_scenario",
    "validate_fluid",
]

#: Philox counter lane of the sampled sub-stream.  The workload generators
#: use lane 0, the traffic generators lane 0x7AF1C0, the perturbation model
#: 0x7C5EED; this lane keeps every fluid cohort draw disjoint from all of
#: them for any (seed, rank) pair.
FLUID_LANE = 0xF1D5CA1E

#: Validation tolerances (see :func:`validate_fluid`).  The fluid model is a
#: mean-field approximation and the exact side is a finite Poisson sample,
#: so these are statistical bands, not equality thresholds.
OFFERED_RTOL = 0.25    #: fluid vs materialized aggregate arrival rate
HOT_SHARE_ATOL = 0.10  #: fluid vs materialized hottest-entry request share
P50_RTOL = 1.00        #: sampled e2e p50 vs fluid sojourn prediction

#: Uncontended acquire+release budget of a lock request on the simulated
#: fabric (a handful of remote RMA hops).  The fluid stations serve at
#: ``1 / mean_cs`` — the critical section dominates capacity — but a
#: *request's* sojourn is service plus this overhead, so the sampled-side
#: checks allow it on top of the critical-section draw: the observed mean
#: hold time must land in ``[mean_cs, mean_cs + overhead]`` and the e2e p50
#: near ``mean_cs + overhead``.
LOCK_OVERHEAD_US = 1.5

DEFAULT_SEED = 17


@dataclass(frozen=True)
class FluidScenario:
    """A traffic scenario lifted to fluid scale.

    ``base`` fixes the *shape* of the load (arrival process, key popularity,
    phases, critical-section draw); ``clients_per_s`` and ``horizon_us``
    replace the per-rank pacing with an aggregate intensity, which is what
    lets a scenario declare 10^6+ clients/s without 10^6 simulated ranks.
    The ``sample_*`` knobs size the sub-stream cohort threaded through the
    real simulator (see :func:`run_sampled`).
    """

    name: str
    base: TrafficScenario
    clients_per_s: float
    horizon_us: float
    sample_ranks: int = 16
    sample_ppn: int = XC30_PROCS_PER_NODE
    sample_requests: int = 48
    sample_locks: int = 256
    sample_scheme: str = "fompi-spin"
    reservoir_cap: int = 4096
    help: str = ""

    def __post_init__(self) -> None:
        if self.clients_per_s <= 0:
            raise ValueError("clients_per_s must be positive")
        if self.horizon_us <= 0:
            raise ValueError("horizon_us must be positive")
        if self.sample_ranks < 2:
            raise ValueError("sample_ranks must be >= 2")
        if self.sample_ppn < 1:
            raise ValueError("sample_ppn must be >= 1")
        if self.sample_requests < 8:
            raise ValueError("sample_requests must be >= 8")
        if self.sample_locks < 1:
            raise ValueError("sample_locks must be >= 1")
        if self.reservoir_cap < 16:
            raise ValueError("reservoir_cap must be >= 16")
        if self.base.bias_ranks is not None:
            # The fluid aggregate has no per-rank identity, so rank-biased
            # key draws cannot be represented; keep those scenarios on the
            # exact path (they are small by construction).
            raise ValueError("fluid scenarios must use bias-free base scenarios")

    @property
    def rate_per_us(self) -> float:
        """Aggregate base arrival rate in requests per virtual microsecond."""
        return float(self.clients_per_s) / 1e6


@dataclass(frozen=True)
class FluidPhase:
    """One phase of a resolved fluid profile (aggregate units)."""

    name: str
    span_us: float
    lambda_per_us: float
    offered: float
    served: float
    backlog_end: float
    peak_utilization: float
    hot_share: float


@dataclass(frozen=True)
class FluidProfile:
    """The resolved fluid load profile of one :class:`FluidScenario`."""

    name: str
    horizon_us: float
    num_keys: int
    mean_cs_us: float
    phases: Tuple[FluidPhase, ...]
    entry_offered: np.ndarray  #: per-key offered requests over the horizon

    @property
    def total_offered(self) -> float:
        return float(sum(p.offered for p in self.phases))

    @property
    def total_served(self) -> float:
        return float(sum(p.served for p in self.phases))

    @property
    def final_backlog(self) -> float:
        return float(self.phases[-1].backlog_end) if self.phases else 0.0

    @property
    def peak_utilization(self) -> float:
        return float(max((p.peak_utilization for p in self.phases), default=0.0))

    def entry_share(self) -> np.ndarray:
        """Per-key share of the total offered load."""
        total = float(self.entry_offered.sum())
        if total <= 0.0:
            return np.zeros_like(self.entry_offered)
        return self.entry_offered / total

    def folded_share(self, num_locks: int) -> np.ndarray:
        """The key shares folded onto an ``num_locks``-entry table (``% num_locks``),
        matching the open-loop program's key mapping."""
        share = self.entry_share()
        keys = np.arange(share.shape[0], dtype=np.int64) % int(num_locks)
        return np.bincount(keys, weights=share, minlength=int(num_locks))

    def summary(self) -> Dict[str, Any]:
        """JSON-ready scalar view (manifests, CLI reports)."""
        return {
            "name": self.name,
            "horizon_us": self.horizon_us,
            "num_keys": self.num_keys,
            "mean_cs_us": self.mean_cs_us,
            "total_offered": self.total_offered,
            "total_served": self.total_served,
            "final_backlog": self.final_backlog,
            "peak_utilization": self.peak_utilization,
            "hot_share": float(self.entry_share().max(initial=0.0)),
            "phases": [dataclasses.asdict(p) for p in self.phases],
        }


def _phase_spans(phases: Sequence[Phase], horizon_us: float) -> List[float]:
    """Virtual-time span of each phase, clipped to the horizon; an open-ended
    final phase absorbs the remainder."""
    spans: List[float] = []
    t = 0.0
    for phase in phases:
        if t >= horizon_us:
            spans.append(0.0)
            continue
        if phase.duration_us is None:
            spans.append(horizon_us - t)
            t = horizon_us
        else:
            span = min(float(phase.duration_us), horizon_us - t)
            spans.append(span)
            t += span
    return spans


def _phase_pmf(scenario: TrafficScenario, phase: Phase) -> np.ndarray:
    """Key-popularity pmf of one phase over the scenario's full key space."""
    if scenario.key_dist == "uniform":
        return np.full(scenario.num_locks, 1.0 / scenario.num_locks)
    exponent = (
        phase.zipf_exponent if phase.zipf_exponent is not None else scenario.zipf_exponent
    )
    cdf = zipf_cdf(scenario.num_locks, exponent)
    return np.diff(cdf, prepend=0.0)


def fluid_profile(fluid: FluidScenario) -> FluidProfile:
    """Advance the deterministic fluid recursion over the scenario's phases.

    Within a phase all rates are constant, so the per-entry fluid queue has
    the exact one-step solution ``served = min(backlog + λ·T, μ·T)`` (the
    backlog drains at ``μ - λ`` until empty, then tracks arrivals); phases
    only need to hand their terminal backlog to the next one.  Everything is
    a closed-form function of the scenario — no randomness, no simulation —
    so the profile doubles as the analytic reference the sampled runs are
    validated against.
    """
    scenario = fluid.base
    phases = scenario.effective_phases()
    spans = _phase_spans(phases, float(fluid.horizon_us))
    cs_lo, cs_hi = scenario.cs_us
    base_mean_cs = (float(cs_lo) + float(cs_hi)) / 2.0

    backlog = np.zeros(scenario.num_locks)
    entry_offered = np.zeros(scenario.num_locks)
    rows: List[FluidPhase] = []
    mean_cs_acc = 0.0
    offered_acc = 0.0
    for phase, span in zip(phases, spans):
        lam_total = fluid.rate_per_us * float(phase.rate_scale)
        pmf = _phase_pmf(scenario, phase)
        lam = lam_total * pmf
        mean_cs = base_mean_cs * float(phase.cs_scale)
        offered = lam * span
        if mean_cs > 0.0:
            mu = 1.0 / mean_cs
            capacity = mu * span
            served = np.minimum(backlog + offered, capacity)
            peak_util = float(lam.max(initial=0.0) / mu)
        else:
            served = backlog + offered
            peak_util = 0.0
        backlog = backlog + offered - served
        entry_offered += offered
        phase_offered = float(offered.sum())
        mean_cs_acc += mean_cs * phase_offered
        offered_acc += phase_offered
        rows.append(
            FluidPhase(
                name=phase.name,
                span_us=float(span),
                lambda_per_us=float(lam_total),
                offered=phase_offered,
                served=float(served.sum()),
                backlog_end=float(backlog.sum()),
                peak_utilization=peak_util,
                hot_share=float(pmf.max(initial=0.0)),
            )
        )
    mean_cs_us = mean_cs_acc / offered_acc if offered_acc > 0 else base_mean_cs
    return FluidProfile(
        name=fluid.name,
        horizon_us=float(fluid.horizon_us),
        num_keys=scenario.num_locks,
        mean_cs_us=float(mean_cs_us),
        phases=tuple(rows),
        entry_offered=entry_offered,
    )


def sampled_scenario(fluid: FluidScenario) -> TrafficScenario:
    """The cohort's per-rank scenario: the base shape, re-paced so the
    ``sample_ranks`` proxies jointly offer ``clients_per_s`` (splitting a
    Poisson process preserves Poisson arrivals per proxy), with the
    accounting reservoir sized to the cohort."""
    gap_us = float(fluid.sample_ranks) * 1e6 / float(fluid.clients_per_s)
    return dataclasses.replace(
        fluid.base,
        name=f"{fluid.name}-sampled",
        mean_gap_us=gap_us,
        reservoir_cap=int(fluid.reservoir_cap),
    )


def _cohort(fluid: FluidScenario, seed: int):
    """The sampled cohort's machine, lock table and open-loop program."""
    machine = cached_machine(fluid.sample_ranks, procs_per_node=fluid.sample_ppn)
    table, _ = build_lock_table(machine, fluid.sample_scheme, fluid.sample_locks)
    scenario = sampled_scenario(fluid)
    program = make_open_loop_program(
        scenario,
        table,
        is_rw=False,
        draw_role=False,
        requests=int(fluid.sample_requests),
        seed=int(seed),
        fw_default=0.0,
        lane=FLUID_LANE,
    )
    return machine, table, program_for_spec(table, machine, program)


def run_sampled(fluid: FluidScenario, *, seed: int = DEFAULT_SEED) -> Dict[str, Any]:
    """Drive the sampled cohort through the real simulator; returns metrics
    plus the run fingerprint (the determinism certificate's input)."""
    from repro.bench.campaign import run_result_sha

    machine, table, program = _cohort(fluid, seed)
    runtime = SimRuntime(machine, window_words=table.window_words + 2, seed=int(seed))
    result = runtime.run(program, window_init=table.init_window)
    live = [r for r in result.returns if isinstance(r, dict)]
    traffic = aggregate_traffic(live, reservoir_cap=int(fluid.reservoir_cap))
    return {
        "scheduler": "horizon",
        "seed": int(seed),
        "requests": int(fluid.sample_requests) * int(fluid.sample_ranks),
        "fingerprint": run_result_sha(result),
        "wall_s": float(result.wall_time_s),
        "offered_per_s": float(traffic.offered_per_s),
        "percentiles": traffic.percentile_fields(),
    }


def _materialized_reference(
    fluid: FluidScenario, seed: int
) -> Tuple[float, float, float]:
    """Exactly materialize the cohort's schedules (pure virtual time, no
    simulation) and reduce to (aggregate rate per µs, hottest folded entry
    share, observed window µs) — the analytic side of the rate checks."""
    scenario = sampled_scenario(fluid)
    counts = np.zeros(int(fluid.sample_locks))
    rate = 0.0
    windows: List[float] = []
    total = 0
    for rank in range(int(fluid.sample_ranks)):
        schedule = generate_schedule(
            scenario, seed, rank, int(fluid.sample_requests), 0.0, lane=FLUID_LANE
        )
        folded = schedule.lock_index % int(fluid.sample_locks)
        counts += np.bincount(folded, minlength=int(fluid.sample_locks))
        window = float(schedule.arrival_us[-1])
        # Summing per-rank rates avoids the extreme-value bias of dividing
        # the aggregate count by the slowest rank's window.
        if window > 0:
            rate += len(schedule) / window
            windows.append(window)
        total += len(schedule)
    window_us = float(np.mean(windows)) if windows else 0.0
    hot_share = float(counts.max() / counts.sum()) if total else 0.0
    return float(rate), hot_share, window_us


def _fluid_rate_over(fluid: FluidScenario, window_us: float) -> float:
    """Mean fluid arrival rate (per µs) over ``[0, window_us]``."""
    phases = fluid.base.effective_phases()
    spans = _phase_spans(phases, float(window_us))
    weighted = sum(
        fluid.rate_per_us * float(p.rate_scale) * span for p, span in zip(phases, spans)
    )
    return weighted / float(window_us) if window_us > 0 else 0.0


def validate_fluid(
    fluid: FluidScenario,
    *,
    seed: int = DEFAULT_SEED,
) -> Dict[str, Any]:
    """Validate the fluid model against the exact engine at small scale.

    Four analytic/statistical checks plus a determinism certificate:

    1. *offered rate* — the fluid λ integrated over the materialized window
       matches the exactly generated schedules' aggregate arrival rate.
    2. *hot share* — the fluid pmf folded onto the sample table matches the
       materialized hottest-entry request share.
    3. *service* — the sampled cohort's mean hold time matches the fluid
       mean critical-section time.
    4. *p50 sojourn* — the sampled end-to-end p50 is consistent with the
       fluid service model's sojourn prediction (and the tail ordering
       p50 ≤ p99 ≤ p99.9 holds).

    The certificate runs the sampled cohort twice and requires one
    identical fingerprint.
    """
    profile = fluid_profile(fluid)
    exact_rate, exact_hot, window_us = _materialized_reference(fluid, seed)
    fluid_rate = _fluid_rate_over(fluid, window_us)
    fluid_hot = float(profile.folded_share(fluid.sample_locks).max(initial=0.0))

    runs = [run_sampled(fluid, seed=seed) for _ in range(2)]
    fingerprints = sorted({r["fingerprint"] for r in runs})
    sampled = runs[0]
    pct = sampled["percentiles"]

    checks: List[Dict[str, Any]] = []

    def check(name: str, value: float, expected: float, tol: float, *, relative: bool):
        if relative:
            err = abs(value - expected) / expected if expected else abs(value)
        else:
            err = abs(value - expected)
        checks.append(
            {
                "name": name,
                "value": float(value),
                "expected": float(expected),
                "error": float(err),
                "tolerance": float(tol),
                "relative": relative,
                "ok": bool(err <= tol),
            }
        )

    check("offered_rate_per_us", exact_rate, fluid_rate, OFFERED_RTOL, relative=True)
    check("hot_entry_share", exact_hot, fluid_hot, HOT_SHARE_ATOL, relative=False)
    # The observed hold time is the critical-section draw plus the release
    # path; it must sit in the [mean_cs, mean_cs + overhead] band — below
    # means the cohort is not actually serving the declared sections, above
    # means the service model underestimates capacity.
    hold = float(pct.get("mean_hold_us", 0.0))
    hold_excess = hold - profile.mean_cs_us
    checks.append(
        {
            "name": "mean_hold_us",
            "value": hold,
            "expected": float(profile.mean_cs_us),
            "error": float(hold_excess),
            "tolerance": float(LOCK_OVERHEAD_US),
            "relative": False,
            "ok": bool(0.0 <= hold_excess <= LOCK_OVERHEAD_US),
        }
    )
    # Sojourn prediction: at sub-critical utilization the fluid backlog is
    # zero, so a request's end-to-end p50 is its service draw (the p50 of a
    # uniform section is the mean) plus the uncontended lock overhead;
    # queueing pushes it up, hence the wide relative band.
    check(
        "e2e_p50_us",
        float(pct.get("e2e_p50_us", 0.0)),
        profile.mean_cs_us + LOCK_OVERHEAD_US,
        P50_RTOL,
        relative=True,
    )
    tails_ordered = (
        pct.get("e2e_p50_us", 0.0)
        <= pct.get("e2e_p99_us", 0.0)
        <= pct.get("e2e_p999_us", 0.0)
    )
    checks.append(
        {
            "name": "tail_ordering",
            "value": 1.0 if tails_ordered else 0.0,
            "expected": 1.0,
            "error": 0.0 if tails_ordered else 1.0,
            "tolerance": 0.0,
            "relative": False,
            "ok": bool(tails_ordered),
        }
    )

    return {
        "name": fluid.name,
        "clients_per_s": float(fluid.clients_per_s),
        "horizon_us": float(fluid.horizon_us),
        "seed": int(seed),
        "schedulers": ["horizon"],
        "fluid": profile.summary(),
        "exact": {
            "rate_per_us": exact_rate,
            "hot_share": exact_hot,
            "window_us": window_us,
        },
        "sampled": sampled,
        "sampled_wall_s": float(sum(r["wall_s"] for r in runs)),
        "checks": checks,
        "within_tolerance": bool(all(c["ok"] for c in checks)),
        "fingerprints": fingerprints,
        "fingerprints_identical": bool(len(fingerprints) == 1),
    }


# --------------------------------------------------------------------------- #
# Fluid scenario catalogue.
# --------------------------------------------------------------------------- #

FLUID_SCENARIOS: Dict[str, FluidScenario] = {}


def register_fluid_scenario(fluid: FluidScenario) -> FluidScenario:
    """Add ``fluid`` to the catalogue the scale engine and CLI sweep."""
    FLUID_SCENARIOS[fluid.name] = fluid
    return fluid


def get_fluid_scenario(name: str) -> FluidScenario:
    try:
        return FLUID_SCENARIOS[name]
    except KeyError:
        raise KeyError(
            f"no fluid scenario registered under {name!r}; "
            f"known: {', '.join(sorted(FLUID_SCENARIOS))}"
        ) from None


#: Small validation scenario: a quarter-million clients/s over 4096 keys
#: with a mid-run spike — big enough that fluid vs exact is a real check,
#: small enough to run inside the test suite.
FLUID_PHASED = register_fluid_scenario(
    FluidScenario(
        name="fluid-phased",
        help="250k clients/s, 4096 Zipf keys, warm -> 2.5x spike -> cooldown",
        base=TrafficScenario(
            name="fluid-phased-base",
            num_locks=4096,
            arrival="poisson",
            mean_gap_us=8.0,
            key_dist="zipf",
            zipf_exponent=1.0,
            phases=(
                Phase(duration_us=120.0, rate_scale=1.0, name="warm"),
                Phase(duration_us=160.0, rate_scale=2.5, name="spike"),
                Phase(duration_us=None, rate_scale=1.0, name="cooldown"),
            ),
        ),
        clients_per_s=250_000.0,
        horizon_us=2_000.0,
    )
)

#: The headline scenario: two million clients per second against a
#: million-key Zipf table over a full simulated second.  The fluid profile
#: resolves ~2e6 offered requests in one vectorized pass; the sampled
#: cohort (16 proxy ranks × 48 requests) recovers the tail percentiles.
FLUID_MEGA = register_fluid_scenario(
    FluidScenario(
        name="fluid-mega",
        help="2M clients/s over 2^20 Zipf(1.1) keys for one simulated second",
        base=TrafficScenario(
            name="fluid-mega-base",
            num_locks=1 << 20,
            arrival="poisson",
            mean_gap_us=8.0,
            key_dist="zipf",
            zipf_exponent=1.1,
            phases=(
                Phase(duration_us=300_000.0, rate_scale=1.0, name="steady"),
                Phase(duration_us=400_000.0, rate_scale=1.5, name="peak"),
                Phase(duration_us=None, rate_scale=0.75, name="drain"),
            ),
        ),
        clients_per_s=2_000_000.0,
        horizon_us=1_000_000.0,
    )
)
