"""Benchmark harness: build a lock, run a microbenchmark, collect the metrics.

The measurement discipline mirrors the paper (Section 5, "Experimentation
Methodology"): per-operation latencies are averaged after discarding the
first 10% of samples as warm-up, and throughput is the aggregate number of
lock acquisitions divided by the total time of the measured phase.  Times are
virtual microseconds of the :class:`~repro.rma.sim_runtime.SimRuntime`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Tuple

from repro.api.registry import get_benchmark, get_runtime, get_scheme
from repro.bench.workloads import LockBenchConfig
from repro.core.lock_base import LockSpec, RWLockHandle, RWLockSpec, program_for_spec
from repro.rma.fabric import FabricContentionModel
from repro.rma.latency import LatencyModel
from repro.rma.perturbation import PerturbationModel
from repro.rma.runtime_base import (
    ACCUMULATE,
    BARRIER,
    COMPUTE,
    FLUSH,
    GET,
    PUT,
    ProcessContext,
)
from repro.util.stats import summarize

__all__ = [
    "LockBenchResult",
    "build_lock_spec",
    "default_scheduler",
    "make_lock_program",
    "rounded_row",
    "run_lock_benchmark",
    "run_lock_benchmark_detailed",
]

#: Scheduler (runtime registry name) used when ``run_lock_benchmark`` is not
#: given an explicit one.  It is a constant: a sweep names its runtime per
#: point (``CampaignPoint.scheduler``), so every pool worker runs what the
#: point says.
_DEFAULT_SCHEDULER = "horizon"


def default_scheduler() -> str:
    """The runtime used when no explicit ``scheduler=`` is passed."""
    return _DEFAULT_SCHEDULER


def rounded_row(row: Mapping[str, Any]) -> Dict[str, object]:
    """The report/figure row of a campaign row: its metrics rounded for tables.

    ``row`` carries the campaign-row keys (:func:`repro.bench.campaign.run_point`);
    :meth:`LockBenchResult.as_row` and the figure drivers both round here.
    """
    out: Dict[str, object] = {
        "scheme": row["scheme"],
        "benchmark": row["benchmark"],
        "P": row["P"],
        "fw": row["fw"],
        "latency_us": round(row["latency_mean_us"], 3),
        "latency_p95_us": round(row["latency_p95_us"], 3),
        "throughput_mln_s": round(row["throughput_mln_s"], 4),
        "elapsed_us": round(row["elapsed_us"], 1),
        "acquires": row["acquires"],
    }
    percentiles = row["percentiles"]
    for key in ("e2e_p50_us", "e2e_p99_us", "e2e_p999_us", "acquire_p99_us"):
        if key in percentiles:
            out[key] = round(percentiles[key], 3)
    return out


@dataclass
class LockBenchResult:
    """Aggregated outcome of one benchmark configuration."""

    scheme: str
    benchmark: str
    num_processes: int
    fw: float
    iterations: int
    total_acquires: int
    reads: int
    writes: int
    elapsed_us: float
    latency_mean_us: float
    latency_p95_us: float
    throughput_mln_per_s: float
    op_counts: Dict[str, int] = field(default_factory=dict)
    #: Host wall-clock seconds of the simulation and the resulting simulator
    #: throughput (RMA ops per host second).
    wall_time_s: float = 0.0
    sim_ops_per_s: float = 0.0
    #: Open-loop traffic accounting (populated by the traffic scenarios of
    #: :mod:`repro.traffic` only): deterministic tail-latency percentiles
    #: (``e2e_p99_us``, ``acquire_p999_us``, ...) and one row per load phase
    #: with its request count, throughput and end-to-end percentiles.
    percentiles: Dict[str, float] = field(default_factory=dict)
    phases: List[Dict[str, object]] = field(default_factory=list)

    def as_row(self) -> Dict[str, object]:
        """Flatten to a row dictionary for reports and figure tables."""
        return rounded_row({
            "scheme": self.scheme,
            "benchmark": self.benchmark,
            "P": self.num_processes,
            "fw": self.fw,
            "latency_mean_us": self.latency_mean_us,
            "latency_p95_us": self.latency_p95_us,
            "throughput_mln_s": self.throughput_mln_per_s,
            "elapsed_us": self.elapsed_us,
            "acquires": self.total_acquires,
            "percentiles": self.percentiles,
        })


def build_lock_spec(config: LockBenchConfig) -> Tuple[LockSpec, bool]:
    """Build the lock spec for ``config.scheme``; returns ``(spec, is_rw)``.

    Dispatch is generated from the scheme registry (:mod:`repro.api`): the
    registered builder receives the machine plus every declared parameter,
    each extracted from ``config`` via its :class:`~repro.api.registry.ParamSpec`
    (``getattr(config, name, default)`` unless the spec supplies a custom
    ``from_config`` extractor, as the cohort-style locks do for their
    may-pass-local bound).

    A scheme outside the plain lock-handle protocol (``harness=False``) is
    still buildable when it registered a ``conformance_adapter``: the adapter
    supplies a harness-compatible facade (e.g. the striped per-volume lock
    pinned to one stripe), which is how ``repro conform`` covers such schemes.
    """
    info = get_scheme(config.scheme)
    if not info.harness:
        if info.conformance_adapter is not None:
            return _build_adapter_spec(info, config), info.rw
        raise ValueError(
            f"scheme {config.scheme!r} does not follow the plain lock-handle "
            f"protocol and cannot run under the lock benchmark harness"
        )
    return info.build(config.machine, **info.params_from_config(config)), info.rw


def _build_adapter_spec(info: Any, config: LockBenchConfig) -> Any:
    """Build a harness facade through ``info.conformance_adapter``.

    The adapter receives every registered parameter it can accept (by
    signature), so tunable parameters reach adapter-driven schemes the same
    way they reach harness-native ones.  A parameter the caller explicitly
    overlaid that the adapter cannot take is *warned about*, never silently
    dropped — a tune/conform axis must either be live or visibly dead.
    """
    import inspect
    import warnings

    adapter = info.conformance_adapter
    params = info.params_from_config(config)
    try:
        signature = inspect.signature(adapter)
    except (TypeError, ValueError):  # builtins/callables without signatures
        return adapter(config.machine)
    names = set(signature.parameters)
    takes_kwargs = any(
        p.kind is inspect.Parameter.VAR_KEYWORD
        for p in signature.parameters.values()
    )
    accepted = {
        key: value
        for key, value in params.items()
        if takes_kwargs or key in names
    }
    explicit = {key for key, _ in config.params}
    dropped = sorted(explicit - set(accepted))
    if dropped:
        warnings.warn(
            f"conformance adapter for scheme {info.name!r} does not accept "
            f"parameter(s) {', '.join(dropped)}; the axis is a no-op for "
            f"adapter-driven runs",
            RuntimeWarning,
            stacklevel=3,
        )
    return adapter(config.machine, **accepted)


def make_lock_program(config: LockBenchConfig, spec: LockSpec, is_rw: bool, shared_offset: int):
    """Build the SPMD rank program for one benchmark configuration.

    Public so that the ledger and the golden-determinism tools can run the
    exact program the harness runs against an arbitrary runtime backend.  A
    benchmark registered with a custom ``program_factory`` replaces this
    default body entirely; the built-ins parameterize it declaratively via
    their :class:`~repro.api.registry.BenchmarkInfo` fields.

    The loop is a step program (see :mod:`repro.rma.runtime_base`): the
    horizon runtime steps it inline, every other runtime drives it on rank
    threads.  For a spec whose handles are blocking-only the same loop is
    returned in its blocking form (:func:`repro.core.lock_base.program_for_spec`).
    """
    bench_info = get_benchmark(config.benchmark)
    if bench_info.program_factory is not None:
        program = bench_info.program_factory(config, spec, is_rw, shared_offset)
        return program_for_spec(spec, config.machine, program)
    # lo + (hi - lo) * rng.random() is rng.uniform(lo, hi) bit for bit (tests/util/test_rng.py), 3x cheaper.
    cs_lo, cs_hi = config.cs_compute_us
    wait_lo, wait_hi = config.wait_after_release_us

    # Per-iteration flags and config scalars, hoisted out of the measured
    # loop (string comparisons and attribute chains cost real time at the
    # iteration counts the faster simulator core makes affordable).
    is_sob = bench_info.cs_kind == "single-op"
    is_wcsb = bench_info.cs_kind == "counter-compute"
    is_warb = bench_info.post_release_wait
    draw_role = is_rw and config.is_rw_scheme
    fw = config.fw
    iterations = config.iterations

    def program(ctx: ProcessContext):
        lock = spec.make(ctx)
        observer = ctx.observer
        if observer is not None:
            # Wrap at the acquire/release instrumentation points; the wrapper
            # issues no RMA calls, so the RunResult stays bit-identical.
            from repro.verification.oracles import observe_lock

            lock = observe_lock(lock, ctx, observer)
        # ctx.rng is built on first use: bound only when this loop draws, a run
        # that never does builds no rank generator unless its lock handle draws.
        if draw_role or is_wcsb or is_warb:
            rng_random = ctx.rng.random
        now = ctx.now
        yield (BARRIER,)
        start = now()
        latencies = []
        append_latency = latencies.append
        writes = 0
        reads = 0
        for _ in range(iterations):
            as_writer = True
            if draw_role:
                as_writer = bool(rng_random() < fw)
            t0 = now()
            if is_rw:
                rw_lock: RWLockHandle = lock  # type: ignore[assignment]
                if as_writer:
                    yield from rw_lock.acquire_write_steps()
                else:
                    yield from rw_lock.acquire_read_steps()
            else:
                yield from lock.acquire_steps()

            # --- critical section body -------------------------------------- #
            if is_sob:
                # Exactly one memory access on a shared remote location.
                if as_writer:
                    yield (PUT, 1, 0, shared_offset)
                else:
                    yield (GET, 0, shared_offset)
                yield (FLUSH, 0)
            elif is_wcsb:
                # Increment a shared counter, then local computation of 1-4 us.
                if as_writer:
                    yield (ACCUMULATE, 1, 0, shared_offset)
                else:
                    yield (GET, 0, shared_offset)
                yield (FLUSH, 0)
                yield (COMPUTE, cs_lo + (cs_hi - cs_lo) * rng_random())
            # lb / ecsb / warb: empty critical section.

            if is_rw:
                if as_writer:
                    yield from rw_lock.release_write_steps()
                else:
                    yield from rw_lock.release_read_steps()
            else:
                yield from lock.release_steps()
            append_latency(now() - t0)
            if as_writer:
                writes += 1
            else:
                reads += 1

            if is_warb:
                yield (COMPUTE, wait_lo + (wait_hi - wait_lo) * rng_random())
        end = now()
        yield (BARRIER,)
        return {
            "start": start,
            "end": end,
            "latencies": latencies,
            "writes": writes,
            "reads": reads,
        }

    return program_for_spec(spec, config.machine, program)


def run_lock_benchmark_detailed(
    config: LockBenchConfig,
    *,
    latency_model: Optional[LatencyModel] = None,
    fabric: Optional["FabricContentionModel"] = None,
    seed: Optional[int] = None,
    scheduler: Optional[str] = None,
    spec: Optional[LockSpec] = None,
    is_rw: Optional[bool] = None,
    perturbation: Optional["PerturbationModel"] = None,
    observer: Optional[Any] = None,
    fault_plan: Optional[Any] = None,
):
    """Run one benchmark configuration; returns ``(LockBenchResult, RunResult)``.

    The raw :class:`~repro.rma.runtime_base.RunResult` carries every
    determinism-relevant field (per-rank finish times, op counts and returns),
    which the campaign engine fingerprints for the ``repro regress`` gate;
    most callers want the aggregated metrics only and use
    :func:`run_lock_benchmark`.

    ``latency_model`` overrides the default Cray-XC30-like end-point latency
    model; ``fabric`` optionally adds Dragonfly link-level contention
    (:class:`~repro.rma.fabric.FabricContentionModel`).  ``scheduler`` names
    a registered runtime backend (default: :func:`default_scheduler`,
    ``"horizon"``; every backend produces bit-identical results).  ``spec``
    lets a caller (e.g. ``Cluster.bench``) supply an already-built lock spec
    instead of rebuilding it from ``config``.

    The conformance layer adds two hooks: ``perturbation`` installs a seeded
    :class:`~repro.rma.perturbation.PerturbationModel` (each seed explores a
    different, bit-reproducible interleaving), and ``observer`` a
    :class:`~repro.rma.runtime_base.RunObserver` whose live oracles watch
    the lock's acquire/release events.  The fault layer adds a third:
    ``fault_plan`` installs a seeded :class:`~repro.fault.FaultPlan` that
    kills (and optionally restarts) ranks mid-run; a crashed rank's return
    slot holds a ``{"__crashed__": True, ...}`` marker, which the metric
    aggregation below skips.  All three are forwarded only when set, so
    third-party runtime factories with the original signature keep working.
    """
    runtime_info = get_runtime(scheduler if scheduler is not None else _DEFAULT_SCHEDULER)
    if spec is None:
        spec, is_rw = build_lock_spec(config)
        transform = get_benchmark(config.benchmark).spec_transform
        if transform is not None:
            # The benchmark owns the shared structure it drives (the traffic
            # scenarios swap in a whole lock table here); the runtime window
            # below is sized from the transformed spec.
            spec = transform(config, spec, is_rw)
    elif is_rw is None:
        is_rw = isinstance(spec, RWLockSpec)
    shared_offset = spec.window_words
    factory_kwargs: Dict[str, Any] = {}
    if perturbation is not None:
        factory_kwargs["perturbation"] = perturbation
    if observer is not None:
        factory_kwargs["observer"] = observer
    if fault_plan is not None:
        factory_kwargs["fault_plan"] = fault_plan
    runtime = runtime_info.factory(
        config.machine,
        window_words=spec.window_words + 2,
        latency=latency_model,
        fabric=fabric,
        seed=config.seed if seed is None else seed,
        **factory_kwargs,
    )
    program = make_lock_program(config, spec, is_rw, shared_offset)
    result = runtime.run(program, window_init=spec.init_window)

    # Ranks killed by a fault plan leave a crash marker instead of the
    # program's return dictionary; every aggregate below covers survivors.
    live = [
        r for r in result.returns
        if isinstance(r, dict) and not r.get("__crashed__", False)
    ]
    crashed = len(result.returns) - len(live)

    all_latencies = []
    for per_rank in live:
        all_latencies.extend(per_rank["latencies"])
    summary = summarize(all_latencies, warmup_fraction=config.warmup_fraction)

    starts = [r["start"] for r in live]
    ends = [r["end"] for r in live]
    elapsed_us = (max(ends) - min(starts)) if live else 0.0
    if crashed:
        total_acquires = sum(len(r["latencies"]) for r in live)
    else:
        total_acquires = config.iterations * config.machine.num_processes
    throughput = total_acquires / elapsed_us if elapsed_us > 0 else 0.0

    percentiles: Dict[str, float] = {}
    phases: List[Dict[str, Any]] = []
    if live and isinstance(live[0], dict) and "acquire_latencies" in live[0]:
        # An open-loop traffic run: fold the per-request samples into the
        # deterministic tail-latency summary (imported lazily — the traffic
        # package sits above the harness in the layering).
        from repro.traffic.accounting import DEFAULT_RESERVOIR_CAP, aggregate_traffic

        # Scenarios may size the accounting reservoir themselves (sampled
        # fluid-scale cohorts declare small caps); the per-rank returns carry
        # the cap so it is part of the fingerprinted run state.
        cap = int(live[0].get("reservoir_cap", DEFAULT_RESERVOIR_CAP))
        traffic = aggregate_traffic(live, reservoir_cap=cap)
        percentiles = traffic.percentile_fields()
        percentiles["offered_per_s"] = traffic.offered_per_s
        phases = traffic.phases
        if "swaps" in live[0]:
            # Adaptive run: per-rank count of scheme-slot installs executed
            # at phase-boundary crossings (see repro.control.policy).  Summed
            # so the determinism gate pins the swap schedule too.
            percentiles["swaps_total"] = float(sum(r.get("swaps", 0) for r in live))
        if "resizes" in live[0]:
            # Elastic run: same idea for table resize crossings.
            percentiles["resizes_total"] = float(sum(r.get("resizes", 0) for r in live))

    bench_result = LockBenchResult(
        scheme=config.scheme,
        benchmark=config.benchmark,
        num_processes=config.machine.num_processes,
        fw=config.fw,
        iterations=config.iterations,
        total_acquires=total_acquires,
        reads=sum(r["reads"] for r in live),
        writes=sum(r["writes"] for r in live),
        elapsed_us=elapsed_us,
        latency_mean_us=summary.mean,
        latency_p95_us=summary.p95,
        throughput_mln_per_s=throughput,
        op_counts=dict(result.op_counts),
        wall_time_s=result.wall_time_s,
        sim_ops_per_s=result.ops_per_sec(),
        percentiles=percentiles,
        phases=phases,
    )
    return bench_result, result


def run_lock_benchmark(
    config: LockBenchConfig,
    *,
    latency_model: Optional[LatencyModel] = None,
    fabric: Optional["FabricContentionModel"] = None,
    seed: Optional[int] = None,
    scheduler: Optional[str] = None,
    spec: Optional[LockSpec] = None,
    is_rw: Optional[bool] = None,
    perturbation: Optional[PerturbationModel] = None,
    observer: Optional[Any] = None,
    fault_plan: Optional[Any] = None,
) -> LockBenchResult:
    """Run one benchmark configuration and return its aggregated metrics.

    See :func:`run_lock_benchmark_detailed` for the parameters; this wrapper
    drops the raw :class:`~repro.rma.runtime_base.RunResult`.
    """
    bench_result, _ = run_lock_benchmark_detailed(
        config,
        latency_model=latency_model,
        fabric=fabric,
        seed=seed,
        scheduler=scheduler,
        spec=spec,
        is_rw=is_rw,
        perturbation=perturbation,
        observer=observer,
        fault_plan=fault_plan,
    )
    return bench_result
