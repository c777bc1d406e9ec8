"""Figure drivers: one function per figure of the paper's evaluation section.

Every driver sweeps the relevant parameter(s), runs the benchmark harness on
the simulated machine and returns a :class:`~repro.bench.campaign.SweepReport`
whose rows are flat dictionaries (one per data point) that
:mod:`repro.bench.report` can pivot into the same layout as the paper's
figures.  The absolute numbers come from the simulator's latency model, so
only the *shape* of each figure (which scheme wins, where thresholds help,
where the intra-/inter-node knee sits) is meaningful — see EXPERIMENTS.md.

Scaling: the paper runs up to 1024 MPI processes with thousands of lock
acquisitions; the simulated drivers default to the process counts of
:func:`repro.bench.workloads.default_process_counts` and proportionally
scaled thresholds and iteration counts so the full suite finishes in minutes.
Since the horizon runtime made the simulator core several times faster
than the original thread-per-rank one, the default sweep extends to P = 128;
pass ``process_counts`` or set ``REPRO_BENCH_PROCS`` to trim it.

Execution: every driver builds its grid as
:class:`~repro.bench.campaign.CampaignPoint`\\ s and runs it through
:func:`~repro.bench.campaign.run_sweep` under suite ``"figures"``, with the
result cache on.  Lock-figure points run through
:func:`~repro.bench.campaign.run_point`, so a figure point that equals a
campaign point is one cache entry; each figure row is that campaign row
rounded by :func:`~repro.bench.harness.rounded_row`, plus the figure's own
labels.  The DHT (Figure 6) and the hand-off ablation have their own workers
and benchmark labels (``"dht"``, ``"handoff-locality"``), which keeps their
points keyed apart from lock points.  Each point carries its own seed and
the simulator is deterministic, so the rows are bit-identical regardless of
``jobs``.  Every driver also takes :func:`~repro.bench.campaign.run_sweep`'s
keywords: ``jobs`` (default: all cores; ``REPRO_JOBS=1`` or ``jobs=1`` runs
inline) and ``cache`` / ``cache_dir`` / ``refresh``.  Every worker runs on
the runtime its point names (``CampaignPoint.scheduler``).
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.api.registry import get_runtime, get_scheme, scheme_names
from repro.bench.campaign import CampaignPoint, SweepReport, run_point, run_sweep
from repro.bench.harness import rounded_row
from repro.bench.workloads import (
    LockBenchConfig,
    bench_scale,
    default_process_counts,
)
from repro.rma.runtime_base import BARRIER, COMPUTE
from repro.topology.builder import cached_machine

__all__ = [
    "figure3",
    "figure4a",
    "figure4b",
    "figure4c",
    "figure4d",
    "figure4e",
    "figure4f",
    "figure5",
    "figure6",
    "ablation_counter_placement",
    "ablation_fabric_contention",
    "ablation_flat_latency",
    "ablation_handoff_locality",
    "ablation_locality",
    "related_mcs_comparison",
    "related_rw_comparison",
    "DEFAULT_PROCS_PER_NODE",
]

#: Processes per simulated compute node.  The paper uses 16; the scaled-down
#: simulation uses 8 so that the default sweeps still span several nodes.
DEFAULT_PROCS_PER_NODE = 8

Row = Dict[str, object]


def _iterations(base: int) -> int:
    return max(4, int(base * bench_scale()))


def _machines(process_counts: Optional[Sequence[int]], procs_per_node: int) -> List[Tuple[int, object]]:
    counts = tuple(process_counts) if process_counts else default_process_counts()
    return [(p, cached_machine(p, procs_per_node)) for p in counts]


def _point(
    scheme: str,
    benchmark: str,
    procs: int,
    procs_per_node: int,
    iterations: int,
    seed: int,
    *,
    fw: float = LockBenchConfig.fw,  # the harness default every figure ran at
    fabric: str = "",
    **params: Any,
) -> CampaignPoint:
    """One figure point; ``params`` are ``LockBenchConfig`` fields (t_l, t_dc, t_r)."""
    return CampaignPoint(
        scheme=scheme,
        benchmark=benchmark,
        procs=procs,
        procs_per_node=procs_per_node,
        iterations=iterations,
        fw=fw,
        seed=seed,
        params=tuple(params.items()),
        fabric=fabric,
        provider=getattr(get_scheme(scheme).builder, "__module__", "") or "",
    )


def _lock_row(row: Row, meta: Row) -> Row:
    """The figure row of a campaign row: its rounded metrics, then the labels
    (and the sweep's transient ``cached`` marker)."""
    return {**rounded_row(row), **meta, "cached": row["cached"]}


def _labelled(*fields: str) -> Callable[[Row, Row], Row]:
    """The projection of a worker row that is already a figure row: the
    labels, then ``fields`` in order (a cached row comes back key-sorted)."""
    return lambda row, meta: {**meta, **{k: row[k] for k in (*fields, "cached")}}


def _figure(
    name: str,
    points: Sequence[CampaignPoint],
    metas: Sequence[Row],
    *,
    worker: Callable[[CampaignPoint], Row] = run_point,
    project: Callable[[Row, Row], Row] = _lock_row,
    **sweep: Any,
) -> SweepReport:
    """Run a figure's grid on the sweep engine; its rows become figure rows.

    ``points`` and ``metas`` are parallel lists built in the driver's nested
    loop order; ``project`` turns each worker row and its labels into the
    figure row.
    """
    report = run_sweep("figures", name, points, worker, **sweep)
    report.rows = [project(row, meta) for row, meta in zip(report.rows, metas)]
    return report


def _default_tl(machine) -> Tuple[int, ...]:
    """Default locality thresholds: modest locality, more of it at the leaf level.

    The paper recommends reserving larger ``T_L,i`` for levels with more
    expensive inter-element communication; in the scaled-down sweeps that is
    the compute-node level (the leaves), which gets 8 consecutive passings,
    while the upper levels get 4.
    """
    if machine.n_levels == 1:
        return (8,)
    return tuple([4] * (machine.n_levels - 1) + [8])


# --------------------------------------------------------------------------- #
# Figure 3: RMA-MCS vs D-MCS vs foMPI-Spin (five benchmarks)
# --------------------------------------------------------------------------- #

def figure3(
    benchmarks: Sequence[str] = ("lb", "ecsb", "sob", "wcsb", "warb"),
    process_counts: Optional[Sequence[int]] = None,
    *,
    iterations: int = 20,
    procs_per_node: int = DEFAULT_PROCS_PER_NODE,
    seed: int = 1,
    **sweep: Any,
) -> SweepReport:
    """Figures 3a-3e: the MCS-family comparison across all five microbenchmarks."""
    points: List[CampaignPoint] = []
    metas: List[Row] = []
    iters = _iterations(iterations)
    for benchmark in benchmarks:
        for p, machine in _machines(process_counts, procs_per_node):
            for scheme in scheme_names(category="mcs"):
                points.append(
                    _point(scheme, benchmark, p, procs_per_node, iters, seed, t_l=_default_tl(machine))
                )
                metas.append(
                    {"figure": {"lb": "3a", "ecsb": "3b", "sob": "3c", "wcsb": "3d", "warb": "3e"}[benchmark]}
                )
    return _figure("figure3", points, metas, **sweep)


# --------------------------------------------------------------------------- #
# Figure 4: threshold analysis of RMA-RW
# --------------------------------------------------------------------------- #

def figure4a(
    t_dc_values: Sequence[int] = (1, 2, 4, 8, 16),
    process_counts: Optional[Sequence[int]] = None,
    *,
    iterations: int = 16,
    fw: float = 0.02,
    procs_per_node: int = DEFAULT_PROCS_PER_NODE,
    seed: int = 2,
    **sweep: Any,
) -> SweepReport:
    """Figure 4a: impact of the distributed-counter stride ``T_DC`` (SOB, F_W=2%)."""
    points: List[CampaignPoint] = []
    metas: List[Row] = []
    iters = _iterations(iterations)
    for p, machine in _machines(process_counts, procs_per_node):
        for t_dc in t_dc_values:
            if t_dc > machine.num_processes:
                continue
            points.append(
                _point("rma-rw", "sob", p, procs_per_node, iters, seed, fw=fw,
                       t_dc=t_dc, t_l=_default_tl(machine), t_r=32)
            )
            metas.append({"figure": "4a", "t_dc": t_dc})
    return _figure("figure4a", points, metas, **sweep)


def figure4b(
    tl_products: Sequence[int] = (8, 16, 32, 64, 128),
    process_counts: Optional[Sequence[int]] = None,
    *,
    iterations: int = 16,
    fw: float = 0.25,
    procs_per_node: int = DEFAULT_PROCS_PER_NODE,
    seed: int = 3,
    **sweep: Any,
) -> SweepReport:
    """Figure 4b: impact of the product of locality thresholds (SOB, F_W=25%)."""
    points: List[CampaignPoint] = []
    metas: List[Row] = []
    iters = _iterations(iterations)
    for p, machine in _machines(process_counts, procs_per_node):
        for product in tl_products:
            t_l2 = 4
            t_l1 = max(1, product // t_l2)
            t_l = (t_l1, t_l2)[: machine.n_levels] if machine.n_levels >= 2 else (product,)
            points.append(
                _point("rma-rw", "sob", p, procs_per_node, iters, seed, fw=fw, t_l=t_l, t_r=32)
            )
            metas.append(
                {"figure": "4b", "tl_product": t_l1 * t_l2 if machine.n_levels >= 2 else product}
            )
    return _figure("figure4b", points, metas, **sweep)


def _tl_splits(product: int = 32) -> List[Tuple[int, int]]:
    """Scaled analogue of the paper's 10-100 / 25-40 / 50-20 splits (T_L2, T_L1)."""
    return [(2, product // 2), (4, product // 4), (8, product // 8)]


def figure4c(
    process_counts: Optional[Sequence[int]] = None,
    *,
    iterations: int = 16,
    fw: float = 0.25,
    product: int = 32,
    procs_per_node: int = DEFAULT_PROCS_PER_NODE,
    seed: int = 4,
    benchmark: str = "sob",
    **sweep: Any,
) -> SweepReport:
    """Figure 4c: throughput for different splits of a fixed T_L product (SOB, F_W=25%)."""
    points: List[CampaignPoint] = []
    metas: List[Row] = []
    iters = _iterations(iterations)
    figure = "4c" if benchmark == "sob" else "4d"
    for p, machine in _machines(process_counts, procs_per_node):
        for t_l2, t_l1 in _tl_splits(product):
            t_l = (t_l1, t_l2) if machine.n_levels >= 2 else (product,)
            points.append(
                _point("rma-rw", benchmark, p, procs_per_node, iters, seed, fw=fw,
                       t_l=t_l[: machine.n_levels], t_r=32)
            )
            metas.append({"figure": figure, "tl_split": f"{t_l2}-{t_l1}"})
    return _figure(f"figure{figure}", points, metas, **sweep)


def figure4d(
    process_counts: Optional[Sequence[int]] = None,
    *,
    iterations: int = 16,
    fw: float = 0.25,
    product: int = 32,
    procs_per_node: int = DEFAULT_PROCS_PER_NODE,
    seed: int = 5,
    **sweep: Any,
) -> SweepReport:
    """Figure 4d: latency for different splits of a fixed T_L product (LB, F_W=25%)."""
    return figure4c(
        process_counts,
        iterations=iterations,
        fw=fw,
        product=product,
        procs_per_node=procs_per_node,
        seed=seed,
        benchmark="lb",
        **sweep,
    )


def figure4e(
    t_r_values: Sequence[int] = (8, 16, 32, 64, 128),
    process_counts: Optional[Sequence[int]] = None,
    *,
    iterations: int = 20,
    fw: float = 0.002,
    procs_per_node: int = DEFAULT_PROCS_PER_NODE,
    seed: int = 6,
    **sweep: Any,
) -> SweepReport:
    """Figure 4e: impact of the reader threshold ``T_R`` (ECSB, F_W=0.2%)."""
    points: List[CampaignPoint] = []
    metas: List[Row] = []
    iters = _iterations(iterations)
    for p, machine in _machines(process_counts, procs_per_node):
        for t_r in t_r_values:
            points.append(
                _point("rma-rw", "ecsb", p, procs_per_node, iters, seed, fw=fw,
                       t_l=_default_tl(machine), t_r=t_r)
            )
            metas.append({"figure": "4e", "t_r": t_r})
    return _figure("figure4e", points, metas, **sweep)


def figure4f(
    t_r_values: Sequence[int] = (16, 32, 64),
    fw_values: Sequence[float] = (0.02, 0.05),
    process_counts: Optional[Sequence[int]] = None,
    *,
    iterations: int = 16,
    procs_per_node: int = DEFAULT_PROCS_PER_NODE,
    seed: int = 7,
    **sweep: Any,
) -> SweepReport:
    """Figure 4f: interaction of ``T_R`` with the writer fraction (ECSB, F_W in {2%, 5%})."""
    points: List[CampaignPoint] = []
    metas: List[Row] = []
    iters = _iterations(iterations)
    for p, machine in _machines(process_counts, procs_per_node):
        for fw in fw_values:
            for t_r in t_r_values:
                points.append(
                    _point("rma-rw", "ecsb", p, procs_per_node, iters, seed, fw=fw,
                           t_l=_default_tl(machine), t_r=t_r)
                )
                metas.append({"figure": "4f", "t_r": t_r, "series": f"{t_r}-{fw * 100:g}%"})
    return _figure("figure4f", points, metas, **sweep)


# --------------------------------------------------------------------------- #
# Figure 5: RMA-RW vs foMPI-RW
# --------------------------------------------------------------------------- #

def figure5(
    benchmarks: Sequence[str] = ("lb", "ecsb", "sob"),
    fw_values: Sequence[float] = (0.002, 0.02, 0.05),
    process_counts: Optional[Sequence[int]] = None,
    *,
    iterations: int = 20,
    procs_per_node: int = DEFAULT_PROCS_PER_NODE,
    seed: int = 8,
    **sweep: Any,
) -> SweepReport:
    """Figures 5a-5c: RMA-RW against the centralized foMPI-RW baseline."""
    points: List[CampaignPoint] = []
    metas: List[Row] = []
    iters = _iterations(iterations)
    figure_names = {"lb": "5a", "ecsb": "5b", "sob": "5c"}
    for benchmark in benchmarks:
        for p, machine in _machines(process_counts, procs_per_node):
            for fw in fw_values:
                for scheme in ("rma-rw", "fompi-rw"):
                    points.append(
                        _point(scheme, benchmark, p, procs_per_node, iters, seed, fw=fw,
                               t_l=_default_tl(machine), t_r=64)
                    )
                    metas.append(
                        {"figure": figure_names.get(benchmark, "5"), "series": f"{scheme} {fw * 100:g}%"}
                    )
    return _figure("figure5", points, metas, **sweep)


# --------------------------------------------------------------------------- #
# Figure 6: distributed hashtable
# --------------------------------------------------------------------------- #

def _dht_row(point: CampaignPoint) -> Row:
    """Run one Figure-6 point (``iterations`` = operations per process)."""
    from repro.dht.workload import DHTWorkloadConfig, build_dht_setup, run_dht_benchmark

    config = DHTWorkloadConfig(
        machine=cached_machine(point.procs, point.procs_per_node, point.topology),
        scheme=point.scheme,  # type: ignore[arg-type]
        ops_per_process=point.iterations,
        fw=point.fw,
        seed=point.seed,
        **dict(point.params),
    )
    dht_spec, _, _ = build_dht_setup(config)
    runtime = get_runtime(point.scheduler).factory(
        config.machine, window_words=dht_spec.window_words + 2, seed=config.seed
    )
    outcome = run_dht_benchmark(config, runtime=runtime)
    return {
        "total_time_s": round(outcome.total_time_s, 6),
        "total_time_us": round(outcome.total_time_us, 1),
        "ops": outcome.total_ops,
        "inserts": outcome.inserts,
        "lookups": outcome.lookups,
    }


def figure6(
    fw_values: Sequence[float] = (0.2, 0.05, 0.02, 0.0),
    process_counts: Optional[Sequence[int]] = None,
    *,
    ops_per_process: int = 12,
    procs_per_node: int = DEFAULT_PROCS_PER_NODE,
    seed: int = 9,
    **sweep: Any,
) -> SweepReport:
    """Figures 6a-6d: DHT total time for foMPI-A, foMPI-RW and RMA-RW."""
    points: List[CampaignPoint] = []
    metas: List[Row] = []
    ops = _iterations(ops_per_process)
    figure_names = {0.2: "6a", 0.05: "6b", 0.02: "6c", 0.0: "6d"}
    for fw in fw_values:
        for p, machine in _machines(process_counts, procs_per_node):
            for scheme in ("fompi-a", "fompi-rw", "rma-rw"):
                points.append(
                    CampaignPoint(
                        scheme=scheme, benchmark="dht", procs=p, procs_per_node=procs_per_node,
                        iterations=ops, fw=fw, seed=seed,
                        params=(("t_l", _default_tl(machine)), ("t_r", 64)),
                    )
                )
                metas.append({"figure": figure_names.get(fw, "6"), "scheme": scheme, "P": p, "fw": fw})
    project = _labelled("total_time_s", "total_time_us", "ops", "inserts", "lookups")
    return _figure("figure6", points, metas, worker=_dht_row, project=project, **sweep)


# --------------------------------------------------------------------------- #
# Ablations (design choices called out in DESIGN.md)
# --------------------------------------------------------------------------- #

def ablation_counter_placement(
    process_counts: Optional[Sequence[int]] = None,
    *,
    iterations: int = 16,
    fw: float = 0.02,
    procs_per_node: int = DEFAULT_PROCS_PER_NODE,
    seed: int = 11,
    **sweep: Any,
) -> SweepReport:
    """Single centralized counter vs one counter per node (why the DC exists)."""
    points: List[CampaignPoint] = []
    metas: List[Row] = []
    iters = _iterations(iterations)
    for p, machine in _machines(process_counts, procs_per_node):
        placements = {
            "dc-per-node": min(procs_per_node, machine.num_processes),
            "dc-single": machine.num_processes,
        }
        for label, t_dc in placements.items():
            points.append(
                _point("rma-rw", "sob", p, procs_per_node, iters, seed, fw=fw,
                       t_dc=t_dc, t_l=_default_tl(machine), t_r=32)
            )
            metas.append({"figure": "ablation-dc", "series": label})
    return _figure("ablation_counter_placement", points, metas, **sweep)


def ablation_flat_latency(
    process_counts: Optional[Sequence[int]] = None,
    *,
    iterations: int = 16,
    procs_per_node: int = DEFAULT_PROCS_PER_NODE,
    seed: int = 12,
    **sweep: Any,
) -> SweepReport:
    """Topology-aware RMA-MCS vs D-MCS on hierarchical and on flat fabrics.

    On a flat fabric (every remote access costs the same) the locality
    thresholds cannot help, so the RMA-MCS advantage should shrink.
    """
    points: List[CampaignPoint] = []
    metas: List[Row] = []
    iters = _iterations(iterations)
    for fabric_name, fabric in (("hierarchical", ""), ("flat", "flat")):
        for p, machine in _machines(process_counts, procs_per_node):
            for scheme in ("d-mcs", "rma-mcs"):
                points.append(
                    _point(scheme, "ecsb", p, procs_per_node, iters, seed, fabric=fabric,
                           t_l=_default_tl(machine))
                )
                metas.append(
                    {"figure": "ablation-fabric", "series": f"{scheme} ({fabric_name})", "fabric": fabric_name}
                )
    return _figure("ablation_flat_latency", points, metas, **sweep)


def _handoff_row(point: CampaignPoint) -> Row:
    """Run RMA-MCS under a timeline observer and read the hand-off locality off it."""
    from repro.core.instrumentation import locality_report
    from repro.core.rma_mcs import RMAMCSLockSpec
    from repro.fault.observers import TimelineObserver
    from repro.verification.oracles import observe_lock

    machine = cached_machine(point.procs, point.procs_per_node, point.topology)
    iters = point.iterations
    lock_spec = RMAMCSLockSpec(machine, t_l=dict(point.params)["t_l"])
    timeline = TimelineObserver()
    runtime = get_runtime(point.scheduler).factory(
        machine, window_words=lock_spec.window_words, seed=point.seed, observer=timeline
    )

    def program(ctx):
        lock = observe_lock(lock_spec.make(ctx), ctx, ctx.observer)
        yield (BARRIER,)
        start = ctx.now()
        for _ in range(iters):
            yield from lock.acquire_steps()
            yield (COMPUTE, 0.2)
            yield from lock.release_steps()
        end = ctx.now()
        yield (BARRIER,)
        return end - start

    result = runtime.run(program, window_init=lock_spec.init_window)
    # Under mutual exclusion a hold closes before the next one opens, so
    # the holds are the grants in order.
    report = locality_report(machine, [hold.rank for hold in timeline.holds])
    elapsed = max(result.returns)
    return {
        "throughput_mln_s": round(point.procs * iters / elapsed, 4) if elapsed > 0 else 0.0,
        "node_locality_pct": round(report.node_locality * 100, 1),
        "grants": report.recorded_grants,
    }


def ablation_handoff_locality(
    t_l2_values: Sequence[int] = (1, 4, 16),
    process_counts: Optional[Sequence[int]] = None,
    *,
    iterations: int = 12,
    procs_per_node: int = DEFAULT_PROCS_PER_NODE,
    seed: int = 14,
    **sweep: Any,
) -> SweepReport:
    """Measure the *hand-off locality* behind the locality-threshold ablation.

    For each node-level ``T_L`` the RMA-MCS lock is run under a run observer
    that records the sequence of grants; the rows report both the lock's
    throughput and the fraction of consecutive grants that stayed on one node,
    making the mechanism behind the Figure-1 locality axis directly visible.
    The observer issues no RMA calls, so the throughput is the unobserved
    lock's own.  The worker reads the grants off the observer, so a point's
    row is built where it runs.
    """
    points: List[CampaignPoint] = []
    metas: List[Row] = []
    iters = _iterations(iterations)
    for p, machine in _machines(process_counts, procs_per_node):
        for t_l2 in t_l2_values:
            t_l = tuple([4] * (machine.n_levels - 1) + [t_l2]) if machine.n_levels > 1 else (t_l2,)
            points.append(_point("rma-mcs", "handoff-locality", p, procs_per_node, iters, seed, t_l=t_l))
            metas.append({"figure": "ablation-handoff", "P": p, "t_l2": t_l2})
    project = _labelled("throughput_mln_s", "node_locality_pct", "grants")
    return _figure("ablation_handoff_locality", points, metas, worker=_handoff_row, project=project, **sweep)


def ablation_locality(
    t_l2_values: Sequence[int] = (1, 2, 4, 8, 16),
    process_counts: Optional[Sequence[int]] = None,
    *,
    iterations: int = 16,
    procs_per_node: int = DEFAULT_PROCS_PER_NODE,
    seed: int = 13,
    **sweep: Any,
) -> SweepReport:
    """RMA-MCS locality threshold sweep: T_L=1 (fair, locality-free) to large T_L."""
    points: List[CampaignPoint] = []
    metas: List[Row] = []
    iters = _iterations(iterations)
    for p, machine in _machines(process_counts, procs_per_node):
        for t_l2 in t_l2_values:
            points.append(
                _point("rma-mcs", "ecsb", p, procs_per_node, iters, seed, t_l=tuple([t_l2] * machine.n_levels))
            )
            metas.append({"figure": "ablation-locality", "t_l2": t_l2})
    return _figure("ablation_locality", points, metas, **sweep)


# --------------------------------------------------------------------------- #
# Related-work comparisons (beyond the paper's figures)
# --------------------------------------------------------------------------- #

def related_mcs_comparison(
    benchmarks: Sequence[str] = ("ecsb", "sob"),
    process_counts: Optional[Sequence[int]] = None,
    *,
    iterations: int = 16,
    procs_per_node: int = DEFAULT_PROCS_PER_NODE,
    seed: int = 21,
    **sweep: Any,
) -> SweepReport:
    """Mutual-exclusion comparison including the related-work locks.

    Sweeps the paper's MCS-family schemes (foMPI-Spin, D-MCS, RMA-MCS)
    together with the ticket lock, the hierarchical backoff lock and the
    two-level cohort lock from Sections 2.3/7.  The expected ordering at scale
    is: centralized spinning schemes (foMPI-Spin, ticket, HBO) at the bottom,
    the topology-oblivious queue lock (D-MCS) in the middle, and the
    NUMA/topology-aware designs (cohort, RMA-MCS) on top, with RMA-MCS ahead
    of the two-level cohort lock on machines with more than two levels.
    """
    # Queried live (not the import-time tuples) so custom schemes registered
    # in the comparison categories show up without touching this driver.
    points: List[CampaignPoint] = []
    metas: List[Row] = []
    iters = _iterations(iterations)
    schemes = scheme_names(category="mcs") + scheme_names(category="related-mcs")
    for benchmark in benchmarks:
        for p, machine in _machines(process_counts, procs_per_node):
            for scheme in schemes:
                points.append(
                    _point(scheme, benchmark, p, procs_per_node, iters, seed, t_l=_default_tl(machine))
                )
                metas.append({"figure": "related-mcs", "series": scheme})
    return _figure("related_mcs_comparison", points, metas, **sweep)


def related_rw_comparison(
    fw_values: Sequence[float] = (0.002, 0.05),
    process_counts: Optional[Sequence[int]] = None,
    *,
    benchmark: str = "ecsb",
    iterations: int = 16,
    t_r: int = 64,
    procs_per_node: int = DEFAULT_PROCS_PER_NODE,
    seed: int = 22,
    **sweep: Any,
) -> SweepReport:
    """Reader-writer comparison including the NUMA-aware RW lock.

    Sweeps foMPI-RW (centralized), the per-node-counter NUMA-aware RW lock
    (Calciu et al.) and RMA-RW for several writer fractions.  The NUMA-aware
    lock should sit between the centralized baseline and RMA-RW: its readers
    scale (node-local counters) but its writers pay for draining every node
    on every exclusive acquisition because it lacks the paper's ``T_R``/
    ``T_W`` batching.
    """
    points: List[CampaignPoint] = []
    metas: List[Row] = []
    iters = _iterations(iterations)
    schemes = scheme_names(category="rw") + scheme_names(category="related-rw")
    for fw in fw_values:
        for p, machine in _machines(process_counts, procs_per_node):
            for scheme in schemes:
                points.append(
                    _point(scheme, benchmark, p, procs_per_node, iters, seed, fw=fw,
                           t_l=_default_tl(machine), t_r=t_r)
                )
                metas.append({"figure": "related-rw", "series": f"{scheme} {fw * 100:g}%"})
    return _figure("related_rw_comparison", points, metas, **sweep)


def ablation_fabric_contention(
    process_counts: Optional[Sequence[int]] = None,
    *,
    iterations: int = 14,
    procs_per_node: int = DEFAULT_PROCS_PER_NODE,
    seed: int = 23,
    **sweep: Any,
) -> SweepReport:
    """End-point-only contention vs additional Dragonfly link contention.

    DESIGN.md lists the lack of in-network congestion as the main fidelity gap
    of the end-point latency model.  This ablation reruns the Figure-3 ECSB
    comparison of D-MCS and RMA-MCS with the optional
    :class:`~repro.rma.fabric.FabricContentionModel` (two nodes per router,
    two routers per group): the topology-oblivious queue (whose hand-offs hop
    between groups arbitrarily) should lose more throughput than the
    topology-aware tree when the shared global links start to serialize
    traffic.
    """
    points: List[CampaignPoint] = []
    metas: List[Row] = []
    iters = _iterations(iterations)
    for p, machine in _machines(process_counts, procs_per_node):
        for fabric_name, fabric in (("endpoint-only", ""), ("dragonfly-links", "dragonfly-links")):
            for scheme in ("d-mcs", "rma-mcs"):
                points.append(
                    _point(scheme, "ecsb", p, procs_per_node, iters, seed, fabric=fabric,
                           t_l=_default_tl(machine))
                )
                metas.append(
                    {"figure": "ablation-fabric-links", "series": f"{scheme} ({fabric_name})", "fabric": fabric_name}
                )
    return _figure("ablation_fabric_contention", points, metas, **sweep)
