"""Figure drivers: one function per figure of the paper's evaluation section.

Every driver sweeps the relevant parameter(s), runs the benchmark harness on
the simulated machine and returns flat row dictionaries (one per data point)
that :mod:`repro.bench.report` can pivot into the same layout as the paper's
figures.  The absolute numbers come from the simulator's latency model, so
only the *shape* of each figure (which scheme wins, where thresholds help,
where the intra-/inter-node knee sits) is meaningful — see EXPERIMENTS.md.

Scaling: the paper runs up to 1024 MPI processes with thousands of lock
acquisitions; the simulated drivers default to the process counts of
:func:`repro.bench.workloads.default_process_counts` and proportionally
scaled thresholds and iteration counts so the full suite finishes in minutes.
Since the horizon scheduler made the simulator core several times faster
than the seed scheduler, the default sweep extends to P = 128; pass
``process_counts`` or set ``REPRO_BENCH_PROCS`` to trim it.

Execution: every driver builds its grid of configurations up front and hands
them to the campaign executor (:func:`repro.bench.campaign.execute_tasks`),
which fans the points out over a process pool — the big P=128 sweeps
parallelize embarrassingly.  Each point carries its own seed and the
simulator is deterministic, so the rows are bit-identical to the old serial
loops regardless of ``jobs`` (default: all cores; set ``REPRO_JOBS=1`` or
pass ``jobs=1`` to force the inline path).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.api.registry import scheme_names
from repro.bench.campaign import BenchTask, execute_tasks
from repro.bench.workloads import (
    LockBenchConfig,
    bench_scale,
    default_process_counts,
)
from repro.dht.workload import DHTWorkloadConfig
from repro.rma.latency import LatencyModel
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


def _sweep(
    tasks: Sequence[BenchTask],
    metas: Sequence[Dict[str, object]],
    jobs: Optional[int],
) -> List[Row]:
    """Execute the grid on the campaign pool and fold the metadata back in.

    Tasks and metadata are parallel lists built in the driver's original
    nested-loop order, so the returned rows match the old serial sweeps
    element for element.
    """
    rows: List[Row] = []
    for result, meta in zip(execute_tasks(tasks, jobs=jobs), metas):
        row = result.as_row()
        row.update(meta)
        rows.append(row)
    return rows


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
    jobs: Optional[int] = None,
) -> List[Row]:
    """Figures 3a-3e: the MCS-family comparison across all five microbenchmarks."""
    tasks: List[BenchTask] = []
    metas: List[Dict[str, object]] = []
    iters = _iterations(iterations)
    for benchmark in benchmarks:
        for p, machine in _machines(process_counts, procs_per_node):
            for scheme in scheme_names(category="mcs"):
                config = LockBenchConfig(
                    machine=machine,
                    scheme=scheme,
                    benchmark=benchmark,
                    iterations=iters,
                    t_l=_default_tl(machine),
                    seed=seed,
                )
                tasks.append(BenchTask(config=config))
                metas.append(
                    {"figure": {"lb": "3a", "ecsb": "3b", "sob": "3c", "wcsb": "3d", "warb": "3e"}[benchmark]}
                )
    return _sweep(tasks, metas, jobs)


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
    jobs: Optional[int] = None,
) -> List[Row]:
    """Figure 4a: impact of the distributed-counter stride ``T_DC`` (SOB, F_W=2%)."""
    tasks: List[BenchTask] = []
    metas: List[Dict[str, object]] = []
    iters = _iterations(iterations)
    for p, machine in _machines(process_counts, procs_per_node):
        for t_dc in t_dc_values:
            if t_dc > machine.num_processes:
                continue
            config = LockBenchConfig(
                machine=machine,
                scheme="rma-rw",
                benchmark="sob",
                iterations=iters,
                fw=fw,
                t_dc=t_dc,
                t_l=_default_tl(machine),
                t_r=32,
                seed=seed,
            )
            tasks.append(BenchTask(config=config))
            metas.append({"figure": "4a", "t_dc": t_dc})
    return _sweep(tasks, metas, jobs)


def figure4b(
    tl_products: Sequence[int] = (8, 16, 32, 64, 128),
    process_counts: Optional[Sequence[int]] = None,
    *,
    iterations: int = 16,
    fw: float = 0.25,
    procs_per_node: int = DEFAULT_PROCS_PER_NODE,
    seed: int = 3,
    jobs: Optional[int] = None,
) -> List[Row]:
    """Figure 4b: impact of the product of locality thresholds (SOB, F_W=25%)."""
    tasks: List[BenchTask] = []
    metas: List[Dict[str, object]] = []
    iters = _iterations(iterations)
    for p, machine in _machines(process_counts, procs_per_node):
        for product in tl_products:
            t_l2 = 4
            t_l1 = max(1, product // t_l2)
            config = LockBenchConfig(
                machine=machine,
                scheme="rma-rw",
                benchmark="sob",
                iterations=iters,
                fw=fw,
                t_l=(t_l1, t_l2)[: machine.n_levels] if machine.n_levels >= 2 else (product,),
                t_r=32,
                seed=seed,
            )
            tasks.append(BenchTask(config=config))
            metas.append(
                {"figure": "4b", "tl_product": t_l1 * t_l2 if machine.n_levels >= 2 else product}
            )
    return _sweep(tasks, metas, jobs)


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
    jobs: Optional[int] = None,
) -> List[Row]:
    """Figure 4c: throughput for different splits of a fixed T_L product (SOB, F_W=25%)."""
    tasks: List[BenchTask] = []
    metas: List[Dict[str, object]] = []
    iters = _iterations(iterations)
    for p, machine in _machines(process_counts, procs_per_node):
        for t_l2, t_l1 in _tl_splits(product):
            t_l = (t_l1, t_l2) if machine.n_levels >= 2 else (product,)
            config = LockBenchConfig(
                machine=machine,
                scheme="rma-rw",
                benchmark=benchmark,
                iterations=iters,
                fw=fw,
                t_l=t_l[: machine.n_levels],
                t_r=32,
                seed=seed,
            )
            tasks.append(BenchTask(config=config))
            metas.append(
                {"figure": "4c" if benchmark == "sob" else "4d", "tl_split": f"{t_l2}-{t_l1}"}
            )
    return _sweep(tasks, metas, jobs)


def figure4d(
    process_counts: Optional[Sequence[int]] = None,
    *,
    iterations: int = 16,
    fw: float = 0.25,
    product: int = 32,
    procs_per_node: int = DEFAULT_PROCS_PER_NODE,
    seed: int = 5,
    jobs: Optional[int] = None,
) -> List[Row]:
    """Figure 4d: latency for different splits of a fixed T_L product (LB, F_W=25%)."""
    return figure4c(
        process_counts,
        iterations=iterations,
        fw=fw,
        product=product,
        procs_per_node=procs_per_node,
        seed=seed,
        benchmark="lb",
        jobs=jobs,
    )


def figure4e(
    t_r_values: Sequence[int] = (8, 16, 32, 64, 128),
    process_counts: Optional[Sequence[int]] = None,
    *,
    iterations: int = 20,
    fw: float = 0.002,
    procs_per_node: int = DEFAULT_PROCS_PER_NODE,
    seed: int = 6,
    jobs: Optional[int] = None,
) -> List[Row]:
    """Figure 4e: impact of the reader threshold ``T_R`` (ECSB, F_W=0.2%)."""
    tasks: List[BenchTask] = []
    metas: List[Dict[str, object]] = []
    iters = _iterations(iterations)
    for p, machine in _machines(process_counts, procs_per_node):
        for t_r in t_r_values:
            config = LockBenchConfig(
                machine=machine,
                scheme="rma-rw",
                benchmark="ecsb",
                iterations=iters,
                fw=fw,
                t_l=_default_tl(machine),
                t_r=t_r,
                seed=seed,
            )
            tasks.append(BenchTask(config=config))
            metas.append({"figure": "4e", "t_r": t_r})
    return _sweep(tasks, metas, jobs)


def figure4f(
    t_r_values: Sequence[int] = (16, 32, 64),
    fw_values: Sequence[float] = (0.02, 0.05),
    process_counts: Optional[Sequence[int]] = None,
    *,
    iterations: int = 16,
    procs_per_node: int = DEFAULT_PROCS_PER_NODE,
    seed: int = 7,
    jobs: Optional[int] = None,
) -> List[Row]:
    """Figure 4f: interaction of ``T_R`` with the writer fraction (ECSB, F_W in {2%, 5%})."""
    tasks: List[BenchTask] = []
    metas: List[Dict[str, object]] = []
    iters = _iterations(iterations)
    for p, machine in _machines(process_counts, procs_per_node):
        for fw in fw_values:
            for t_r in t_r_values:
                config = LockBenchConfig(
                    machine=machine,
                    scheme="rma-rw",
                    benchmark="ecsb",
                    iterations=iters,
                    fw=fw,
                    t_l=_default_tl(machine),
                    t_r=t_r,
                    seed=seed,
                )
                tasks.append(BenchTask(config=config))
                metas.append({"figure": "4f", "t_r": t_r, "series": f"{t_r}-{fw * 100:g}%"})
    return _sweep(tasks, metas, jobs)


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
    jobs: Optional[int] = None,
) -> List[Row]:
    """Figures 5a-5c: RMA-RW against the centralized foMPI-RW baseline."""
    tasks: List[BenchTask] = []
    metas: List[Dict[str, object]] = []
    iters = _iterations(iterations)
    figure_names = {"lb": "5a", "ecsb": "5b", "sob": "5c"}
    for benchmark in benchmarks:
        for p, machine in _machines(process_counts, procs_per_node):
            for fw in fw_values:
                for scheme in ("rma-rw", "fompi-rw"):
                    config = LockBenchConfig(
                        machine=machine,
                        scheme=scheme,
                        benchmark=benchmark,
                        iterations=iters,
                        fw=fw,
                        t_l=_default_tl(machine),
                        t_r=64,
                        seed=seed,
                    )
                    tasks.append(BenchTask(config=config))
                    metas.append(
                        {
                            "figure": figure_names.get(benchmark, "5"),
                            "series": f"{scheme} {fw * 100:g}%",
                        }
                    )
    return _sweep(tasks, metas, jobs)


# --------------------------------------------------------------------------- #
# Figure 6: distributed hashtable
# --------------------------------------------------------------------------- #

def figure6(
    fw_values: Sequence[float] = (0.2, 0.05, 0.02, 0.0),
    process_counts: Optional[Sequence[int]] = None,
    *,
    ops_per_process: int = 12,
    procs_per_node: int = DEFAULT_PROCS_PER_NODE,
    seed: int = 9,
    jobs: Optional[int] = None,
) -> List[Row]:
    """Figures 6a-6d: DHT total time for foMPI-A, foMPI-RW and RMA-RW."""
    tasks: List[BenchTask] = []
    metas: List[Dict[str, object]] = []
    ops = _iterations(ops_per_process)
    figure_names = {0.2: "6a", 0.05: "6b", 0.02: "6c", 0.0: "6d"}
    for fw in fw_values:
        for p, machine in _machines(process_counts, procs_per_node):
            for scheme in ("fompi-a", "fompi-rw", "rma-rw"):
                config = DHTWorkloadConfig(
                    machine=machine,
                    scheme=scheme,  # type: ignore[arg-type]
                    ops_per_process=ops,
                    fw=fw,
                    seed=seed,
                    t_l=_default_tl(machine),
                    t_r=64,
                )
                tasks.append(BenchTask(config=config, kind="dht"))
                metas.append({"figure": figure_names.get(fw, "6"), "scheme": scheme, "P": p, "fw": fw})
    rows: List[Row] = []
    for outcome, meta in zip(execute_tasks(tasks, jobs=jobs), metas):
        row: Row = dict(meta)
        row.update(
            {
                "total_time_s": round(outcome.total_time_s, 6),
                "total_time_us": round(outcome.total_time_us, 1),
                "ops": outcome.total_ops,
                "inserts": outcome.inserts,
                "lookups": outcome.lookups,
            }
        )
        rows.append(row)
    return rows


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
    jobs: Optional[int] = None,
) -> List[Row]:
    """Single centralized counter vs one counter per node (why the DC exists)."""
    tasks: List[BenchTask] = []
    metas: List[Dict[str, object]] = []
    iters = _iterations(iterations)
    for p, machine in _machines(process_counts, procs_per_node):
        placements = {
            "dc-per-node": min(procs_per_node, machine.num_processes),
            "dc-single": machine.num_processes,
        }
        for label, t_dc in placements.items():
            config = LockBenchConfig(
                machine=machine,
                scheme="rma-rw",
                benchmark="sob",
                iterations=iters,
                fw=fw,
                t_dc=t_dc,
                t_l=_default_tl(machine),
                t_r=32,
                seed=seed,
            )
            tasks.append(BenchTask(config=config))
            metas.append({"figure": "ablation-dc", "series": label})
    return _sweep(tasks, metas, jobs)


def ablation_flat_latency(
    process_counts: Optional[Sequence[int]] = None,
    *,
    iterations: int = 16,
    procs_per_node: int = DEFAULT_PROCS_PER_NODE,
    seed: int = 12,
    jobs: Optional[int] = None,
) -> List[Row]:
    """Topology-aware RMA-MCS vs D-MCS on hierarchical and on flat fabrics.

    On a flat fabric (every remote access costs the same) the locality
    thresholds cannot help, so the RMA-MCS advantage should shrink.
    """
    tasks: List[BenchTask] = []
    metas: List[Dict[str, object]] = []
    iters = _iterations(iterations)
    fabrics = {"hierarchical": LatencyModel.cray_xc30(), "flat": LatencyModel.flat(2.0)}
    for fabric_name, latency in fabrics.items():
        for p, machine in _machines(process_counts, procs_per_node):
            for scheme in ("d-mcs", "rma-mcs"):
                config = LockBenchConfig(
                    machine=machine,
                    scheme=scheme,
                    benchmark="ecsb",
                    iterations=iters,
                    t_l=_default_tl(machine),
                    seed=seed,
                )
                tasks.append(BenchTask(config=config, latency=latency))
                metas.append(
                    {
                        "figure": "ablation-fabric",
                        "series": f"{scheme} ({fabric_name})",
                        "fabric": fabric_name,
                    }
                )
    return _sweep(tasks, metas, jobs)


def ablation_handoff_locality(
    t_l2_values: Sequence[int] = (1, 4, 16),
    process_counts: Optional[Sequence[int]] = None,
    *,
    iterations: int = 12,
    procs_per_node: int = DEFAULT_PROCS_PER_NODE,
    seed: int = 14,
    jobs: Optional[int] = None,  # accepted for driver-signature parity; runs serially
) -> List[Row]:
    """Measure the *hand-off locality* behind the locality-threshold ablation.

    For each node-level ``T_L`` the RMA-MCS lock is run with an instrumented
    handle that records the sequence of grants; the rows report both the
    throughput and the fraction of consecutive grants that stayed on one node,
    making the mechanism behind the Figure-1 locality axis directly visible.

    This driver stays on the serial path (it reads the grant ledger back out
    of the runtime's windows after each run, which the generic campaign task
    protocol does not transport across workers).
    """
    from repro.core.instrumentation import GrantLedgerSpec, InstrumentedLock, locality_report
    from repro.core.rma_mcs import RMAMCSLockSpec
    from repro.rma.sim_runtime import SimRuntime

    rows: List[Row] = []
    iters = _iterations(iterations)
    for p, machine in _machines(process_counts, procs_per_node):
        for t_l2 in t_l2_values:
            t_l = tuple([4] * (machine.n_levels - 1) + [t_l2]) if machine.n_levels > 1 else (t_l2,)
            lock_spec = RMAMCSLockSpec(machine, t_l=t_l)
            ledger = GrantLedgerSpec(capacity=p * iters, base_offset=lock_spec.window_words)
            runtime = SimRuntime(machine, window_words=ledger.window_words, seed=seed)

            def window_init(rank, _lock=lock_spec, _ledger=ledger):
                values = dict(_lock.init_window(rank))
                values.update(_ledger.init_window(rank))
                return values

            def program(ctx, _lock=lock_spec, _ledger=ledger, _iters=iters):
                lock = InstrumentedLock(_lock.make(ctx), _ledger, ctx)
                yield (BARRIER,)
                start = ctx.now()
                for _ in range(_iters):
                    yield from lock.acquire_steps()
                    yield (COMPUTE, 0.2)
                    yield from lock.release_steps()
                end = ctx.now()
                yield (BARRIER,)
                return end - start

            result = runtime.run(program, window_init=window_init)
            grants = ledger.read_grants_from_window(runtime.window(ledger.home_rank))
            report = locality_report(machine, grants)
            elapsed = max(result.returns)
            rows.append(
                {
                    "figure": "ablation-handoff",
                    "P": p,
                    "t_l2": t_l2,
                    "throughput_mln_s": round(p * iters / elapsed, 4) if elapsed > 0 else 0.0,
                    "node_locality_pct": round(report.node_locality * 100, 1),
                    "grants": report.recorded_grants,
                }
            )
    return rows


def ablation_locality(
    t_l2_values: Sequence[int] = (1, 2, 4, 8, 16),
    process_counts: Optional[Sequence[int]] = None,
    *,
    iterations: int = 16,
    procs_per_node: int = DEFAULT_PROCS_PER_NODE,
    seed: int = 13,
    jobs: Optional[int] = None,
) -> List[Row]:
    """RMA-MCS locality threshold sweep: T_L=1 (fair, locality-free) to large T_L."""
    tasks: List[BenchTask] = []
    metas: List[Dict[str, object]] = []
    iters = _iterations(iterations)
    for p, machine in _machines(process_counts, procs_per_node):
        for t_l2 in t_l2_values:
            t_l = tuple([t_l2] * machine.n_levels)
            config = LockBenchConfig(
                machine=machine,
                scheme="rma-mcs",
                benchmark="ecsb",
                iterations=iters,
                t_l=t_l,
                seed=seed,
            )
            tasks.append(BenchTask(config=config))
            metas.append({"figure": "ablation-locality", "t_l2": t_l2})
    return _sweep(tasks, metas, jobs)


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
    jobs: Optional[int] = None,
) -> List[Row]:
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
    tasks: List[BenchTask] = []
    metas: List[Dict[str, object]] = []
    iters = _iterations(iterations)
    schemes = scheme_names(category="mcs") + scheme_names(category="related-mcs")
    for benchmark in benchmarks:
        for p, machine in _machines(process_counts, procs_per_node):
            for scheme in schemes:
                config = LockBenchConfig(
                    machine=machine,
                    scheme=scheme,
                    benchmark=benchmark,
                    iterations=iters,
                    t_l=_default_tl(machine),
                    seed=seed,
                )
                tasks.append(BenchTask(config=config))
                metas.append({"figure": "related-mcs", "series": scheme})
    return _sweep(tasks, metas, jobs)


def related_rw_comparison(
    fw_values: Sequence[float] = (0.002, 0.05),
    process_counts: Optional[Sequence[int]] = None,
    *,
    benchmark: str = "ecsb",
    iterations: int = 16,
    t_r: int = 64,
    procs_per_node: int = DEFAULT_PROCS_PER_NODE,
    seed: int = 22,
    jobs: Optional[int] = None,
) -> List[Row]:
    """Reader-writer comparison including the NUMA-aware RW lock.

    Sweeps foMPI-RW (centralized), the per-node-counter NUMA-aware RW lock
    (Calciu et al.) and RMA-RW for several writer fractions.  The NUMA-aware
    lock should sit between the centralized baseline and RMA-RW: its readers
    scale (node-local counters) but its writers pay for draining every node
    on every exclusive acquisition because it lacks the paper's ``T_R``/
    ``T_W`` batching.
    """
    tasks: List[BenchTask] = []
    metas: List[Dict[str, object]] = []
    iters = _iterations(iterations)
    schemes = scheme_names(category="rw") + scheme_names(category="related-rw")
    for fw in fw_values:
        for p, machine in _machines(process_counts, procs_per_node):
            for scheme in schemes:
                config = LockBenchConfig(
                    machine=machine,
                    scheme=scheme,
                    benchmark=benchmark,
                    iterations=iters,
                    fw=fw,
                    t_l=_default_tl(machine),
                    t_r=t_r,
                    seed=seed,
                )
                tasks.append(BenchTask(config=config))
                metas.append({"figure": "related-rw", "series": f"{scheme} {fw * 100:g}%"})
    return _sweep(tasks, metas, jobs)


def ablation_fabric_contention(
    process_counts: Optional[Sequence[int]] = None,
    *,
    iterations: int = 14,
    procs_per_node: int = DEFAULT_PROCS_PER_NODE,
    nodes_per_router: int = 2,
    routers_per_group: int = 2,
    seed: int = 23,
    jobs: Optional[int] = None,
) -> List[Row]:
    """End-point-only contention vs additional Dragonfly link contention.

    DESIGN.md lists the lack of in-network congestion as the main fidelity gap
    of the end-point latency model.  This ablation reruns the Figure-3 ECSB
    comparison of D-MCS and RMA-MCS with the optional
    :class:`~repro.rma.fabric.FabricContentionModel`: the topology-oblivious
    queue (whose hand-offs hop between groups arbitrarily) should lose more
    throughput than the topology-aware tree when the shared global links start
    to serialize traffic.
    """
    from repro.rma.fabric import FabricContentionModel

    tasks: List[BenchTask] = []
    metas: List[Dict[str, object]] = []
    iters = _iterations(iterations)
    for p, machine in _machines(process_counts, procs_per_node):
        fabrics = {
            "endpoint-only": None,
            "dragonfly-links": FabricContentionModel.for_machine(
                machine,
                nodes_per_router=nodes_per_router,
                routers_per_group=routers_per_group,
            ),
        }
        for fabric_name, fabric in fabrics.items():
            for scheme in ("d-mcs", "rma-mcs"):
                config = LockBenchConfig(
                    machine=machine,
                    scheme=scheme,
                    benchmark="ecsb",
                    iterations=iters,
                    t_l=_default_tl(machine),
                    seed=seed,
                )
                tasks.append(BenchTask(config=config, fabric=fabric))
                metas.append(
                    {
                        "figure": "ablation-fabric-links",
                        "series": f"{scheme} ({fabric_name})",
                        "fabric": fabric_name,
                    }
                )
    return _sweep(tasks, metas, jobs)
