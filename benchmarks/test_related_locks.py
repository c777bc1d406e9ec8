"""Related-work lock comparison (beyond the paper's figures).

Positions the paper's locks against distributed adaptations of the
shared-memory designs it cites: a FIFO ticket lock, the hierarchical backoff
lock (Radovic & Hagersten), a two-level cohort lock (Dice et al.) and the
NUMA-aware reader-writer lock with per-node reader counters (Calciu et al.).

Expected shape: the centralized spinning schemes (foMPI-Spin, ticket, HBO)
saturate first; the queue/cohort designs scale further; RMA-MCS matches or
beats the cohort lock thanks to its per-level thresholds; on the RW side the
per-node-counter lock sits between foMPI-RW and RMA-RW for read-dominated
mixes.
"""

from __future__ import annotations

import pytest

from benchmarks.conftest import attach_series, bench_iterations, bench_process_counts
from repro.bench import experiments

pytestmark = pytest.mark.benchmark(group="related-locks")


def test_related_mcs_throughput(benchmark):
    """Mutual-exclusion schemes (paper + related work) on ECSB throughput."""
    rows = benchmark.pedantic(
        lambda: experiments.related_mcs_comparison(
            benchmarks=("ecsb",),
            process_counts=bench_process_counts(),
            iterations=bench_iterations(),
        ).rows,
        rounds=1,
        iterations=1,
    )
    attach_series(benchmark, rows, series="series", value="throughput_mln_s")
    largest = max(r["P"] for r in rows)
    at_scale = {r["series"]: r["throughput_mln_s"] for r in rows if r["P"] == largest}
    # The topology-aware queue lock must beat every centralized spinning scheme.
    assert at_scale["rma-mcs"] >= at_scale["fompi-spin"]
    assert at_scale["rma-mcs"] >= at_scale["ticket"]
    assert at_scale["rma-mcs"] >= at_scale["hbo"]
    # The cohort lock (two-level, NUMA-style) must also beat plain centralized spinning.
    assert at_scale["cohort"] >= at_scale["fompi-spin"]


def test_related_rw_throughput(benchmark):
    """Reader-writer schemes (paper + NUMA-aware RW) on a read-dominated ECSB mix."""
    rows = benchmark.pedantic(
        lambda: experiments.related_rw_comparison(
            fw_values=(0.002,),
            process_counts=bench_process_counts(),
            iterations=bench_iterations(),
        ).rows,
        rounds=1,
        iterations=1,
    )
    attach_series(benchmark, rows, series="series", value="throughput_mln_s")
    largest = max(r["P"] for r in rows)
    at_scale = {r["series"]: r["throughput_mln_s"] for r in rows if r["P"] == largest}
    # RMA-RW stays on top of the read-dominated comparison at the largest sweep point.
    assert at_scale["rma-rw 0.2%"] >= at_scale["fompi-rw 0.2%"]
    assert at_scale["rma-rw 0.2%"] >= at_scale["numa-rw 0.2%"]
