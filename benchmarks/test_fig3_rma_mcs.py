"""Figure 3 (a-e): RMA-MCS vs D-MCS vs foMPI-Spin on the five microbenchmarks.

Paper reference points (Cray XC30, up to P=1024): RMA-MCS has the lowest
latency (about 10x below foMPI-Spin and 4x below D-MCS at P=1024) and the
highest throughput on every benchmark; foMPI-Spin collapses as P grows; the
throughput of the queue-based locks briefly *increases* when filling the
first node (cheap intra-node passing) before the inter-node regime begins.
"""

from __future__ import annotations

import pytest

from benchmarks.conftest import attach_series, bench_iterations, bench_process_counts
from repro.bench import experiments
from repro.bench.report import summarize_speedup

pytestmark = pytest.mark.benchmark(group="figure-3")


def _run_figure3(benchmark, bench_name: str, value: str):
    rows = benchmark.pedantic(
        lambda: experiments.figure3(
            benchmarks=(bench_name,),
            process_counts=bench_process_counts(),
            iterations=bench_iterations(),
        ).rows,
        rounds=1,
        iterations=1,
    )
    attach_series(benchmark, rows, series="scheme", value=value)
    higher_is_better = value != "latency_us"
    benchmark.extra_info["rma_mcs_vs_fompi_spin"] = summarize_speedup(
        rows, ours="rma-mcs", baseline="fompi-spin", value=value, higher_is_better=higher_is_better
    )
    benchmark.extra_info["rma_mcs_vs_d_mcs"] = summarize_speedup(
        rows, ours="rma-mcs", baseline="d-mcs", value=value, higher_is_better=higher_is_better
    )
    return rows


def test_fig3a_latency(benchmark):
    """Figure 3a: acquire+release latency (LB)."""
    rows = _run_figure3(benchmark, "lb", "latency_us")
    largest = max(r["P"] for r in rows)
    at_scale = {r["scheme"]: r["latency_us"] for r in rows if r["P"] == largest}
    # Shape check: the topology-aware lock must win at the largest sweep point.
    assert at_scale["rma-mcs"] <= at_scale["fompi-spin"]


def test_fig3b_ecsb(benchmark):
    """Figure 3b: empty-critical-section throughput (ECSB)."""
    rows = _run_figure3(benchmark, "ecsb", "throughput_mln_s")
    largest = max(r["P"] for r in rows)
    at_scale = {r["scheme"]: r["throughput_mln_s"] for r in rows if r["P"] == largest}
    assert at_scale["rma-mcs"] >= at_scale["fompi-spin"]


def test_fig3c_sob(benchmark):
    """Figure 3c: single-operation throughput (SOB)."""
    rows = _run_figure3(benchmark, "sob", "throughput_mln_s")
    largest = max(r["P"] for r in rows)
    at_scale = {r["scheme"]: r["throughput_mln_s"] for r in rows if r["P"] == largest}
    assert at_scale["rma-mcs"] >= at_scale["fompi-spin"]


def test_fig3d_wcsb(benchmark):
    """Figure 3d: workload-critical-section throughput (WCSB)."""
    _run_figure3(benchmark, "wcsb", "throughput_mln_s")


def test_fig3e_warb(benchmark):
    """Figure 3e: wait-after-release throughput (WARB)."""
    _run_figure3(benchmark, "warb", "throughput_mln_s")
