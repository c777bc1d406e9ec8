"""Figure 6 (a-d): distributed-hashtable total time under three locking policies.

Paper reference points: for F_W in {2%, 5%, 20%} RMA-RW beats foMPI-RW (and
for the read-dominated mixes approaches the unsynchronized foMPI-A variant);
for F_W = 0% foMPI-RW and RMA-RW perform comparably.
"""

from __future__ import annotations

import pytest

from benchmarks.conftest import attach_series, bench_iterations, bench_process_counts
from repro.bench import experiments
from repro.bench.report import summarize_speedup

pytestmark = pytest.mark.benchmark(group="figure-6")

FIGURES = {"6a": 0.2, "6b": 0.05, "6c": 0.02, "6d": 0.0}


def _run(benchmark, figure: str):
    fw = FIGURES[figure]
    rows = benchmark.pedantic(
        lambda: experiments.figure6(
            fw_values=(fw,),
            process_counts=bench_process_counts(),
            ops_per_process=max(6, bench_iterations() // 2),
        ).rows,
        rounds=1,
        iterations=1,
    )
    attach_series(benchmark, rows, series="scheme", value="total_time_us")
    benchmark.extra_info["rma_rw_vs_fompi_rw_time_ratio"] = summarize_speedup(
        rows, ours="rma-rw", baseline="fompi-rw", value="total_time_us", higher_is_better=False
    )
    return rows


def test_fig6a_fw20(benchmark):
    """Figure 6a: DHT total time, F_W = 20%."""
    rows = _run(benchmark, "6a")
    largest = max(r["P"] for r in rows)
    at_scale = {r["scheme"]: r["total_time_us"] for r in rows if r["P"] == largest}
    assert at_scale["rma-rw"] <= at_scale["fompi-rw"] * 1.1


def test_fig6b_fw5(benchmark):
    """Figure 6b: DHT total time, F_W = 5%."""
    rows = _run(benchmark, "6b")
    largest = max(r["P"] for r in rows)
    at_scale = {r["scheme"]: r["total_time_us"] for r in rows if r["P"] == largest}
    assert at_scale["rma-rw"] <= at_scale["fompi-rw"] * 1.1


def test_fig6c_fw2(benchmark):
    """Figure 6c: DHT total time, F_W = 2%."""
    rows = _run(benchmark, "6c")
    largest = max(r["P"] for r in rows)
    at_scale = {r["scheme"]: r["total_time_us"] for r in rows if r["P"] == largest}
    assert at_scale["rma-rw"] <= at_scale["fompi-rw"] * 1.1


def test_fig6d_fw0(benchmark):
    """Figure 6d: DHT total time, F_W = 0% (reads only)."""
    rows = _run(benchmark, "6d")
    assert all(r["inserts"] == 0 for r in rows)
