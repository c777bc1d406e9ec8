"""Figure 5 (a-c): RMA-RW against the centralized foMPI-RW baseline.

Paper reference points: RMA-RW outperforms foMPI-RW by more than 6x in
throughput for P >= 64 across writer fractions, read-dominated mixes
(F_W = 0.2%) achieve the highest absolute throughput, and RMA-RW's latency
stays an order of magnitude below the baseline's at scale.
"""

from __future__ import annotations

import pytest

from benchmarks.conftest import attach_series, bench_iterations, bench_process_counts
from repro.bench import experiments
from repro.bench.report import summarize_speedup

pytestmark = pytest.mark.benchmark(group="figure-5")


def _run(benchmark, bench_name: str, value: str):
    rows = benchmark.pedantic(
        lambda: experiments.figure5(
            benchmarks=(bench_name,),
            process_counts=bench_process_counts(),
            iterations=bench_iterations(),
        ).rows,
        rounds=1,
        iterations=1,
    )
    attach_series(benchmark, rows, series="series", value=value)
    higher = value != "latency_us"
    for fw_label in ("0.2%", "2%", "5%"):
        benchmark.extra_info[f"speedup_fw_{fw_label}"] = summarize_speedup(
            rows,
            ours=f"rma-rw {fw_label}",
            baseline=f"fompi-rw {fw_label}",
            value=value,
            series="series",
            higher_is_better=higher,
        )
    return rows


def test_fig5a_latency(benchmark):
    """Figure 5a: latency (LB) for F_W in {0.2%, 2%, 5%}."""
    rows = _run(benchmark, "lb", "latency_us")
    assert all(r["latency_us"] > 0 for r in rows)


def test_fig5b_ecsb(benchmark):
    """Figure 5b: throughput (ECSB) for F_W in {0.2%, 2%, 5%}."""
    rows = _run(benchmark, "ecsb", "throughput_mln_s")
    largest = max(r["P"] for r in rows)
    at_scale = {r["series"]: r["throughput_mln_s"] for r in rows if r["P"] == largest}
    # Shape check: at the largest sweep point RMA-RW must beat the centralized
    # baseline for the moderate writer fractions.
    assert at_scale["rma-rw 2%"] >= at_scale["fompi-rw 2%"]
    assert at_scale["rma-rw 5%"] >= at_scale["fompi-rw 5%"]


def test_fig5c_sob(benchmark):
    """Figure 5c: throughput (SOB) for F_W in {0.2%, 2%, 5%}."""
    rows = _run(benchmark, "sob", "throughput_mln_s")
    largest = max(r["P"] for r in rows)
    at_scale = {r["series"]: r["throughput_mln_s"] for r in rows if r["P"] == largest}
    assert at_scale["rma-rw 5%"] >= at_scale["fompi-rw 5%"]
