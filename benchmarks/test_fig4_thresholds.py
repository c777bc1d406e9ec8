"""Figure 4 (a-f): the impact of RMA-RW's thresholds T_DC, T_L,i and T_R.

Paper reference points: very small T_DC (many counters) burdens writers at
large P; moderate/large T_DC helps until reader contention dominates (4a).
Smaller locality products move the lock to the readers sooner and raise
throughput for read-heavy mixes (4b).  Keeping the lock longer inside a node
(larger node-level T_L) raises throughput but also average latency (4c/4d).
Larger T_R favours reader throughput when writers are rare (4e), and for
moderate writer fractions the exact T_R matters little (4f).
"""

from __future__ import annotations

import pytest

from benchmarks.conftest import attach_series, bench_iterations, bench_process_counts
from repro.bench import experiments

pytestmark = pytest.mark.benchmark(group="figure-4")


def test_fig4a_tdc(benchmark):
    """Figure 4a: T_DC sweep (SOB, F_W = 2%)."""
    rows = benchmark.pedantic(
        lambda: experiments.figure4a(
            process_counts=bench_process_counts(), iterations=bench_iterations()
        ).rows,
        rounds=1,
        iterations=1,
    )
    attach_series(benchmark, rows, series="t_dc", value="throughput_mln_s")
    assert all(r["throughput_mln_s"] > 0 for r in rows)


def test_fig4b_tl_product(benchmark):
    """Figure 4b: sweep of the locality-threshold product (SOB, F_W = 25%)."""
    rows = benchmark.pedantic(
        lambda: experiments.figure4b(
            process_counts=bench_process_counts(), iterations=bench_iterations()
        ).rows,
        rounds=1,
        iterations=1,
    )
    attach_series(benchmark, rows, series="tl_product", value="throughput_mln_s")
    assert all(r["throughput_mln_s"] > 0 for r in rows)


def test_fig4c_tl_split(benchmark):
    """Figure 4c: splits of a fixed T_L product, throughput (SOB, F_W = 25%)."""
    rows = benchmark.pedantic(
        lambda: experiments.figure4c(
            process_counts=bench_process_counts(), iterations=bench_iterations()
        ).rows,
        rounds=1,
        iterations=1,
    )
    attach_series(benchmark, rows, series="tl_split", value="throughput_mln_s")
    assert all(r["throughput_mln_s"] > 0 for r in rows)


def test_fig4d_tl_split_latency(benchmark):
    """Figure 4d: splits of a fixed T_L product, latency (LB, F_W = 25%)."""
    rows = benchmark.pedantic(
        lambda: experiments.figure4d(
            process_counts=bench_process_counts(), iterations=bench_iterations()
        ).rows,
        rounds=1,
        iterations=1,
    )
    attach_series(benchmark, rows, series="tl_split", value="latency_us")
    assert all(r["latency_us"] > 0 for r in rows)


def test_fig4e_tr(benchmark):
    """Figure 4e: T_R sweep (ECSB, F_W = 0.2%)."""
    rows = benchmark.pedantic(
        lambda: experiments.figure4e(
            process_counts=bench_process_counts(), iterations=bench_iterations()
        ).rows,
        rounds=1,
        iterations=1,
    )
    attach_series(benchmark, rows, series="t_r", value="throughput_mln_s")
    # Shape check: at the largest P, a generous T_R must not lose to the smallest one.
    largest = max(r["P"] for r in rows)
    at_scale = {r["t_r"]: r["throughput_mln_s"] for r in rows if r["P"] == largest}
    assert at_scale[max(at_scale)] >= at_scale[min(at_scale)] * 0.8


def test_fig4f_tr_fw(benchmark):
    """Figure 4f: T_R x F_W interaction (ECSB, F_W in {2%, 5%})."""
    rows = benchmark.pedantic(
        lambda: experiments.figure4f(
            process_counts=bench_process_counts(), iterations=bench_iterations()
        ).rows,
        rounds=1,
        iterations=1,
    )
    attach_series(benchmark, rows, series="series", value="throughput_mln_s")
    assert all(r["throughput_mln_s"] > 0 for r in rows)
