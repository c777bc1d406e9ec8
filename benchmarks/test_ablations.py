"""Ablation benchmarks for the design choices called out in DESIGN.md.

These are not paper figures; they isolate individual design decisions of the
reproduction: the distributed counter's placement, the value of topology
awareness on a flat fabric, and the RMA-MCS locality threshold.
"""

from __future__ import annotations

import pytest

from benchmarks.conftest import attach_series, bench_iterations, bench_process_counts
from repro.bench import experiments

pytestmark = pytest.mark.benchmark(group="ablations")


def test_ablation_counter_placement(benchmark):
    """One centralized counter vs one counter per node (why the DC exists)."""
    rows = benchmark.pedantic(
        lambda: experiments.ablation_counter_placement(
            process_counts=bench_process_counts(), iterations=bench_iterations()
        ).rows,
        rounds=1,
        iterations=1,
    )
    attach_series(benchmark, rows, series="series", value="throughput_mln_s")
    assert all(r["throughput_mln_s"] > 0 for r in rows)


def test_ablation_flat_fabric(benchmark):
    """Topology awareness on a hierarchical vs a flat (uniform-latency) fabric."""
    rows = benchmark.pedantic(
        lambda: experiments.ablation_flat_latency(
            process_counts=bench_process_counts(), iterations=bench_iterations()
        ).rows,
        rounds=1,
        iterations=1,
    )
    attach_series(benchmark, rows, series="series", value="throughput_mln_s")
    hierarchical = [r for r in rows if r["fabric"] == "hierarchical"]
    flat = [r for r in rows if r["fabric"] == "flat"]
    assert hierarchical and flat


def test_ablation_locality_threshold(benchmark):
    """RMA-MCS node-level locality threshold sweep (fairness vs locality)."""
    rows = benchmark.pedantic(
        lambda: experiments.ablation_locality(
            process_counts=bench_process_counts(), iterations=bench_iterations()
        ).rows,
        rounds=1,
        iterations=1,
    )
    attach_series(benchmark, rows, series="t_l2", value="throughput_mln_s")
    assert all(r["throughput_mln_s"] > 0 for r in rows)


def test_ablation_handoff_locality(benchmark):
    """Hand-off locality vs node-level T_L: the mechanism behind the locality axis."""
    rows = benchmark.pedantic(
        lambda: experiments.ablation_handoff_locality(
            process_counts=bench_process_counts(), iterations=bench_iterations()
        ).rows,
        rounds=1,
        iterations=1,
    )
    attach_series(benchmark, rows, series="t_l2", value="node_locality_pct")
    # Larger node-level thresholds must not reduce hand-off locality at the
    # largest sweep point.
    largest = max(r["P"] for r in rows)
    at_scale = {r["t_l2"]: r["node_locality_pct"] for r in rows if r["P"] == largest}
    assert at_scale[max(at_scale)] >= at_scale[min(at_scale)]


def test_ablation_fabric_link_contention(benchmark):
    """End-point-only contention vs additional Dragonfly link-level contention."""
    rows = benchmark.pedantic(
        lambda: experiments.ablation_fabric_contention(
            process_counts=bench_process_counts(), iterations=bench_iterations()
        ).rows,
        rounds=1,
        iterations=1,
    )
    attach_series(benchmark, rows, series="series", value="throughput_mln_s")
    assert all(r["throughput_mln_s"] > 0 for r in rows)
    largest = max(r["P"] for r in rows)
    at_scale = {r["series"]: r["throughput_mln_s"] for r in rows if r["P"] == largest}
    # Link contention can only slow things down.
    assert at_scale["rma-mcs (dragonfly-links)"] <= at_scale["rma-mcs (endpoint-only)"] * 1.001
    assert at_scale["d-mcs (dragonfly-links)"] <= at_scale["d-mcs (endpoint-only)"] * 1.001
