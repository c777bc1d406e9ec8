"""Integration of the related-work locks with the benchmark harness and drivers."""

from __future__ import annotations

import pytest

from repro.bench import experiments
from repro.bench.harness import build_lock_spec, run_lock_benchmark
from repro.bench.workloads import (
    RELATED_MCS_SCHEMES,
    RELATED_RW_SCHEMES,
    SCHEMES,
    LockBenchConfig,
)
from repro.related.cohort import CohortTicketLockSpec
from repro.related.hbo import HBOLockSpec
from repro.related.numa_rw import NumaRWLockSpec
from repro.related.ticket import TicketLockSpec
from repro.topology.builder import xc30_like

TINY = {"process_counts": (4, 8), "iterations": 5, "procs_per_node": 4}


class TestSchemeRegistry:
    def test_related_schemes_are_registered(self):
        for scheme in RELATED_MCS_SCHEMES + RELATED_RW_SCHEMES:
            assert scheme in SCHEMES

    @pytest.mark.parametrize(
        "scheme, spec_type, is_rw",
        [
            ("ticket", TicketLockSpec, False),
            ("hbo", HBOLockSpec, False),
            ("cohort", CohortTicketLockSpec, False),
            ("numa-rw", NumaRWLockSpec, True),
        ],
    )
    def test_build_lock_spec_dispatch(self, scheme, spec_type, is_rw):
        machine = xc30_like(8, procs_per_node=4)
        config = LockBenchConfig(machine=machine, scheme=scheme, benchmark="ecsb")
        spec, rw = build_lock_spec(config)
        assert isinstance(spec, spec_type)
        assert rw is is_rw

    def test_leaf_threshold_feeds_cohort_bound(self):
        machine = xc30_like(8, procs_per_node=4)
        config = LockBenchConfig(machine=machine, scheme="cohort", benchmark="ecsb", t_l=(4, 2))
        spec, _ = build_lock_spec(config)
        assert spec.max_local_passes == 2

    def test_numa_rw_counts_as_rw_scheme(self):
        machine = xc30_like(4, procs_per_node=4)
        config = LockBenchConfig(machine=machine, scheme="numa-rw", benchmark="ecsb", fw=0.1)
        assert config.is_rw_scheme


class TestRelatedBenchmarkRuns:
    @pytest.mark.parametrize("scheme", ["ticket", "hbo", "cohort"])
    def test_mcs_scheme_produces_throughput(self, scheme):
        machine = xc30_like(8, procs_per_node=4)
        config = LockBenchConfig(machine=machine, scheme=scheme, benchmark="ecsb", iterations=5)
        result = run_lock_benchmark(config)
        assert result.throughput_mln_per_s > 0
        assert result.total_acquires == 8 * 5
        assert result.writes == result.total_acquires  # MCS-style: everything exclusive

    def test_numa_rw_scheme_respects_fw(self):
        machine = xc30_like(8, procs_per_node=4)
        config = LockBenchConfig(
            machine=machine, scheme="numa-rw", benchmark="ecsb", iterations=6, fw=0.0
        )
        result = run_lock_benchmark(config)
        assert result.writes == 0
        assert result.reads == result.total_acquires


class TestRelatedExperimentDrivers:
    def test_related_mcs_rows(self):
        rows = experiments.related_mcs_comparison(benchmarks=("ecsb",), **TINY).rows
        assert {r["series"] for r in rows} == {
            "fompi-spin",
            "d-mcs",
            "rma-mcs",
            "ticket",
            "hbo",
            "cohort",
            "alock",
            "lock-server",
        }
        assert all(r["figure"] == "related-mcs" for r in rows)
        assert all(r["throughput_mln_s"] > 0 for r in rows)

    def test_related_rw_rows(self):
        rows = experiments.related_rw_comparison(fw_values=(0.05,), **TINY).rows
        assert {r["series"] for r in rows} == {
            "fompi-rw 5%",
            "rma-rw 5%",
            "numa-rw 5%",
        }
        assert all(r["figure"] == "related-rw" for r in rows)
