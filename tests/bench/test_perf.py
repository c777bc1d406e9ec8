"""Tests for the local timing table and profiles behind ``repro perf``."""

from __future__ import annotations

import itertools

import pytest

from repro.api import registry
from repro.api.registry import register_runtime
from repro.bench.perf import PerfCase, measure_case, profile_case

CASE = PerfCase("rma-rw-wcsb-p8", "rma-rw", "wcsb", 8, iterations=4)


@pytest.fixture()
def drifting_runtime():
    """A runtime whose every instance draws from a fresh seed."""
    from repro.rma.sim_runtime import SimRuntime

    seeds = itertools.count(1)

    @register_runtime("drifting-sim", help="test-only: new seed per instance")
    def _make(machine, *, window_words=64, seed=0, **kwargs):
        return SimRuntime(machine, window_words=window_words, seed=seed + next(seeds), **kwargs)

    try:
        yield "drifting-sim"
    finally:
        registry.unregister("runtime", "drifting-sim")


@pytest.mark.parametrize("reps", [0, -2])
def test_measure_case_rejects_non_positive_reps(reps):
    with pytest.raises(ValueError, match="reps must be at least 1"):
        measure_case(CASE, reps=reps)


def test_rows_agree_across_schedulers_apart_from_timing(reference):
    horizon = measure_case(CASE, runtime_name="horizon", reps=2)
    on_reference = measure_case(CASE, runtime_name=reference, reps=1)
    timing = {"runtime", "wall_s", "ops_per_s"}
    assert set(horizon) == {"case", "scheme", "benchmark", "P", "fw", "iterations", "ops"} | timing
    assert {k: v for k, v in horizon.items() if k not in timing} == {
        k: v for k, v in on_reference.items() if k not in timing
    }
    assert horizon["ops"] > 0 and horizon["wall_s"] > 0


def test_disagreeing_repetitions_are_not_timed(drifting_runtime):
    with pytest.raises(AssertionError, match="non-deterministic results on perf case"):
        measure_case(CASE, runtime_name=drifting_runtime, reps=2)


def test_profile_report_is_named_after_case_and_runtime(tmp_path, reference):
    report = profile_case(CASE, runtime_name=reference, out_dir=tmp_path / "profiles")
    assert report == tmp_path / "profiles" / f"PERF_profile_{CASE.name}_reference.txt"
    text = report.read_text()
    assert f"case={CASE.name} runtime=reference" in text
    assert "cumulative" in text
