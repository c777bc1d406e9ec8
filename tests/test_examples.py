"""The example scripts must run end-to-end (with shrunken workloads)."""

from __future__ import annotations

import pathlib
import runpy
import sys

import pytest

EXAMPLES_DIR = pathlib.Path(__file__).resolve().parent.parent / "examples"

SMALL_ENV = {
    "REPRO_EXAMPLE_ITERATIONS": "4",
    "REPRO_EXAMPLE_NODES": "2",
    "REPRO_EXAMPLE_PROCS_PER_NODE": "4",
    "REPRO_EXAMPLE_OPS": "4",
    "REPRO_EXAMPLE_VERTICES": "24",
}


def run_example(name: str, monkeypatch, capsys) -> str:
    for key, value in SMALL_ENV.items():
        monkeypatch.setenv(key, value)
    monkeypatch.setattr(sys, "argv", [name])
    runpy.run_path(str(EXAMPLES_DIR / name), run_name="__main__")
    return capsys.readouterr().out


def test_examples_directory_contains_at_least_three_scripts():
    scripts = sorted(p.name for p in EXAMPLES_DIR.glob("*.py"))
    assert len(scripts) >= 3
    assert "quickstart.py" in scripts


def test_quickstart(monkeypatch, capsys):
    out = run_example("quickstart.py", monkeypatch, capsys)
    assert "no lost updates" in out


def test_key_value_store(monkeypatch, capsys):
    out = run_example("key_value_store.py", monkeypatch, capsys)
    assert "rma-rw" in out
    assert "fompi-a" in out


def test_graph_processing(monkeypatch, capsys):
    out = run_example("graph_processing.py", monkeypatch, capsys)
    assert "rma-rw" in out
    assert "fompi-rw" in out


def test_parameter_tuning(monkeypatch, capsys):
    out = run_example("parameter_tuning.py", monkeypatch, capsys)
    assert "T_DC" in out
    assert "T_R" in out


def test_adaptive_tuning(monkeypatch, capsys):
    out = run_example("adaptive_tuning.py", monkeypatch, capsys)
    assert "Best parameters found" in out
    assert "hand-off locality" in out


def test_reproduce_figures_single_figure(monkeypatch, capsys):
    monkeypatch.setenv("REPRO_BENCH_PROCS", "4 8")
    monkeypatch.setenv("REPRO_BENCH_SCALE", "0.3")
    monkeypatch.setattr(sys, "argv", ["reproduce_figures.py", "4a"])
    runpy.run_path(str(EXAMPLES_DIR / "reproduce_figures.py"), run_name="__main__")
    out = capsys.readouterr().out
    assert "Figure 4a" in out


def test_related_locks_comparison(monkeypatch, capsys):
    out = run_example("related_locks_comparison.py", monkeypatch, capsys)
    assert "rma-mcs" in out
    assert "cohort" in out
    assert "numa-rw" in out
    assert "ranking" in out


def test_trace_analysis(monkeypatch, capsys):
    out = run_example("trace_analysis.py", monkeypatch, capsys)
    assert "RMA-MCS" in out
    assert "operation share by distance" in out
    assert "hottest remote targets" in out


def test_custom_lock(monkeypatch, capsys):
    out = run_example("custom_lock.py", monkeypatch, capsys)
    assert "tas-backoff" in out
    assert "mutual exclusion through the public API" in out


def test_step_program(monkeypatch, capsys):
    out = run_example("step_program.py", monkeypatch, capsys)
    assert "one simulated run" in out
    assert "stepped the step program inline" in out


def test_adaptive_demo(monkeypatch, capsys):
    out = run_example("adaptive_demo.py", monkeypatch, capsys)
    assert "scheme swaps" in out
    assert "bit-identical across schedulers" in out
    assert "third-party lock joined the policy-switched table" in out


def test_traffic_demo(monkeypatch, capsys):
    monkeypatch.setenv("REPRO_EXAMPLE_LOCKS", "64")
    out = run_example("traffic_demo.py", monkeypatch, capsys)
    assert "demo-tas" in out
    assert "e2e_p99_us" in out
    assert "Lowest p99 end-to-end latency" in out
