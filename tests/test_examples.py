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
    assert "bit-identical on a re-run" in out
    assert "third-party lock joined the policy-switched table" in out


def test_traffic_demo(monkeypatch, capsys):
    monkeypatch.setenv("REPRO_EXAMPLE_LOCKS", "64")
    out = run_example("traffic_demo.py", monkeypatch, capsys)
    assert "demo-tas" in out
    assert "e2e_p99_us" in out
    assert "Lowest p99 end-to-end latency" in out
