"""Smoke test of the benchmark itself (collected by tier-1; ~20 s).

``--smoke`` runs every workload at a tenth of its iterations with 1 + 2
repetitions and no ``expected.json`` check; this test makes sure the
benchmark still emits every declared metric, that the trace adds up, that a
wrong pinned fingerprint is noticed, and that nothing is left in the tree.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

from ledger import report

ROOT = Path(__file__).resolve().parent.parent
NAME = re.compile(r"[A-Za-z0-9_.-]+")
#: What building, testing and running legitimately leave behind (.gitignore).
IGNORED = {".git", "__pycache__", ".pytest_cache", ".hypothesis", ".repro-cache"}


def _tree() -> list:
    return sorted(
        str(path.relative_to(ROOT))
        for path in ROOT.rglob("*")
        if not IGNORED & set(path.relative_to(ROOT).parts)
    )


def _ledger(*argv: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "ledger", *argv],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=170,
    )


@pytest.fixture(scope="module")
def benchmark_json() -> dict:
    return report.load_benchmark()


@pytest.fixture(scope="module")
def smoke_run(tmp_path_factory) -> dict:
    before = _tree()
    out = tmp_path_factory.mktemp("ledger") / "smoke.json"
    done = _ledger("--smoke", "--out", str(out))
    assert done.returncode == 0, done.stdout
    assert _tree() == before, "the benchmark left files in the tree"
    with open(out) as handle:
        return json.load(handle)


def test_every_end_to_end_metric_on_every_workload(smoke_run, benchmark_json):
    defs = report.end_to_end_defs(benchmark_json)
    assert len(defs) == 6
    for workload in benchmark_json["workloads"]:
        assert NAME.fullmatch(workload["name"])
        metrics = smoke_run["workloads"][workload["name"]]["metrics"]
        for d in defs:
            assert NAME.fullmatch(d["name"])
            assert isinstance(metrics[d["name"]]["value"], (int, float)), d["name"]
        assert metrics["fail_share"]["value"] == 0
        for d in benchmark_json["end_to_end"]:
            assert metrics[d["name"]]["value"] > 0, d["name"]


def test_wrong_pinned_fingerprint_fails_runs(smoke_run):
    points = smoke_run["workloads"]["traffic_mix_p64"]["points"]
    reps = [{"points": points}, {"points": points}]
    pinned = report.pin_points(points)
    assert report.judge(reps, pinned)[:2] == (2 * len(points), 0)
    pinned["points"][0]["fingerprint"] = "0" * 64
    attempted, failed, reasons = report.judge(reps, pinned)
    assert failed == 2 and failed / attempted > 0
    assert "expected.json" in reasons[0]


def test_traced_run_adds_up(tmp_path, benchmark_json):
    before = _tree()
    spans_path = tmp_path / "spans.json"
    done = _ledger("--smoke", "--trace", "1", "--workload", "traffic_mix_p64",
                   "--trace-out", str(spans_path))
    assert done.returncode == 0, done.stdout
    assert _tree() == before, "the traced run left files in the tree"
    line = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] and line["failed"] == 0
    declared = [d["name"] for d in benchmark_json["per_layer"]]
    assert sorted(line["metrics"]) == sorted(declared)
    assert all(NAME.fullmatch(name) for name in declared)
    assert abs(line["metrics"]["trace.self_sum_ratio"]["value"] - 1.0) <= 0.02

    # Recompute the sum from the written spans, independently of trace.py.
    with open(spans_path) as handle:
        spans = json.load(handle)["spans"]
    index = {id(s): i for i, s in enumerate(spans)}
    for rep in {s["repetition"] for s in spans if s["repetition"] >= 0}:
        mine = [s for s in spans if s["repetition"] == rep]
        child_s = {}
        for s in mine:
            if s["parent"] >= 0:
                child_s[s["parent"]] = child_s.get(s["parent"], 0.0) + s["end"] - s["start"]
        selfs = [s["end"] - s["start"] - child_s.get(index[id(s)], 0.0) for s in mine]
        (root,) = [s for s in mine if s["parent"] < 0]
        root_s = root["end"] - root["start"]
        assert sum(selfs) == pytest.approx(root_s, rel=0.02)
        # Children that overlapped each other would push a parent's self
        # time below zero.
        assert min(selfs) >= -0.02 * root_s
