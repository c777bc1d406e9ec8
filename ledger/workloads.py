"""The five workloads.  Each drives ``src/repro`` through public functions only.

A workload has a ``prepare(seed, smoke)`` step — everything a user pays once
per process (registries, machine, cost table, lock spec), which is what
``setup_s`` times — and a ``run(state)`` step that makes the workload's one
user-level call and returns one record per simulated run (a *point*):

    {"case", "fingerprint", "ops", "acquires", "elapsed_us", "ok", "why"}

``ops`` is the number of simulated RMA calls the point executed, ``ok`` is the
program's own verdict (oracles, reproducibility, warm row == cold row); the
parent adds the fingerprint checks.  Every run goes through the harness's
``default_scheduler()`` — never a named core — so that a later change of the
default core is measured the way users would see it.

This module is imported by the measuring child only, after it pinned itself.
"""

from __future__ import annotations

import json
import pickle
import shutil
import tempfile
from dataclasses import dataclass, replace
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.bench.campaign import get_campaign, run_campaign, run_result_sha
from repro.bench.conformance import run_conformance
from repro.bench.harness import (
    build_lock_spec,
    default_scheduler,
    run_lock_benchmark_detailed,
)
from repro.bench.workloads import LockBenchConfig
from repro.rma.latency import LatencyModel, cost_table
from repro.topology.builder import cached_machine
from repro.traffic.engine import run_traffic, traffic_spec

Point = Dict[str, Any]
#: A repetition's outcome: its points plus workload-specific measurements
#: (the campaign's cold/warm split) that only the per-layer report uses.
RepResult = Tuple[List[Point], Dict[str, float]]

#: ``--smoke`` divides every iteration count by this (floor 1).
SMOKE_DIVISOR = 10

PROCS_PER_NODE = 8


def scaled(full: int, smoke: bool) -> int:
    """An iteration count as ``--smoke`` runs it."""
    return max(1, full // SMOKE_DIVISOR) if smoke else full


def _warm_machine(procs: int) -> Any:
    """Machine + default cost table, built once per process like users do."""
    machine = cached_machine(procs, PROCS_PER_NODE)
    cost_table(LatencyModel.cray_xc30(), machine)
    return machine


def _row_point(row: Dict[str, Any], *, runs: int = 1) -> Point:
    """A campaign/traffic/conformance row as a point record."""
    return {
        "case": row["case"],
        "fingerprint": row.get("fingerprint"),
        "ops": int(row.get("rma_ops", 0)) * runs,
        "acquires": int(row.get("acquires", 0)),
        "elapsed_us": float(row.get("elapsed_us", 0.0)),
        "ok": True,
        "why": "",
    }


# --------------------------------------------------------------------------- #
# rw_wcsb_p64 / spin_wcsb_p64: one harness run
# --------------------------------------------------------------------------- #

def _prepare_single(scheme: str, iterations: int) -> Callable[[int, bool, str], Any]:
    def prepare(seed: int, smoke: bool, tmp: str) -> LockBenchConfig:
        config = LockBenchConfig(
            machine=_warm_machine(64),
            scheme=scheme,
            benchmark="wcsb",
            iterations=scaled(iterations, smoke),
            fw=0.02,
            seed=seed,
        )
        build_lock_spec(config)
        return config

    return prepare


def _run_single(config: LockBenchConfig, scheduler: Optional[str] = None) -> RepResult:
    bench, raw = run_lock_benchmark_detailed(
        config, scheduler=scheduler or default_scheduler()
    )
    point = {
        "case": f"{config.scheme}-{config.benchmark}-p{config.machine.num_processes}"
                f"-s{config.seed}-i{config.iterations}",
        "fingerprint": run_result_sha(raw),
        "ops": raw.total_ops(),
        "acquires": bench.total_acquires,
        "elapsed_us": bench.elapsed_us,
        "ok": True,
        "why": "",
    }
    return [point], {}


# --------------------------------------------------------------------------- #
# traffic_mix_p64: the open-loop traffic sweep
# --------------------------------------------------------------------------- #

TRAFFIC_SCHEMES = ("rma-mcs", "d-mcs", "striped-rw")
TRAFFIC_SCENARIOS = ("traffic-zipf", "traffic-phased")


def _prepare_traffic(seed: int, smoke: bool, tmp: str) -> Any:
    _warm_machine(64)
    spec = traffic_spec(schemes=TRAFFIC_SCHEMES, scenarios=TRAFFIC_SCENARIOS)
    return replace(spec, seed=seed, iterations=scaled(spec.iterations, smoke))


def _run_traffic(spec: Any) -> RepResult:
    report = run_traffic(spec, schedulers=(default_scheduler(),), jobs=1, cache=False)
    return [_row_point(row) for row in report.rows], {}


# --------------------------------------------------------------------------- #
# chaos_p32: perturbation + live oracles on every run
# --------------------------------------------------------------------------- #

CHAOS_SCHEMES = ("rma-rw", "rma-mcs", "d-mcs")
CHAOS_BENCHMARKS = ("ecsb", "wcsb")
CHAOS_SEEDS = 4


def _prepare_chaos(seed: int, smoke: bool, tmp: str) -> Any:
    _warm_machine(32)
    spec = get_campaign("conformance")
    return replace(spec, seed=seed, iterations=scaled(spec.iterations, smoke))


def _run_chaos(spec: Any) -> RepResult:
    report = run_conformance(
        spec,
        seeds=CHAOS_SEEDS,
        schemes=CHAOS_SCHEMES,
        benchmarks=CHAOS_BENCHMARKS,
        process_counts=[32],
        recheck=True,
        jobs=1,
        cache=False,
    )
    points = []
    for row in report.rows:
        # recheck=True executes every point twice; both runs are work done.
        point = _row_point(row, runs=2)
        if not row["ok"] or not row["reproducible"]:
            point["ok"] = False
            point["why"] = "; ".join(row["violations"]) or "not reproducible"
        points.append(point)
    return points, {}


# --------------------------------------------------------------------------- #
# campaign_ci_gate: what `repro regress` runs, cold then warm
# --------------------------------------------------------------------------- #

#: ci-gate's own 8 iterations take ~4 s per cold run here, which leaves too
#: few repetitions in a run; 4 keeps the grid (14 schemes x P in {8,32,64}).
CAMPAIGN_ITERATIONS = 4


def _prepare_campaign(seed: int, smoke: bool, tmp: str) -> Any:
    for procs in (8, 32, 64):
        _warm_machine(procs)
    spec = replace(
        get_campaign("ci-gate"),
        seed=seed,
        iterations=scaled(CAMPAIGN_ITERATIONS, smoke),
    )
    return spec, tmp, len(pickle.dumps(spec.points()))


def _run_campaign(state: Any) -> RepResult:
    spec, tmp, point_pickle_bytes = state
    cache_dir = tempfile.mkdtemp(prefix="cache-", dir=tmp)
    try:
        cold = run_campaign(spec, jobs=1, cache_dir=cache_dir, scheduler=default_scheduler())
        warm = run_campaign(spec, jobs=1, cache_dir=cache_dir, scheduler=default_scheduler())
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)
    points = []
    for cold_row, warm_row in zip(cold.rows, warm.rows):
        point = _row_point(cold_row)
        a = {k: v for k, v in cold_row.items() if k != "cached"}
        b = {k: v for k, v in warm_row.items() if k != "cached"}
        if a != b or not warm_row.get("cached"):
            point["ok"] = False
            point["why"] = "warm cache row differs from its cold row"
        points.append(point)
    extras = {
        "cold_s": cold.wall_s,
        "warm_s": warm.wall_s,
        "cache.hits": float(warm.cache_hits),
        "cache.misses": float(cold.cache_misses),
        "point_pickle_bytes": float(point_pickle_bytes),
        "row_json_bytes": float(sum(len(json.dumps(row)) for row in cold.rows)),
    }
    return points, extras


# --------------------------------------------------------------------------- #

@dataclass(frozen=True)
class Workload:
    name: str
    prepare: Callable[[int, bool, str], Any]
    run: Callable[..., RepResult]
    #: True when ``run`` accepts a ``scheduler`` override, which
    #: ``--bless-expected`` uses to cross-check against the seed scheduler.
    single_run: bool = False


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("rw_wcsb_p64", _prepare_single("rma-rw", 300), _run_single, True),
        Workload("spin_wcsb_p64", _prepare_single("fompi-spin", 30), _run_single, True),
        Workload("traffic_mix_p64", _prepare_traffic, _run_traffic),
        Workload("chaos_p32", _prepare_chaos, _run_chaos),
        Workload("campaign_ci_gate", _prepare_campaign, _run_campaign),
    )
}
