"""Per-layer probes: small fixed programs that isolate one cost each.

The rank programs are written here against the public ``ProcessContext``
API and run once per registered deterministic runtime, so the numbers say
what each simulator core pays for a fast-path operation, a thread hand-off,
a spinner poll and a spawn/join — the measurements a "one core, chosen by
measurement" decision needs.  Every probe's result is required to be
bit-identical across the runtimes.

Imported by the measuring child only, after it pinned itself.
"""

from __future__ import annotations

import os
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import replace
from pathlib import Path
from typing import Any, Callable, Dict, List, Tuple

from repro.api import Cluster
from repro.api.registry import get_scheme, runtime_names
from repro.bench.campaign import get_campaign, run_campaign, run_result_sha
from repro.bench.conformance import conformance_points
from repro.bench.harness import default_scheduler, run_lock_benchmark_detailed
from repro.bench.workloads import LockBenchConfig
from repro.topology.builder import cached_machine
from repro.verification.oracles import LockOracleObserver

from ledger import host
from ledger.workloads import PROCS_PER_NODE, scaled

ROOT = Path(__file__).resolve().parent.parent

#: The runtimes the per-core probes report on.  One that is no longer
#: registered is reported absent (its metrics read 0), not as an error.
PROBED_RUNTIMES = ("baseline", "horizon", "vector")

PROBE_REPS = 3
FASTPATH_OPS = 20000
HANDOFF_ADVANCES = 4000
SPIN_PULSES = 40
#: The flagship configuration at a fifth of its iterations: the seed
#: scheduler needs ~5x the time of the others, and every traced run pays it.
FLAGSHIP_ITERATIONS = 60
RATIO_ITERATIONS = 30
#: The ci-gate grid at one iteration, for the jobs=nproc comparison.
JOBS_ITERATIONS = 1


def _median_wall(fn: Callable[[], Any], reps: int = PROBE_REPS) -> Tuple[float, Any]:
    walls = []
    result = None
    for _ in range(reps):
        t0 = time.perf_counter()
        result = fn()
        walls.append(time.perf_counter() - t0)
    return statistics.median(walls), result


# --------------------------------------------------------------------------- #
# rank programs
# --------------------------------------------------------------------------- #

def _fastpath_program(ops: int):
    def program(ctx):
        # P=1: nothing to hand off to and no horizon to cross.
        for i in range(ops // 2):
            ctx.put(i, 0, 0)
            ctx.flush(0)
        return ctx.now()

    return program


def _handoff_program(advances: int):
    def program(ctx):
        # P=2 with equal steps: after every advance the other rank holds
        # the minimum (clock, rank) key, so every advance is a hand-off.
        for _ in range(advances):
            ctx.compute(1.0)
        return ctx.now()

    return program


def _spin_program(pulses: int):
    def program(ctx):
        # Rank 0 pulses one cell; everyone else spins on it.
        if ctx.rank == 0:
            for k in range(1, pulses + 1):
                ctx.compute(5.0)
                ctx.put(k, 0, 0)
                ctx.flush(0)
        else:
            for k in range(1, pulses + 1):
                ctx.spin_while(0, 0, lambda value, k=k: value < k)
        return ctx.now()

    return program


def _barrier_program(ctx):
    ctx.barrier()
    return ctx.now()


def _session_run(runtime: str, procs: int, program, seed: int):
    session = Cluster(
        procs=procs, procs_per_node=min(procs, PROCS_PER_NODE), runtime=runtime, seed=seed
    ).session(window_words=4)
    return session.run(program)


def _flagship_config(seed: int, smoke: bool) -> LockBenchConfig:
    return LockBenchConfig(
        machine=cached_machine(64, PROCS_PER_NODE),
        scheme="rma-rw",
        benchmark="wcsb",
        iterations=scaled(FLAGSHIP_ITERATIONS, smoke),
        fw=0.02,
        seed=seed,
    )


#: ``rma.<runtime>.<metric>`` names, in the order the probes run.
PROBE_METRICS = ("fastpath_us_per_op", "handoff_us", "spin_us_per_op",
                 "spawn_join_s", "rw_wcsb_p64_wall_s")


def runtime_probes(seed: int, smoke: bool) -> Tuple[Dict[str, float], List[str]]:
    """``rma.<runtime>.*`` for every probed runtime, cross-checked."""
    registered = set(runtime_names(deterministic=True))
    fast_ops = scaled(FASTPATH_OPS, smoke)
    advances = scaled(HANDOFF_ADVANCES, smoke)
    pulses = scaled(SPIN_PULSES, smoke)
    config = _flagship_config(seed, smoke)
    layers: Dict[str, float] = {}
    fingerprints: Dict[str, Dict[str, str]] = {}

    def us_per_op(result: Any) -> float:
        return 1e6 / result.total_ops()

    for runtime in PROBED_RUNTIMES:
        if runtime not in registered:
            layers.update({f"rma.{runtime}.{metric}": 0.0 for metric in PROBE_METRICS})
            continue
        # (program run, factor from median wall seconds to the metric).  Own
        # clock, not RunResult.wall_time_s: the seed scheduler leaves that 0.
        probes = (
            (lambda: _session_run(runtime, 1, _fastpath_program(fast_ops), seed), us_per_op),
            (lambda: _session_run(runtime, 2, _handoff_program(advances), seed),
             lambda result: 1e6 / (2 * advances)),
            (lambda: _session_run(runtime, 64, _spin_program(pulses), seed), us_per_op),
            (lambda: _session_run(runtime, 64, _barrier_program, seed), lambda result: 1.0),
            (lambda: run_lock_benchmark_detailed(config, scheduler=runtime)[1],
             lambda result: 1.0),
        )
        for metric, (fn, factor) in zip(PROBE_METRICS, probes):
            wall, result = _median_wall(fn)
            fingerprints.setdefault(metric, {})[runtime] = run_result_sha(result)
            layers[f"rma.{runtime}.{metric}"] = wall * factor(result)

    problems = [
        f"probe {metric} differs between runtimes: {by_runtime}"
        for metric, by_runtime in fingerprints.items()
        if len(set(by_runtime.values())) > 1
    ]
    return layers, problems


# --------------------------------------------------------------------------- #
# hooks: observer and perturbation cost
# --------------------------------------------------------------------------- #

def hook_ratios(seed: int, smoke: bool) -> Dict[str, float]:
    spec = replace(get_campaign("conformance"), seed=seed)
    control, perturbed = conformance_points(
        spec, seeds=1, schemes=["rma-rw"], benchmarks=["wcsb"], process_counts=[32],
        iterations=scaled(RATIO_ITERATIONS, smoke),
    )
    info = get_scheme("rma-rw")
    bound = info.fairness_bound(32) if info.fairness_bound is not None else None
    scheduler = default_scheduler()
    config = control.config()

    def observed(perturbation=None):
        return run_lock_benchmark_detailed(
            config, scheduler=scheduler, perturbation=perturbation,
            observer=LockOracleObserver(bypass_bound=bound),
        )

    plain_s, _ = _median_wall(lambda: run_lock_benchmark_detailed(config, scheduler=scheduler))
    observed_s, _ = _median_wall(observed)
    perturbed_s, _ = _median_wall(lambda: observed(perturbed.perturbation()))
    return {
        "verification.oracles.observe_ratio": observed_s / plain_s,
        "rma.perturbation.ratio": perturbed_s / observed_s,
    }


# --------------------------------------------------------------------------- #
# host calibration (no repro code) and command-line start-up
# --------------------------------------------------------------------------- #

def host_calibration() -> Dict[str, float]:
    rounds = 5000
    ping, pong = threading.Lock(), threading.Lock()
    ping.acquire()
    pong.acquire()

    def partner() -> None:
        for _ in range(rounds):
            ping.acquire()
            pong.release()

    thread = threading.Thread(target=partner)
    thread.start()
    t0 = time.perf_counter()
    for _ in range(rounds):
        ping.release()
        pong.acquire()
    handoff_s = time.perf_counter() - t0
    thread.join()
    return {
        "host.py_loop_us": 1e6 * host.py_loop_s() / host.LOOP_ITERATIONS,
        "host.thread_handoff_us": 1e6 * handoff_s / (2 * rounds),
        "host.nproc": float(os.cpu_count() or 1),
    }


def cli_startup(tmp: str) -> Dict[str, float]:
    """Fresh-process cost of the command line (children inherit the pin)."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))

    def launch(*argv: str) -> None:
        subprocess.run(
            [sys.executable, *argv], env=env, cwd=tmp, check=True,
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )

    import_s, _ = _median_wall(lambda: launch("-c", "import repro.cli"))
    info_s, _ = _median_wall(lambda: launch("-m", "repro", "info"))
    return {"cli.import_s": import_s, "cli.info_s": info_s}


# --------------------------------------------------------------------------- #
# placement
# --------------------------------------------------------------------------- #

def _jobs_campaign(seed: int, smoke: bool, tmp: str, jobs: int) -> float:
    spec = replace(get_campaign("ci-gate"), seed=seed, iterations=JOBS_ITERATIONS)
    if smoke:
        spec = replace(spec, process_counts=(8,))
    with tempfile.TemporaryDirectory(prefix="jobs-", dir=tmp) as cache_dir:
        t0 = time.perf_counter()
        run_campaign(spec, jobs=jobs, cache_dir=cache_dir, scheduler=default_scheduler())
        return time.perf_counter() - t0


def placement_reference(seed: int, smoke: bool, tmp: str) -> Dict[str, float]:
    """The pinned side of the two placement ratios (private ``_ref.*`` keys)."""
    config = _flagship_config(seed, smoke)
    wall, _ = _median_wall(
        lambda: run_lock_benchmark_detailed(config, scheduler=default_scheduler())
    )
    return {
        "_ref.flagship_s": wall,
        "_ref.jobs1_s": _jobs_campaign(seed, smoke, tmp, 1),
    }


def placement(seed: int, smoke: bool, tmp: str, ncpu: int) -> Dict[str, Any]:
    """The unpinned side: same two measurements on the full CPU mask."""
    config = _flagship_config(seed, smoke)
    wall, _ = _median_wall(
        lambda: run_lock_benchmark_detailed(config, scheduler=default_scheduler())
    )
    return {
        "flagship_s": wall,
        "jobs_s": _jobs_campaign(seed, smoke, tmp, max(2, ncpu)),
        "ncpu": ncpu,
    }


# --------------------------------------------------------------------------- #

def in_process(seed: int, smoke: bool, tmp: str) -> Tuple[Dict[str, float], List[str]]:
    """Every probe that runs inside the pinned child."""
    layers, problems = runtime_probes(seed, smoke)
    layers.update(hook_ratios(seed, smoke))
    layers.update(host_calibration())
    layers.update(cli_startup(tmp))
    layers.update(placement_reference(seed, smoke, tmp))
    return layers, problems
