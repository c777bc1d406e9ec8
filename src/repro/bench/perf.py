"""Local simulator timing table and hot-path profiles (``repro perf``).

Times how many RMA operations per host second one registered runtime
(``horizon`` by default; the CLI always uses it) executes on a few
representative lock workloads.  The cases run serially in the calling
process, and every repetition of a case must produce the same result
fingerprint before a time is reported.  ``profile_case`` backs
``repro perf --profile``: a cProfile/pstats hot-path report per case.

This is a quick local view, not a gate: speed claims and before/after
comparisons go through the ledger (``python3 -m ledger``), which pins a CPU,
scales by a calibration loop and reports medians with their spread.
"""

from __future__ import annotations

import cProfile
import io
import pstats
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, Tuple

from repro.api.registry import get_runtime
from repro.bench.campaign import run_result_sha
from repro.bench.harness import build_lock_spec, make_lock_program
from repro.bench.workloads import LockBenchConfig
from repro.topology.builder import cached_machine

__all__ = [
    "DEFAULT_CASES",
    "PerfCase",
    "measure_case",
    "profile_case",
]


@dataclass(frozen=True)
class PerfCase:
    """One measured workload configuration."""

    name: str
    scheme: str
    benchmark: str
    procs: int
    fw: float = 0.02
    iterations: int = 60
    procs_per_node: int = 8
    seed: int = 1

    def config(self) -> LockBenchConfig:
        # Machine construction goes through the per-(procs, topology) memo
        # shared with the campaign executor and the figure sweeps.
        machine = cached_machine(self.procs, self.procs_per_node)
        return LockBenchConfig(
            machine=machine,
            scheme=self.scheme,
            benchmark=self.benchmark,
            iterations=self.iterations,
            fw=self.fw,
            seed=self.seed,
        )


#: The default cases: RMA-RW on the work-critical-section benchmark at P = 64
#: with the Figure-5 moderate writer mix (F_W = 2%), the read-heavy mix, the
#: MCS writer path and a smaller machine.
DEFAULT_CASES: Tuple[PerfCase, ...] = (
    PerfCase("rma-rw-wcsb-p64", "rma-rw", "wcsb", 64, fw=0.02, iterations=100),
    PerfCase("rma-rw-wcsb-p64-readheavy", "rma-rw", "wcsb", 64, fw=0.002, iterations=60),
    PerfCase("rma-mcs-wcsb-p64", "rma-mcs", "wcsb", 64, fw=0.0, iterations=60),
    PerfCase("rma-rw-ecsb-p32", "rma-rw", "ecsb", 32, fw=0.02, iterations=60),
)


def _case_runner(case: PerfCase, runtime_name: str) -> Callable[[], Any]:
    """A function that runs ``case`` once on a fresh ``runtime_name``."""
    factory = get_runtime(runtime_name).factory
    config = case.config()
    spec, is_rw = build_lock_spec(config)
    program = make_lock_program(config, spec, is_rw, spec.window_words)

    def run():
        runtime = factory(config.machine, window_words=spec.window_words + 2, seed=config.seed)
        return runtime.run(program, window_init=spec.init_window)

    return run


def measure_case(
    case: PerfCase,
    *,
    runtime_name: str = "horizon",
    reps: int = 4,
) -> Dict[str, object]:
    """Run ``case`` ``reps`` times on ``runtime_name``; returns a report row.

    The row carries the best wall time (the usual noise-robust choice for a
    throughput figure); every repetition must reproduce the first one's
    result fingerprint.
    """
    if reps < 1:
        raise ValueError(f"reps must be at least 1, got {reps}")
    run = _case_runner(case, runtime_name)
    best_wall = float("inf")
    first_key = None
    for _ in range(reps):
        t0 = time.perf_counter()
        result = run()
        best_wall = min(best_wall, time.perf_counter() - t0)
        key = run_result_sha(result)
        if first_key is None:
            first_key = key
        elif key != first_key:
            raise AssertionError(
                f"runtime {runtime_name!r} produced non-deterministic results on "
                f"perf case {case.name!r}"
            )
    total_ops = result.total_ops()
    return {
        "case": case.name,
        "scheme": case.scheme,
        "benchmark": case.benchmark,
        "P": case.procs,
        "fw": case.fw,
        "iterations": case.iterations,
        "ops": total_ops,
        "runtime": runtime_name,
        "wall_s": round(best_wall, 6),
        "ops_per_s": round(total_ops / best_wall, 1),
    }


def profile_case(
    case: PerfCase,
    *,
    runtime_name: str = "horizon",
    out_dir: Path,
    top: int = 30,
) -> Path:
    """cProfile one run of ``case`` on ``runtime_name``; write a pstats report.

    The report (cumulative- and self-time rankings of the hottest frames) is
    written to ``out_dir`` as ``PERF_profile_<case>_<runtime>.txt`` and the
    path returned.  One unprofiled warm-up run precedes the measured run: the
    first simulation in a process pays one-off import/allocator costs that
    would otherwise dominate the profile.
    """
    one_run = _case_runner(case, runtime_name)
    one_run()  # warm-up, unprofiled
    # A perf case is a built-in step program, stepped on this thread: the
    # profile is one call tree, the scheduling loop included.
    profiler = cProfile.Profile()
    profiler.enable()
    try:
        one_run()
    finally:
        profiler.disable()

    buf = io.StringIO()
    buf.write(
        f"# cProfile hot paths: case={case.name} runtime={runtime_name}\n"
        f"# (one warmed-up run; profiling multiplies wall time, so compare\n"
        f"#  relative shares, not absolute seconds)\n\n"
    )
    stats = pstats.Stats(profiler, stream=buf)
    stats.sort_stats("tottime").print_stats(top)
    stats.sort_stats("cumulative").print_stats(top)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    out = out_dir / f"PERF_profile_{case.name}_{runtime_name}.txt"
    out.write_text(buf.getvalue())
    return out
