"""The measuring child: one workload, one fresh process, one CPU.

Launched by :mod:`ledger.__main__`; prints exactly one JSON object as the
last line of its standard output.  The process confines itself to the first
CPU of the mask it inherited *before* ``import repro``: the simulator's rank
threads hand a baton to each other, and when the kernel may migrate them
across CPUs the same deterministic run takes 4-5x longer and wanders by 25 %
(see ledger/README.md, "Why runs are pinned").
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path

from ledger import host

ROOT = Path(__file__).resolve().parent.parent

#: Discarded first repetitions: lazy imports, cold caches, first thread
#: stacks (the flagship's first repetition reads ~1.25 s, the rest ~0.96 s).
WARMUP_REPS = 1
#: Fewest timed repetitions of a child, however short ``--seconds`` is.
MIN_REPS = 3


def _confine(inherited: set, unpinned: bool) -> None:
    """One CPU and no wake-up preemption, inherited by every rank thread.

    On one CPU a rank thread that releases the next rank's baton should run
    on until it blocks on its own.  Under SCHED_OTHER the kernel sometimes
    lets the woken thread preempt at once — it then stalls on the GIL and is
    switched out again — which made repetitions of the same deterministic run
    bimodal (1.03 s or 1.35 s).  A SCHED_BATCH task never preempts on wake-up,
    so every hand-off costs the same.  Neither call needs a privilege; where
    one is refused the run proceeds as placed.
    """
    if unpinned:
        return
    try:
        os.sched_setaffinity(0, {min(inherited)})
        os.sched_setscheduler(0, os.SCHED_BATCH, os.sched_param(0))
    except OSError:
        pass


def _peak_rss_mb() -> float:
    """Peak resident set of this process and the children it waited for."""
    kb = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    return kb / 1024.0


class _Clock:
    """Times repetitions, with the host-speed loop before and after each."""

    def __init__(self) -> None:
        self._loop_s = host.py_loop_s()

    def stamp(self, rep: dict) -> dict:
        """Add ``wall_s`` (scaled to the reference host speed) to ``rep``."""
        before, self._loop_s = self._loop_s, host.py_loop_s()
        rep["loop_s"] = (before + self._loop_s) / 2
        rep["wall_s"] = host.scale(rep["wall_raw_s"], rep["loop_s"])
        return rep

    def timed(self, run, state, **kwargs) -> dict:
        t0 = time.perf_counter()
        points, extras = run(state, **kwargs)
        wall = time.perf_counter() - t0
        return self.stamp({"wall_raw_s": wall, "points": points, "extras": extras})


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="ledger.child")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--tmp", required=True)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--trace-out", default=None)
    parser.add_argument("--scheduler", default=None,
                        help="bless cross-check only: run on this named core")
    parser.add_argument("--placement", action="store_true",
                        help="placement probe: full inherited CPU mask")
    args = parser.parse_args(argv)

    inherited = os.sched_getaffinity(0)
    _confine(inherited, args.placement)
    # Backstop: nothing may fall back to <repo>/.repro-cache.
    os.environ["REPRO_CACHE_DIR"] = os.path.join(args.tmp, "cache-backstop")
    sys.path.insert(0, str(ROOT / "src"))

    from ledger import workloads

    if args.placement:
        from ledger import probes

        out = probes.placement(args.seed, args.smoke, args.tmp, len(inherited))
        print(json.dumps(out))
        return 0

    workload = workloads.WORKLOADS[args.workload]
    t_load = time.perf_counter()
    from repro.api.registry import (
        load_builtin_benchmarks,
        load_builtin_runtimes,
        load_builtin_schemes,
    )

    load_builtin_schemes()
    load_builtin_benchmarks()
    load_builtin_runtimes()
    registry_load_s = time.perf_counter() - t_load
    state = workload.prepare(args.seed, args.smoke, args.tmp)
    ready = time.monotonic()
    if args.setup_only:
        print(json.dumps({"ready": ready, "peak_rss_mb": _peak_rss_mb()}))
        return 0

    run_kwargs = {}
    warmup, min_reps = WARMUP_REPS, MIN_REPS
    if args.smoke:  # exactly 1 + 2 repetitions
        min_reps, args.seconds = 2, 0.0
    if args.scheduler:
        run_kwargs, warmup, min_reps = {"scheduler": args.scheduler}, 0, 1
    out = {"ready": ready, "single_run": workload.single_run}

    clock = _Clock()
    if args.trace:
        from ledger import probes, trace

        tracer = trace.Tracer()
        reps = []

        def pair(rep: int, is_warmup: bool) -> None:
            # Untraced and traced repetitions alternate, so both see the same
            # host conditions and their ratio is the tracing overhead.
            reps.append(dict(clock.timed(workload.run, state), traced=False, warmup=is_warmup))
            traced = tracer.traced_rep(workload.run, state, args.workload, rep)
            reps.append(dict(clock.stamp(traced), traced=True, warmup=is_warmup))

        for _ in range(warmup):
            pair(-1, True)
        budget = args.seconds * trace.WORKLOAD_SHARE
        t0 = time.perf_counter()
        pairs = 0
        # Two repetitions to a pair, so one pair fewer than min_reps.
        while pairs < min_reps - 1 or time.perf_counter() - t0 < budget:
            pair(pairs, False)
            pairs += 1
        out["reps"] = reps
        layers, problems = tracer.layer_metrics(reps)
        layers["api.registry.load_s"] = registry_load_s
        probe_layers, probe_problems = probes.in_process(args.seed, args.smoke, args.tmp)
        layers.update(probe_layers)
        out["layers"] = layers
        out["problems"] = problems + probe_problems
        if args.trace_out:
            tracer.write(args.trace_out)
    else:
        reps = [dict(clock.timed(workload.run, state, **run_kwargs), warmup=True)
                for _ in range(warmup)]
        t0 = time.perf_counter()
        last = 0.0
        timed = 0
        # Stop when the next repetition would end further past --seconds
        # than stopping now falls short of it.
        while timed < min_reps or time.perf_counter() - t0 + 0.5 * last < args.seconds:
            reps.append(dict(clock.timed(workload.run, state, **run_kwargs), warmup=False))
            last = statistics.median(r["wall_raw_s"] for r in reps if not r["warmup"])
            timed += 1
        out["reps"] = reps

    out["peak_rss_mb"] = _peak_rss_mb()
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
