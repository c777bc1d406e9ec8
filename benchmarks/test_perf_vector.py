"""Per-op dispatch microbenchmark for the three deterministic runtimes.

Compares the cost of dispatching one simulated RMA operation through each
registered deterministic scheduler — ``baseline`` (the preserved seed
scheduler), ``horizon`` (the min-heap scheduler) and ``vector`` (the
descriptor-batched state-machine core) — at P in {64, 256}, and writes the
rows under the ``vector`` suite key of a ``BENCH_runtime.json`` in pytest's
``tmp_path`` (never the committed file: a test run leaves the tree clean).

Two workload shapes are measured:

* ``spin-flood`` — one writer pulses a cell that every other rank spins on,
  so nearly all simulated ops are spin-poll rounds processed inside the
  scheduler with almost no program-thread interaction.  This isolates
  per-op *dispatch* cost, which is exactly where the vector runtime's
  inline spinner-wave batching pays off.
* ``rma-rw/wcsb`` (P = 256 only) — the ISSUE-6 acceptance workload,
  measured end-to-end with the vector runtime's auto shard policy and
  recorded next to the dispatch-cost rows.  The harness loop is a step
  program, which ``horizon`` steps inline with no rank threads while
  ``vector`` still parks one thread per rank, so the row's ``speedup`` is
  well below 1 by design and is recorded, not gated.

Every measurement doubles as a determinism check: a row is recorded only
after all three runtimes produced bit-identical results on the workload.
"""

from __future__ import annotations

import json
import os
import time
from typing import Dict, List, Optional, Tuple

from repro.api.registry import get_runtime, runtime_names
from repro.bench.campaign import run_result_sha
from repro.bench.perf import PerfCase, measure_case, update_bench_json
from repro.bench.report import format_table
from repro.topology.builder import cached_machine

#: Dispatch-cost comparison runtimes, slowest first (so the flood's
#: cross-runtime determinism check fails on the reference, not the DUT).
RUNTIMES = ("baseline", "horizon", "vector")

#: Writer pulses per flood measurement (each pulse wakes P-2 spinners for
#: one GET+FLUSH poll round, so simulated ops scale with P * pulses).
FLOOD_PULSES = {64: 120, 256: 60}

#: Conservative always-on floor, generous against host noise: the vector
#: scheduler's batched dispatch must stay clearly ahead of the seed
#: scheduler on the dispatch-bound flood (a blocking program, thread-backed
#: on every runtime).
FLOOD_MIN_SPEEDUP_VS_BASELINE = 4.0


def _flood_program(pulses: int):
    """One writer (rank 1) pulses cell (0, 0); every other rank spins on it."""

    def program(ctx):
        ctx.barrier()
        if ctx.rank == 1:
            for _ in range(pulses):
                ctx.accumulate(1, 0, 0)
                ctx.flush(0)
                ctx.compute(130.0)  # let the wake flood drain between pulses
            return ctx.now()
        return ctx.spin_while(0, 0, lambda v: v < pulses)

    return program


def _best_flood_run(runtime_name: str, procs: int, pulses: int, reps: int):
    machine = cached_machine(procs, 8)
    program = _flood_program(pulses)
    best_wall: Optional[float] = None
    result = None
    for _ in range(max(1, reps)):
        runtime = get_runtime(runtime_name).factory(machine, window_words=4, seed=7)
        t0 = time.perf_counter()
        res = runtime.run(program)
        wall = time.perf_counter() - t0
        if best_wall is None or wall < best_wall:
            best_wall = wall
            result = res
    assert best_wall is not None and result is not None
    return best_wall, result


def _measure_flood(procs: int, reps: int) -> List[Dict[str, object]]:
    pulses = FLOOD_PULSES[procs]
    rows: List[Dict[str, object]] = []
    reference_sha = None
    walls: Dict[str, float] = {}
    for runtime_name in RUNTIMES:
        # The seed scheduler is ~30x slower here; one rep keeps the suite fast.
        rt_reps = 1 if runtime_name == "baseline" else reps
        wall, result = _best_flood_run(runtime_name, procs, pulses, rt_reps)
        sha = run_result_sha(result)
        if reference_sha is None:
            reference_sha = sha
        else:
            assert sha == reference_sha, (
                f"{runtime_name} diverged from {RUNTIMES[0]} on the spin-flood "
                f"microbenchmark at P={procs}"
            )
        ops = result.total_ops()
        walls[runtime_name] = wall
        rows.append(
            {
                "case": f"spin-flood-p{procs}",
                "P": procs,
                "runtime": runtime_name,
                "pulses": pulses,
                "ops": ops,
                "wall_s": round(wall, 6),
                "ops_per_s": round(ops / wall, 1),
                "dispatch_us_per_op": round(wall / ops * 1e6, 3),
            }
        )
    for row in rows:
        row["speedup_vs_baseline"] = round(walls["baseline"] / float(row["wall_s"]), 3)
    return rows


def test_perf_vector_dispatch_and_record(tmp_path):
    assert set(RUNTIMES) <= set(runtime_names(deterministic=True))
    reps = int(os.environ.get("REPRO_PERF_REPS", "2"))

    rows: List[Dict[str, object]] = []
    for procs in sorted(FLOOD_PULSES):
        rows.extend(_measure_flood(procs, reps))

    # The ISSUE-6 acceptance shape: end-to-end rma-rw/wcsb at P=256 on the
    # vector runtime (auto shard policy), cross-checked against horizon.
    acceptance = PerfCase(
        "rma-rw-wcsb-p256", "rma-rw", "wcsb", 256, fw=0.02, iterations=60
    )
    # measure_case refuses to report unless both runtimes' results are
    # bit-identical, which is what this row is kept for.
    e2e_reps = int(os.environ.get("REPRO_PERF_E2E_REPS", "3"))
    e2e = measure_case(
        acceptance,
        runtime_name="vector",
        reference="horizon",
        reps=e2e_reps,
        baseline_reps=e2e_reps,
    )
    rows.append(e2e)

    bench_json = update_bench_json(
        tmp_path / "BENCH_runtime.json",
        "vector",
        {
            "suite": "vector-dispatch",
            "cases": rows,
        },
    )
    print("\n" + format_table(rows))
    print(f"recorded: {bench_json} (suite key: vector)")
    assert len(json.loads(bench_json.read_text())["vector"]["cases"]) == len(rows)

    # Gate: the dispatch-bound flood must beat the seed scheduler comfortably.
    by_case: Dict[Tuple[str, str], Dict[str, object]] = {
        (str(r["case"]), str(r["runtime"])): r for r in rows
    }
    for procs in sorted(FLOOD_PULSES):
        case = f"spin-flood-p{procs}"
        vec = by_case[(case, "vector")]
        assert float(vec["speedup_vs_baseline"]) >= FLOOD_MIN_SPEEDUP_VS_BASELINE, (
            f"{case}: vector dispatch is only "
            f"{vec['speedup_vs_baseline']}x the seed scheduler "
            f"(required {FLOOD_MIN_SPEEDUP_VS_BASELINE}x)"
        )
