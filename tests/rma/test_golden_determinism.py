"""Golden determinism tests for the deterministic schedulers.

Three layers of protection:

1. **Recorded goldens** — ``golden/seed_scheduler.json`` holds bit-exact
   fingerprints (hex floats + SHA-256 of the canonicalized returns) recorded
   from the original PR-0 baton-passing scheduler.  Every registered
   deterministic runtime (the horizon scheduler, the preserved ``baseline``
   seed scheduler *and* the batched ``vector`` core) must reproduce them
   exactly for rma-mcs and rma-rw at P in {8, 32} — the CI
   golden-fingerprint jobs select one scheduler each with ``-k horizon`` /
   ``-k baseline`` / ``-k vector``.  ``horizon`` is held to them in both of
   its modes: ``horizon-inline`` (the harness's step program stepped on the
   calling thread, no rank thread started) and ``horizon-threads`` (the same
   program driven by rank threads through ``ctx.run_steps``, which is what a
   blocking program, a blocking-only handle or a fault plan gets).
2. **Live cross-check** — the same workloads run on both schedulers in one
   process must match bit-for-bit (guards against the recorded file and both
   schedulers drifting together).
3. **Same-seed stability** — two runs of one configuration must be
   bit-identical (the basic determinism contract).
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.api.registry import get_runtime
from repro.bench.harness import build_lock_spec, make_lock_program
from repro.rma.runtime_base import blocking_program, is_step_program

from golden_cases import GOLDEN_CASES, golden_config, result_fingerprint
from tests.support import rank_threads_started

GOLDEN_PATH = Path(__file__).resolve().parent / "golden" / "seed_scheduler.json"

#: Every scheduler (and mode) held to the recorded goldens.  The campaign
#: result cache keys on the golden file's hash, so whatever passes here also
#: defines the cache epoch of `repro campaign` / `repro regress`.
SCHEDULERS = ("horizon-inline", "horizon-threads", "baseline", "vector")


def _run_case(name: str, scheduler: str):
    config = golden_config(name)
    spec, is_rw = build_lock_spec(config)
    scheduler, _, mode = scheduler.partition("-")
    runtime = get_runtime(scheduler).factory(
        config.machine, window_words=spec.window_words + 2, seed=config.seed
    )
    program = make_lock_program(config, spec, is_rw, spec.window_words)
    assert is_step_program(program)
    if mode == "threads":
        program = blocking_program(program)
    with rank_threads_started() as rank_threads:
        result = runtime.run(program, window_init=spec.init_window)
    if mode == "inline":
        assert not rank_threads, "the inline driver must stay engaged"
    elif mode == "threads":
        assert len(rank_threads) == config.machine.num_processes
    return result


@pytest.fixture(scope="module")
def recorded_goldens():
    return json.loads(GOLDEN_PATH.read_text())["cases"]


@pytest.mark.parametrize("scheduler", SCHEDULERS)
@pytest.mark.parametrize("name", sorted(GOLDEN_CASES))
def test_matches_recorded_seed_scheduler(name, scheduler, recorded_goldens):
    """Bit-identical RunResult vs the recorded seed-scheduler outputs."""
    result = _run_case(name, scheduler)
    fingerprint = result_fingerprint(result)
    reference = recorded_goldens[name]
    # Compare field by field for actionable failure messages.
    for field in reference:
        assert fingerprint[field] == reference[field], (
            f"{name}: {scheduler}: {field} diverged from the recorded seed "
            f"scheduler output"
        )


@pytest.mark.parametrize("name", sorted(GOLDEN_CASES))
def test_matches_live_baseline_scheduler(name):
    """Bit-identical RunResult vs the preserved seed scheduler, run live."""
    baseline = result_fingerprint(_run_case(name, "baseline"))
    assert result_fingerprint(_run_case(name, "horizon-inline")) == baseline
    assert result_fingerprint(_run_case(name, "horizon-threads")) == baseline


@pytest.mark.parametrize("scheduler", SCHEDULERS)
@pytest.mark.parametrize("name", ["rma-mcs-ecsb-p8", "rma-rw-ecsb-p8"])
def test_same_seed_runs_are_bit_identical(name, scheduler):
    """finish_times_us, op_counts and per-rank returns repeat exactly."""
    first = result_fingerprint(_run_case(name, scheduler))
    second = result_fingerprint(_run_case(name, scheduler))
    assert first == second
