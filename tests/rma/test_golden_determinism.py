"""Golden determinism tests for the deterministic schedulers.

Three layers of protection:

1. **Recorded goldens** — ``golden/seed_scheduler.json`` holds bit-exact
   fingerprints (hex floats + SHA-256 of the canonicalized returns) recorded
   from the original baton-passing seed scheduler.  The horizon scheduler
   and the reference interpreter (``tests/reference.py``, the determinism
   contract's executable form) must reproduce them exactly — the CI
   golden-fingerprint jobs select one each with ``-k horizon`` / ``-k
   reference``.  ``horizon`` is held to them in both of its modes:
   ``horizon-inline`` (the harness's step program stepped on the calling
   thread, no rank thread started) and ``horizon-threads`` (the same program
   as a blocking program, ``blocking_program(program)``: one rank thread
   each, every call bridged into the same loop — what a blocking program or
   a blocking-only handle gets).  ``golden/perturbed.json`` does the same
   for runs under a seeded perturbation model (``PERTURBED_CASES``),
   recorded on the reference.
2. **Live cross-check** — the same workloads, plus the ``repro perf``
   shapes up to P=64 (not recorded), run on horizon and the reference in one
   process must match bit-for-bit (guards against the recorded file and both
   drifting together).
3. **Same-seed stability** — two runs of one configuration must be
   bit-identical (the basic determinism contract).
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

from repro.bench.harness import build_lock_spec, make_lock_program
from repro.bench.perf import DEFAULT_CASES
from repro.rma.runtime_base import blocking_program, is_step_program

from golden_cases import (
    GOLDEN_CASES, PERTURBED_CASES, golden_config, golden_perturbation, result_fingerprint,
)
from tests.reference import REFERENCE, factory
from tests.support import rank_threads_started

GOLDEN_PATH = Path(__file__).resolve().parent / "golden" / "seed_scheduler.json"
PERTURBED_PATH = GOLDEN_PATH.with_name("perturbed.json")

#: Every scheduler (and mode) held to the recorded goldens.
SCHEDULERS = ("horizon-inline", "horizon-threads", REFERENCE)

#: Checked live against the reference but not recorded: ``repro perf``'s
#: default cases with 4 iterations — rma-rw on wcsb with the Figure-5 writer
#: mix and the read-heavy mix at P=64, above the goldens' largest P, the MCS
#: writer path at P=64 and rma-rw on ecsb at P=32.
LIVE_ONLY_CASES = {
    case.name: {
        "P": case.procs, "procs_per_node": case.procs_per_node, "scheme": case.scheme,
        "benchmark": case.benchmark, "iterations": 4, "fw": case.fw, "seed": case.seed,
    }
    for case in DEFAULT_CASES
}
ALL_CASES = {**GOLDEN_CASES, **PERTURBED_CASES, **LIVE_ONLY_CASES}


def _run_case(name: str, scheduler: str):
    config = golden_config(name, ALL_CASES)
    spec, is_rw = build_lock_spec(config)
    scheduler, _, mode = scheduler.partition("-")
    runtime = factory(scheduler)(
        config.machine, window_words=spec.window_words + 2, seed=config.seed,
        perturbation=golden_perturbation(name, ALL_CASES),
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


@pytest.fixture(scope="module")
def recorded_perturbed():
    return json.loads(PERTURBED_PATH.read_text())["cases"]


def _assert_matches(name, scheduler, reference):
    fingerprint = result_fingerprint(_run_case(name, scheduler))
    # Compare field by field for actionable failure messages.
    for field in reference:
        assert fingerprint[field] == reference[field], (
            f"{name}: {scheduler}: {field} diverged from the recorded output"
        )


@pytest.mark.parametrize("scheduler", SCHEDULERS)
@pytest.mark.parametrize("name", sorted(GOLDEN_CASES))
def test_matches_recorded_seed_scheduler(name, scheduler, recorded_goldens):
    """Bit-identical RunResult vs the recorded seed-scheduler outputs."""
    _assert_matches(name, scheduler, recorded_goldens[name])


@pytest.mark.parametrize("scheduler", SCHEDULERS)
@pytest.mark.parametrize("name", sorted(PERTURBED_CASES))
def test_matches_recorded_perturbed_schedule(name, scheduler, recorded_perturbed):
    """Bit-identical RunResult vs the recorded perturbed schedules."""
    _assert_matches(name, scheduler, recorded_perturbed[name])


@pytest.mark.parametrize("name", sorted(GOLDEN_CASES) + sorted(LIVE_ONLY_CASES))
def test_matches_live_reference(name):
    """Bit-identical RunResult vs the reference interpreter, run live."""
    reference = result_fingerprint(_run_case(name, REFERENCE))
    assert result_fingerprint(_run_case(name, "horizon-inline")) == reference
    assert result_fingerprint(_run_case(name, "horizon-threads")) == reference


@pytest.mark.parametrize("scheduler", SCHEDULERS)
@pytest.mark.parametrize("name", ["rma-mcs-ecsb-p8", "rma-rw-ecsb-p8"])
def test_same_seed_runs_are_bit_identical(name, scheduler):
    """finish_times_us, op_counts and per-rank returns repeat exactly."""
    first = result_fingerprint(_run_case(name, scheduler))
    second = result_fingerprint(_run_case(name, scheduler))
    assert first == second


def test_reference_recorder_reproduces_the_committed_file(recorded_goldens, recorded_perturbed):
    """``tools/record_golden.py`` records on the reference, and what it
    records is the committed files, so the recorder cannot rot unexercised."""
    path = Path(__file__).resolve().parents[2] / "tools" / "record_golden.py"
    spec = importlib.util.spec_from_file_location("record_golden", path)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    payload = tool.record()
    assert payload["runtime"] == REFERENCE
    assert payload["cases"] == recorded_goldens
    assert tool.record(PERTURBED_CASES)["cases"] == recorded_perturbed
