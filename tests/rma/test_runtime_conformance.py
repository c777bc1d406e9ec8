"""Registry-wide runtime conformance: every registered backend is one core.

The golden-determinism suite pins the *named* schedulers; this suite pins the
**registry contract**: any runtime registered with ``@register_runtime`` —
including one a third party registers at runtime — must

1. reproduce the recorded golden fingerprints at P in {8, 32} bit-exactly,
2. round-trip through the ``Cluster``/``Session`` facade
   (``Cluster(runtime=<name>).session(lock).run(...)``) with results
   bit-identical to the horizon scheduler (the reference interpreter,
   ``tests/reference.py``, with the program's step twin).

The third-party backend registered here is a factory of its own around the
``SimRuntime`` core — exactly what an external package would ship — and is
torn down again so registration is side-effect free for the rest of the
test run.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.api import registry
from repro.api.registry import get_runtime, register_runtime, runtime_names
from repro.api.session import Cluster
from repro.bench.campaign import run_result_sha
from repro.bench.harness import build_lock_spec, make_lock_program
from repro.rma.runtime_base import ACCUMULATE

from golden_cases import GOLDEN_CASES, golden_config, result_fingerprint

GOLDEN_PATH = Path(__file__).resolve().parent / "golden" / "seed_scheduler.json"

THIRD_PARTY_NAME = "acme-sim"


@pytest.fixture(scope="module")
def third_party_runtime():
    """Register an out-of-tree style backend; unregister on teardown."""
    from repro.rma.sim_runtime import SimRuntime

    @register_runtime(
        THIRD_PARTY_NAME,
        help="test-only third-party backend (the SimRuntime core, own factory)",
    )
    def _make_acme(
        machine, *, window_words=64, seed=0, latency=None, fabric=None,
        perturbation=None, observer=None,
    ):
        return SimRuntime(
            machine,
            window_words=window_words,
            seed=seed,
            latency=latency,
            fabric=fabric,
            perturbation=perturbation,
            observer=observer,
        )

    try:
        yield THIRD_PARTY_NAME
    finally:
        registry.unregister("runtime", THIRD_PARTY_NAME)


@pytest.fixture(scope="module")
def recorded_goldens():
    return json.loads(GOLDEN_PATH.read_text())["cases"]


def _run_golden_case(name: str, runtime_name: str):
    config = golden_config(name)
    spec, is_rw = build_lock_spec(config)
    runtime = get_runtime(runtime_name).factory(
        config.machine, window_words=spec.window_words + 2, seed=config.seed
    )
    program = make_lock_program(config, spec, is_rw, spec.window_words)
    return runtime.run(program, window_init=spec.init_window)


def _assert_matches_golden(name, runtime_name, recorded):
    result = _run_golden_case(name, runtime_name)
    fingerprint = result_fingerprint(result)
    reference = recorded[name]
    for field in reference:
        assert fingerprint[field] == reference[field], (
            f"{name}: {runtime_name}: {field} diverged from the recorded "
            f"golden fingerprint"
        )


def test_all_registered_runtimes_are_enumerable(reference):
    names = runtime_names(deterministic=True)
    assert {"horizon", reference} <= set(names)
    assert names == runtime_names()


def test_unregistered_runtime_name_lists_the_registered_ones():
    with pytest.raises(registry.UnknownNameError) as exc:
        get_runtime("vector")
    assert "horizon" in str(exc.value)


@pytest.mark.parametrize("name", sorted(GOLDEN_CASES))
def test_every_registered_runtime_reproduces_goldens(name, recorded_goldens, reference):
    """Every registered runtime reproduces the P in {8, 32} goldens."""
    for runtime_name in runtime_names():
        _assert_matches_golden(name, runtime_name, recorded_goldens)


@pytest.mark.parametrize("name", sorted(GOLDEN_CASES))
def test_third_party_runtime_reproduces_goldens(
    name, third_party_runtime, recorded_goldens
):
    """A backend registered at runtime is held to the exact same contract."""
    assert third_party_runtime in runtime_names()
    _assert_matches_golden(name, third_party_runtime, recorded_goldens)


def _counter_program(lock, scratch_offset: int):
    def program(ctx):
        handle = lock.make(ctx)
        for _ in range(3):
            handle.acquire()
            ctx.accumulate(1, 0, scratch_offset)
            handle.release()
        return ctx.now()

    return program


def _counter_steps(lock, scratch_offset: int):
    """``_counter_program``'s step twin: the same requests, yielded."""

    def program(ctx):
        handle = lock.make(ctx)
        for _ in range(3):
            yield from handle.acquire_steps()
            yield (ACCUMULATE, 1, 0, scratch_offset)
            yield from handle.release_steps()
        return ctx.now()

    return program


def _session_sha(runtime_name: str, make_program=_counter_program) -> str:
    cluster = Cluster(procs=16, procs_per_node=4, runtime=runtime_name, seed=11)
    lock = cluster.lock("rma-mcs")
    session = cluster.session(lock, extra_words=2)
    result = session.run(make_program(lock, lock.window_words))
    # The shared counter lives on rank 0, one word past the lock's layout.
    assert session.window(0).read(lock.window_words) == 3 * cluster.num_processes
    return run_result_sha(result)


def test_session_round_trip_is_identical_across_runtimes(third_party_runtime, reference):
    """Cluster(runtime=...).session(...) runs bit-identically everywhere: the
    blocking program on every backend that runs one, its step twin on horizon
    and on the reference, which runs step programs only."""
    expected = _session_sha("horizon")
    assert _session_sha("horizon", _counter_steps) == expected
    assert _session_sha(reference, _counter_steps) == expected
    for runtime_name in runtime_names():
        if runtime_name in ("horizon", reference):
            continue
        assert _session_sha(runtime_name) == expected, (
            f"Cluster.session round-trip on {runtime_name!r} diverged from horizon"
        )


@pytest.mark.parametrize("runtime_name", runtime_names())
def test_raising_window_init_keeps_the_previous_windows(runtime_name):
    """Windows are installed only after ``window_init`` returned for every
    rank: a failure part-way leaves the last run's windows inspectable."""
    from repro.topology.builder import xc30_like

    runtime = get_runtime(runtime_name).factory(xc30_like(4), window_words=3)
    runtime.run(lambda ctx: None, window_init=lambda rank: {1: 10 + rank})
    before = list(runtime.windows)

    def bad_init(rank):
        if rank == 2:
            raise KeyError("bad init")
        return {1: -1}

    with pytest.raises(KeyError, match="bad init"):
        runtime.run(lambda ctx: None, window_init=bad_init)
    assert all(now is then for now, then in zip(runtime.windows, before))
    assert [runtime.window(rank).read(1) for rank in range(4)] == [10, 11, 12, 13]

    # A load the window rejects (checked per rank, after window_init) is the same.
    with pytest.raises(IndexError, match="offset 3 out of range 0..2"):
        runtime.run(lambda ctx: None, window_init=lambda rank: {rank: 1})
    assert [runtime.window(rank).read(1) for rank in range(4)] == [10, 11, 12, 13]

    result = runtime.run(lambda ctx: ctx.rank, window_init=lambda rank: {0: rank})
    assert result.returns == [0, 1, 2, 3]
    assert [runtime.window(rank).read(0) for rank in range(4)] == [0, 1, 2, 3]
