"""Tests for seeded schedule perturbation (repro.rma.perturbation)."""

from __future__ import annotations

import math
import threading
from dataclasses import replace

import pytest

from repro.bench.harness import build_lock_spec, make_lock_program
from repro.bench.workloads import LockBenchConfig
from repro.rma import perturbation as perturbation_module
from repro.rma.perturbation import (
    SCHEDULE_BYTES, PerturbationModel, PerturbationSchedule, perturbation_rng, perturbation_schedule,
)
from repro.rma.runtime_base import RunObserver
from repro.rma.sim_runtime import SimRuntime
from repro.topology.builder import xc30_like
from repro.topology.machine import Machine
from repro.util.rng import rank_rng

from golden_cases import PERTURBED_CASES, golden_config, golden_perturbation, result_fingerprint
from tests.reference import ReferenceRuntime, ScalarRankPerturbation

CHAOS = dict(latency_jitter=0.3, rank_slowdown=1.0, pause_rate=0.05)


def _run_case(name: str, runtime_cls, perturbation=None, observer=None, iterations=None):
    config = golden_config(name)
    if iterations is not None:
        config = replace(config, iterations=iterations)
    spec, is_rw = build_lock_spec(config)
    runtime = runtime_cls(
        config.machine,
        window_words=spec.window_words + 2,
        seed=config.seed,
        perturbation=perturbation,
        observer=observer,
    )
    program = make_lock_program(config, spec, is_rw, spec.window_words)
    return runtime.run(program, window_init=spec.init_window)


class TestModelValidation:
    def test_rejects_negative_magnitudes(self):
        with pytest.raises(ValueError):
            PerturbationModel(latency_jitter=-0.1)
        with pytest.raises(ValueError):
            PerturbationModel(rank_slowdown=-1)
        with pytest.raises(ValueError):
            PerturbationModel(pause_rate=1.5)
        with pytest.raises(ValueError):
            PerturbationModel(pause_us=(5.0, 1.0))

    def test_rank_multipliers_all_one_without_slowdown(self):
        assert PerturbationModel(seed=4).rank_multipliers(8) == (1.0,) * 8

    def test_rank_multipliers_deterministic_and_prefix_stable(self):
        model = PerturbationModel(seed=4, rank_slowdown=1.0)
        first = model.rank_multipliers(8)
        assert first == model.rank_multipliers(8)
        # Multipliers are per-rank streams: a bigger run extends, not reshuffles.
        assert model.rank_multipliers(16)[:8] == first
        assert all(1.0 <= m <= 2.0 for m in first)

    @pytest.mark.parametrize("field", ["latency_jitter", "rank_slowdown"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_rejects_non_finite_magnitudes(self, field, value):
        """A NaN fails every ``> 0`` test and would run unperturbed; an inf
        would put infinite costs on the heap."""
        with pytest.raises(ValueError, match=field):
            PerturbationModel(**{field: value})

    @pytest.mark.parametrize("bounds", [(5.0, math.inf), (math.nan, 40.0), (5.0, math.nan)])
    def test_rejects_non_finite_pause_bounds(self, bounds):
        with pytest.raises(ValueError, match="pause_us"):
            PerturbationModel(pause_rate=0.1, pause_us=bounds)

    def test_rejects_nan_pause_rate(self):
        with pytest.raises(ValueError, match="pause_rate"):
            PerturbationModel(pause_rate=math.nan)

    def test_perturbation_stream_disjoint_from_workload_stream(self):
        seed = 11
        a = perturbation_rng(seed, 3).random(4).tolist()
        b = rank_rng(seed, 3).random(4).tolist()
        assert a != b


class TestPerturbedRuns:
    def test_same_seed_is_bit_identical(self):
        model = PerturbationModel(seed=7, **CHAOS)
        a = result_fingerprint(_run_case("rma-rw-ecsb-p8", SimRuntime, model))
        b = result_fingerprint(_run_case("rma-rw-ecsb-p8", SimRuntime, model))
        assert a == b

    def test_same_runtime_instance_replays_identically(self):
        """Perturbation streams rebuild per run: re-entry resets them."""
        config = golden_config("rma-mcs-ecsb-p8")
        spec, is_rw = build_lock_spec(config)
        runtime = SimRuntime(
            config.machine,
            window_words=spec.window_words + 2,
            seed=config.seed,
            perturbation=PerturbationModel(seed=9, **CHAOS),
        )
        program = make_lock_program(config, spec, is_rw, spec.window_words)
        first = result_fingerprint(runtime.run(program, window_init=spec.init_window))
        second = result_fingerprint(runtime.run(program, window_init=spec.init_window))
        assert first == second

    def test_different_seeds_explore_different_schedules(self):
        a = result_fingerprint(
            _run_case("rma-rw-ecsb-p8", SimRuntime, PerturbationModel(seed=1, **CHAOS))
        )
        b = result_fingerprint(
            _run_case("rma-rw-ecsb-p8", SimRuntime, PerturbationModel(seed=2, **CHAOS))
        )
        assert a != b

    def test_perturbed_run_differs_from_unperturbed(self):
        base = result_fingerprint(_run_case("rma-rw-ecsb-p8", SimRuntime))
        chaos = result_fingerprint(
            _run_case("rma-rw-ecsb-p8", SimRuntime, PerturbationModel(seed=1, **CHAOS))
        )
        assert base != chaos

    @pytest.mark.parametrize("name", ["rma-mcs-ecsb-p8", "rma-rw-ecsb-p8"])
    def test_horizon_and_reference_agree_on_perturbed_schedules(self, name):
        """The perturbation contract spans schedulers, exactly like the goldens."""
        model = PerturbationModel(seed=13, **CHAOS)
        horizon = result_fingerprint(_run_case(name, SimRuntime, model))
        assert horizon == result_fingerprint(_run_case(name, ReferenceRuntime, model))

    def test_null_model_is_bit_identical_to_no_model(self):
        """An all-zero model must not shift the golden fingerprint path."""
        base = result_fingerprint(_run_case("rma-rw-ecsb-p8", SimRuntime))
        null = result_fingerprint(
            _run_case("rma-rw-ecsb-p8", SimRuntime, PerturbationModel(seed=99))
        )
        assert base == null

    def test_jitter_only_inflates_costs(self):
        """Jitter draws from [0, j]: virtual time never shrinks."""
        machine = Machine.cluster(nodes=2, procs_per_node=2)

        def program(ctx):
            for _ in range(5):
                ctx.get((ctx.rank + 1) % ctx.nranks, 0)
                ctx.flush((ctx.rank + 1) % ctx.nranks)

        base = SimRuntime(machine, window_words=2).run(program).total_time_us
        jittered = SimRuntime(
            machine,
            window_words=2,
            perturbation=PerturbationModel(seed=3, latency_jitter=0.5),
        ).run(program).total_time_us
        assert jittered >= base


BLOCK_DRAW_MODELS = {
    "jitter-only": dict(latency_jitter=0.3),
    "pauses-only": dict(pause_rate=0.02),
    "both": dict(latency_jitter=0.3, pause_rate=0.02),
    "pause-lo-eq-hi": dict(latency_jitter=0.2, pause_rate=0.05, pause_us=(7.0, 7.0)),
}


def _cached_blocks(schedule, rank):
    """The factor blocks ``schedule`` has cached for ``rank``."""
    stream = schedule._cache._streams.get(rank)
    return stream.blocks if stream is not None else []


def _factor_costs(schedule, rank, costs):
    factor = schedule.factors(rank)
    slow = schedule.slowdown[rank]
    return [cost * slow * factor() + factor() for cost in costs]


@pytest.mark.parametrize("kind", sorted(BLOCK_DRAW_MODELS))
class TestFactorStreams:
    """Factor streams are the scalar reference's draws, value for value."""

    def test_factor_stream_equals_scalar_reference(self, kind):
        """20 000 operations: past many blocks and past the schedule's
        cached prefix, which the first run fills and the second reads."""
        model = PerturbationModel(seed=11, rank_slowdown=0.5, **BLOCK_DRAW_MODELS[kind])
        schedule = PerturbationSchedule(model, 4)
        scalar = ScalarRankPerturbation(model, 3)
        costs = [1.0 + 0.001 * (i % 7) for i in range(20_000)]
        expected = [scalar.perturb(c * scalar.slowdown) for c in costs]
        assert _factor_costs(schedule, 3, costs) == expected
        cached = sum(len(block) for block in _cached_blocks(schedule, 3)) // 2
        assert 0 < cached < len(costs)  # the run went past the cached prefix
        assert 0 < schedule.nbytes <= SCHEDULE_BYTES
        assert _factor_costs(schedule, 3, costs) == expected
        if model.pause_rate:
            assert sum(1 for c, p in zip(costs, expected) if p > c * scalar.slowdown + 5.0) > 50

    def test_horizon_equals_the_scalar_reference(self, kind):
        model = PerturbationModel(seed=5, rank_slowdown=0.5, **BLOCK_DRAW_MODELS[kind])
        horizon = result_fingerprint(_run_case("rma-rw-wcsb-p32", SimRuntime, model))
        assert horizon == result_fingerprint(_run_case("rma-rw-wcsb-p32", ReferenceRuntime, model))
        assert horizon != result_fingerprint(_run_case("rma-rw-wcsb-p32", SimRuntime))


def test_slowdown_only_streams_are_neutral():
    schedule = PerturbationSchedule(PerturbationModel(seed=4, rank_slowdown=1.0), 8)
    assert schedule.slowdown == PerturbationModel(seed=4, rank_slowdown=1.0).rank_multipliers(8)
    factor = schedule.factors(2)
    assert [factor() for _ in range(6)] == [1.0, 0.0] * 3
    assert schedule.nbytes == 0


CACHE_MODEL = PerturbationModel(seed=17, latency_jitter=0.3, rank_slowdown=1.0, pause_rate=0.02)
CACHE_CASE = "rma-rw-wcsb-p32"


class _EvictAt(RunObserver):
    """An observer that empties the schedule cache at the ``at``-th operation."""

    def __init__(self, at):
        self.at, self.seen = at, 0

    def on_request(self, *args):
        self.seen += 1
        if self.seen == self.at:
            perturbation_module._cached_schedule.cache_clear()


class TestScheduleCache:
    """Which blocks a schedule has cached never reaches a fingerprint."""

    @pytest.fixture(autouse=True)
    def empty_cache(self):
        perturbation_module._cached_schedule.cache_clear()
        yield
        perturbation_module._cached_schedule.cache_clear()

    @pytest.fixture
    def cold(self):
        """The point's fingerprint on an empty cache."""
        fingerprint = result_fingerprint(_run_case(CACHE_CASE, SimRuntime, CACHE_MODEL))
        perturbation_module._cached_schedule.cache_clear()
        return fingerprint

    def test_after_a_longer_run_extended_the_streams(self, cold):
        _run_case(CACHE_CASE, SimRuntime, CACHE_MODEL, iterations=25)
        schedule = perturbation_schedule(CACHE_MODEL, 32)
        assert max(len(_cached_blocks(schedule, rank)) for rank in range(32)) > 1
        assert result_fingerprint(_run_case(CACHE_CASE, SimRuntime, CACHE_MODEL)) == cold

    def test_after_eviction_mid_run_and_mid_sweep(self, cold):
        evict = _EvictAt(1000)
        assert result_fingerprint(_run_case(CACHE_CASE, SimRuntime, CACHE_MODEL, observer=evict)) == cold
        assert evict.seen > 1000
        for seed in range(100, 120):  # more models than the cache holds
            perturbation_schedule(replace(CACHE_MODEL, seed=seed), 32).factors(0)()
        assert perturbation_schedule(CACHE_MODEL, 32).nbytes == 0
        assert result_fingerprint(_run_case(CACHE_CASE, SimRuntime, CACHE_MODEL)) == cold

    def test_two_threads_running_it_concurrently(self, cold):
        start = threading.Barrier(2)
        fingerprints = []

        def run():
            start.wait()
            fingerprints.append(result_fingerprint(_run_case(CACHE_CASE, SimRuntime, CACHE_MODEL)))

        threads = [threading.Thread(target=run) for _ in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert fingerprints == [cold, cold]

    @pytest.mark.parametrize("model", [None, PerturbationModel(seed=99)], ids=["none", "all-zero"])
    def test_unperturbed_runs_create_no_entry(self, model):
        _run_case(CACHE_CASE, SimRuntime, model)
        assert perturbation_schedule(model, 32) is None
        assert perturbation_module._cached_schedule.cache_info().currsize == 0

    def test_a_long_run_stays_within_the_byte_budget(self):
        config = LockBenchConfig(
            machine=xc30_like(64, procs_per_node=8), scheme="rma-rw", benchmark="wcsb", iterations=300, fw=0.2,
        )
        spec, is_rw = build_lock_spec(config)
        runtime = SimRuntime(config.machine, window_words=spec.window_words + 2, perturbation=CACHE_MODEL)
        runtime.run(make_lock_program(config, spec, is_rw, spec.window_words), window_init=spec.init_window)
        schedule = perturbation_schedule(CACHE_MODEL, 64)
        assert perturbation_module._cached_schedule.cache_info().currsize == 1
        assert 0 < schedule.nbytes <= SCHEDULE_BYTES


def test_the_p64_golden_outgrows_its_cached_prefix():
    """``golden/perturbed.json``'s P=64 case pins factors parsed past the
    schedule's byte budget, on every rank."""
    perturbation_module._cached_schedule.cache_clear()
    name = "rma-rw-wcsb-p64-both"
    config, model = golden_config(name, PERTURBED_CASES), golden_perturbation(name, PERTURBED_CASES)
    spec, is_rw = build_lock_spec(config)
    runtime = SimRuntime(config.machine, window_words=spec.window_words + 2, seed=config.seed, perturbation=model)
    result = runtime.run(make_lock_program(config, spec, is_rw, spec.window_words), window_init=spec.init_window)
    schedule = perturbation_schedule(model, 64)
    assert schedule.nbytes <= SCHEDULE_BYTES
    for rank, counts in enumerate(result.per_rank_op_counts):
        assert sum(counts.values()) > sum(len(block) for block in _cached_blocks(schedule, rank)) // 2
    perturbation_module._cached_schedule.cache_clear()
