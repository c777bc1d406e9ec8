"""Tests for seeded schedule perturbation (repro.rma.perturbation)."""

from __future__ import annotations

import pytest

from repro.bench.harness import build_lock_spec, make_lock_program
from repro.rma.baseline_runtime import BaselineSimRuntime
from repro.rma.latency import LatencyModel, cost_table
from repro.rma import perturbation as perturbation_module
from repro.rma.perturbation import PerturbationModel, RankPerturbation, perturbation_rng
from repro.rma.sim_runtime import SimRuntime
from repro.topology.machine import Machine
from repro.util.rng import rank_rng

from golden_cases import golden_config, result_fingerprint

CHAOS = dict(latency_jitter=0.3, rank_slowdown=1.0, pause_rate=0.05)


def _run_case(name: str, runtime_cls, perturbation=None, observer=None):
    config = golden_config(name)
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

    def test_null_model_detection(self):
        assert PerturbationModel().is_null
        assert not PerturbationModel(latency_jitter=0.1).is_null

    def test_rank_multipliers_all_one_without_slowdown(self):
        assert PerturbationModel(seed=4).rank_multipliers(8) == (1.0,) * 8

    def test_rank_multipliers_deterministic_and_prefix_stable(self):
        model = PerturbationModel(seed=4, rank_slowdown=1.0)
        first = model.rank_multipliers(8)
        assert first == model.rank_multipliers(8)
        # Multipliers are per-rank streams: a bigger run extends, not reshuffles.
        assert model.rank_multipliers(16)[:8] == first
        assert all(1.0 <= m <= 2.0 for m in first)

    def test_rank_states_none_without_per_op_effects(self):
        assert PerturbationModel(rank_slowdown=2.0).rank_states(4) is None
        assert PerturbationModel(latency_jitter=0.1).rank_states(4) is not None

    def test_perturbation_stream_disjoint_from_workload_stream(self):
        seed = 11
        a = perturbation_rng(seed, 3).random(4).tolist()
        b = rank_rng(seed, 3).random(4).tolist()
        assert a != b

    def test_describe_round_trips_to_json_primitives(self):
        import json

        model = PerturbationModel(seed=2, latency_jitter=0.25, pause_rate=0.01)
        assert json.loads(json.dumps(model.describe())) == model.describe()


class TestCostTableScaling:
    def test_scaled_by_origin_matches_inline_multiply(self):
        machine = Machine.cluster(nodes=2, procs_per_node=2)
        model = LatencyModel.cray_xc30()
        table = cost_table(model, machine)
        mults = (1.0, 1.5, 2.0, 1.25)
        scaled = table.scaled_by_origin(mults)
        p = machine.num_processes
        for ci, row in enumerate(table.cost):
            for i, value in enumerate(row):
                assert scaled.cost[ci][i] == value * mults[i // p]
        # Occupancy is target-side service time: unscaled, same object.
        assert scaled.occupancy is table.occupancy

    def test_all_ones_returns_same_table(self):
        machine = Machine.cluster(nodes=2, procs_per_node=2)
        table = cost_table(LatencyModel.cray_xc30(), machine)
        assert table.scaled_by_origin((1.0,) * 4) is table

    def test_wrong_length_rejected(self):
        machine = Machine.cluster(nodes=2, procs_per_node=2)
        table = cost_table(LatencyModel.cray_xc30(), machine)
        with pytest.raises(ValueError):
            table.scaled_by_origin((1.0, 2.0))


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
    def test_both_schedulers_agree_on_perturbed_schedules(self, name):
        """The perturbation contract spans schedulers, exactly like the goldens."""
        model = PerturbationModel(seed=13, **CHAOS)
        horizon = result_fingerprint(_run_case(name, SimRuntime, model))
        baseline = result_fingerprint(_run_case(name, BaselineSimRuntime, model))
        assert horizon == baseline

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


class ScalarRankPerturbation:
    """The reference: one scalar ``Generator`` call per uniform, as drawn
    before :class:`RankPerturbation` started taking them in blocks."""

    def __init__(self, model, rank):
        self._rng = perturbation_rng(model.seed, rank)
        self._jitter = model.latency_jitter
        self._pause_rate = model.pause_rate
        self._pause_lo, self._pause_hi = model.pause_us

    def perturb(self, cost):
        rng = self._rng
        if self._jitter > 0.0:
            cost = cost * (1.0 + self._jitter * float(rng.random()))
        if self._pause_rate > 0.0 and float(rng.random()) < self._pause_rate:
            cost = cost + float(rng.uniform(self._pause_lo, self._pause_hi))
        return cost


BLOCK_DRAW_MODELS = {
    "jitter-only": dict(latency_jitter=0.3),
    "pauses-only": dict(pause_rate=0.02),
    "both": dict(latency_jitter=0.3, pause_rate=0.02),
    "pause-lo-eq-hi": dict(latency_jitter=0.2, pause_rate=0.05, pause_us=(7.0, 7.0)),
}


@pytest.mark.parametrize("kind", sorted(BLOCK_DRAW_MODELS))
class TestBlockDraws:
    """Uniforms drawn in blocks are the scalar stream, value for value."""

    def test_block_stream_equals_scalar_reference(self, kind):
        model = PerturbationModel(seed=11, **BLOCK_DRAW_MODELS[kind])
        block, scalar = RankPerturbation(model, 3), ScalarRankPerturbation(model, 3)
        costs = [1.0 + 0.001 * (i % 7) for i in range(10_000)]
        perturbed = [block.perturb(c) for c in costs]
        assert perturbed == [scalar.perturb(c) for c in costs]
        if model.pause_rate:
            assert sum(1 for c, p in zip(costs, perturbed) if p > c + 5.0) > 50

    @pytest.mark.parametrize("runtime_cls", [SimRuntime, BaselineSimRuntime], ids=["horizon", "baseline"])
    def test_runs_are_unchanged_by_block_draws(self, kind, runtime_cls, monkeypatch):
        model = PerturbationModel(seed=5, rank_slowdown=0.5, **BLOCK_DRAW_MODELS[kind])
        block = result_fingerprint(_run_case("rma-rw-wcsb-p32", runtime_cls, model))
        monkeypatch.setattr(perturbation_module, "RankPerturbation", ScalarRankPerturbation)
        scalar = result_fingerprint(_run_case("rma-rw-wcsb-p32", runtime_cls, model))
        assert block == scalar
        assert block != result_fingerprint(_run_case("rma-rw-wcsb-p32", runtime_cls))
