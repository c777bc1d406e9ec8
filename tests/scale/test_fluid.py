"""Tests for the fluid-flow load model and its sampled sub-stream.

The acceptance contract: the closed-form fluid profile agrees with exactly
materialized schedules across a property sweep of (rate, skew, phase shape),
the sampled cohort's percentiles land inside the fluid service model's bands,
the 10^6+ clients/s scenario resolves in seconds, and the sampled fingerprint
is one identical value across reruns and on the reference interpreter.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.bench.campaign import run_result_sha
from repro.scale.fluid import (
    FLUID_LANE,
    FLUID_MEGA,
    FLUID_PHASED,
    FLUID_SCENARIOS,
    FluidScenario,
    _cohort,
    fluid_profile,
    get_fluid_scenario,
    run_sampled,
    sampled_scenario,
    validate_fluid,
)
from repro.traffic.generators import Phase, TrafficScenario, generate_schedule

from tests.reference import ReferenceRuntime

PHASED = (
    Phase(duration_us=100.0, rate_scale=1.0, name="warm"),
    Phase(duration_us=120.0, rate_scale=2.5, name="spike"),
    Phase(duration_us=None, rate_scale=1.0, name="cooldown"),
)


def _fluid(
    clients_per_s: float,
    *,
    exponent: float = 1.0,
    phases=PHASED,
    num_locks: int = 1024,
    horizon_us: float = 1500.0,
    name: str = "fluid-test",
) -> FluidScenario:
    return FluidScenario(
        name=name,
        base=TrafficScenario(
            name=f"{name}-base",
            num_locks=num_locks,
            arrival="poisson",
            key_dist="zipf",
            zipf_exponent=exponent,
            phases=phases,
        ),
        clients_per_s=clients_per_s,
        horizon_us=horizon_us,
    )


class TestFluidProfile:
    def test_mass_conservation(self):
        profile = fluid_profile(_fluid(500_000.0))
        assert profile.total_offered == pytest.approx(
            profile.total_served + profile.final_backlog, rel=1e-9
        )

    def test_entry_share_is_a_distribution(self):
        profile = fluid_profile(_fluid(500_000.0, exponent=1.2))
        share = profile.entry_share()
        assert share.sum() == pytest.approx(1.0)
        assert share[0] == share.max()  # Zipf head is the hottest key
        folded = profile.folded_share(256)
        assert folded.shape == (256,)
        assert folded.sum() == pytest.approx(1.0)

    def test_rate_scale_multiplies_offered_load(self):
        flat = fluid_profile(
            _fluid(200_000.0, phases=(Phase(duration_us=None, rate_scale=1.0),))
        )
        spiked = fluid_profile(
            _fluid(200_000.0, phases=(Phase(duration_us=None, rate_scale=3.0),))
        )
        assert spiked.total_offered == pytest.approx(3.0 * flat.total_offered)

    def test_cs_scale_weighs_into_the_mean_service_time(self):
        base = _fluid(200_000.0, phases=(Phase(duration_us=None, cs_scale=1.0),))
        slow = _fluid(200_000.0, phases=(Phase(duration_us=None, cs_scale=2.0),))
        assert fluid_profile(slow).mean_cs_us == pytest.approx(
            2.0 * fluid_profile(base).mean_cs_us
        )

    def test_backlog_builds_only_past_saturation(self):
        # 1e5 clients/s over 1024 keys is deeply sub-critical: no backlog.
        calm = fluid_profile(_fluid(100_000.0, exponent=0.8))
        assert calm.final_backlog == pytest.approx(0.0, abs=1e-6)
        # Concentrate 5e6 clients/s on a near-degenerate key space: the hot
        # station saturates and the fluid queue must carry real backlog.
        stormy = fluid_profile(_fluid(5_000_000.0, exponent=2.5, num_locks=4))
        assert stormy.final_backlog > 0.0
        assert stormy.peak_utilization > 1.0

    def test_uniform_key_dist_spreads_evenly(self):
        fluid = FluidScenario(
            name="fluid-uniform-test",
            base=TrafficScenario(
                name="fluid-uniform-test-base", num_locks=128, key_dist="uniform"
            ),
            clients_per_s=100_000.0,
            horizon_us=500.0,
        )
        share = fluid_profile(fluid).entry_share()
        assert np.allclose(share, 1.0 / 128)


class TestPropertySweep:
    """Satellite (d): fluid vs exact across rates, skews and phase shapes."""

    # Rates stay sub-critical for the 1024-key Zipf table: past ~1e6/s at
    # high skew the hot station saturates and the p50 sojourn band no longer
    # applies (the mega scenario covers 2M/s on its flatter 2^20-key space).
    @pytest.mark.parametrize("clients_per_s", (120_000.0, 450_000.0, 1_000_000.0))
    @pytest.mark.parametrize("exponent", (0.7, 1.1))
    def test_rate_and_skew_grid_validates(self, clients_per_s, exponent):
        record = validate_fluid(_fluid(clients_per_s, exponent=exponent))
        assert record["within_tolerance"], record["checks"]
        assert record["fingerprints_identical"], record["fingerprints"]

    @pytest.mark.parametrize(
        "phases",
        (
            (Phase(duration_us=None, rate_scale=1.0, name="flat"),),
            PHASED,
            (
                Phase(duration_us=60.0, rate_scale=0.5, name="idle"),
                Phase(duration_us=80.0, rate_scale=3.0, name="burst"),
                Phase(duration_us=None, rate_scale=0.75, name="drain"),
            ),
        ),
    )
    def test_phase_shapes_validate(self, phases):
        record = validate_fluid(_fluid(300_000.0, phases=phases))
        assert record["within_tolerance"], record["checks"]

    def test_sampled_percentiles_are_ordered(self):
        record = validate_fluid(_fluid(250_000.0))
        pct = record["sampled"]["percentiles"]
        assert pct["e2e_p50_us"] <= pct["e2e_p99_us"] <= pct["e2e_p999_us"]
        assert pct["e2e_p50_us"] > 0.0


class TestSampledCohort:
    def test_cohort_rate_matches_declared_intensity(self):
        fluid = _fluid(400_000.0)
        scenario = sampled_scenario(fluid)
        expected_gap = fluid.sample_ranks * 1e6 / fluid.clients_per_s
        assert scenario.mean_gap_us == pytest.approx(expected_gap)
        assert scenario.reservoir_cap == fluid.reservoir_cap

    def test_repeat_runs_share_one_fingerprint(self):
        fluid = _fluid(250_000.0)
        first = run_sampled(fluid, seed=17)
        second = run_sampled(fluid, seed=17)
        assert first["fingerprint"] == second["fingerprint"]
        assert first["percentiles"] == second["percentiles"]

    def test_seed_moves_the_fingerprint(self):
        fluid = _fluid(250_000.0)
        a = run_sampled(fluid, seed=17)
        b = run_sampled(fluid, seed=18)
        assert a["fingerprint"] != b["fingerprint"]

    def test_reference_interpreter_gives_the_horizon_fingerprint(self):
        """``fluid-phased``'s cohort, run on the reference interpreter,
        fingerprints as ``run_sampled`` does on horizon."""
        machine, table, program = _cohort(FLUID_PHASED, 17)
        twin = ReferenceRuntime(machine, window_words=table.window_words + 2, seed=17)
        result = twin.run(program, window_init=table.init_window)
        assert run_result_sha(result) == run_sampled(FLUID_PHASED, seed=17)["fingerprint"]

    def test_fluid_lane_is_disjoint_from_the_traffic_lane(self):
        scenario = sampled_scenario(_fluid(250_000.0))
        on_lane = generate_schedule(scenario, 17, 0, 32, lane=FLUID_LANE)
        default = generate_schedule(scenario, 17, 0, 32)
        assert not np.array_equal(on_lane.arrival_us, default.arrival_us)


class TestMegaScale:
    def test_mega_profile_resolves_millions_of_requests_instantly(self):
        t0 = time.perf_counter()
        profile = fluid_profile(FLUID_MEGA)
        elapsed = time.perf_counter() - t0
        assert profile.total_offered > 2e6  # 2M clients/s x 1 simulated second
        assert profile.num_keys == 1 << 20
        assert elapsed < 10.0

    def test_mega_validates_within_seconds(self):
        t0 = time.perf_counter()
        record = validate_fluid(FLUID_MEGA)
        elapsed = time.perf_counter() - t0
        assert record["within_tolerance"], record["checks"]
        assert record["fingerprints_identical"]
        assert elapsed < 60.0


class TestCatalogueAndValidation:
    def test_builtins_are_registered(self):
        assert FLUID_PHASED.name in FLUID_SCENARIOS
        assert FLUID_MEGA.name in FLUID_SCENARIOS
        assert get_fluid_scenario("fluid-mega") is FLUID_MEGA

    def test_unknown_scenario_names_the_catalogue(self):
        with pytest.raises(KeyError, match="fluid-mega"):
            get_fluid_scenario("no-such-fluid")

    def test_rank_biased_bases_rejected(self):
        base = TrafficScenario(
            name="biased-base",
            num_locks=64,
            bias_ranks=(0, 8),
            bias_fraction=0.5,
        )
        with pytest.raises(ValueError, match="bias-free"):
            FluidScenario(
                name="bad", base=base, clients_per_s=1e5, horizon_us=100.0
            )

    def test_degenerate_intensities_rejected(self):
        base = TrafficScenario(name="ok-base", num_locks=64)
        with pytest.raises(ValueError):
            FluidScenario(name="bad", base=base, clients_per_s=0.0, horizon_us=100.0)
        with pytest.raises(ValueError):
            FluidScenario(name="bad", base=base, clients_per_s=1e5, horizon_us=0.0)
        with pytest.raises(ValueError):
            FluidScenario(
                name="bad", base=base, clients_per_s=1e5, horizon_us=100.0,
                sample_ranks=1,
            )
