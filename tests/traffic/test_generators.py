"""Property tests for the traffic generators.

The satellite contract of the traffic engine: schedules are bit-reproducible
per seed, phases apply at their boundaries, and the Zipf sampler's head
matches its analytic frequencies.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.traffic.generators import (
    Phase,
    TrafficScenario,
    generate_schedule,
    traffic_rng,
    zipf_cdf,
    zipf_head_frequencies,
)


def _schedules_equal(a, b) -> bool:
    return (
        np.array_equal(a.arrival_us, b.arrival_us)
        and np.array_equal(a.lock_index, b.lock_index)
        and np.array_equal(a.is_write, b.is_write)
        and np.array_equal(a.cs_us, b.cs_us)
        and np.array_equal(a.think_us, b.think_us)
        and np.array_equal(a.phase, b.phase)
    )


class TestDeterminism:
    @pytest.mark.parametrize("arrival", ["poisson", "uniform", "burst"])
    def test_same_seed_same_schedule_bit_for_bit(self, arrival):
        scenario = TrafficScenario(name="t", arrival=arrival, num_locks=64)
        first = generate_schedule(scenario, seed=7, rank=3, requests=200, fw_default=0.2)
        second = generate_schedule(scenario, seed=7, rank=3, requests=200, fw_default=0.2)
        assert _schedules_equal(first, second)

    def test_different_seeds_and_ranks_differ(self):
        scenario = TrafficScenario(name="t", num_locks=64)
        base = generate_schedule(scenario, seed=7, rank=0, requests=100)
        other_seed = generate_schedule(scenario, seed=8, rank=0, requests=100)
        other_rank = generate_schedule(scenario, seed=7, rank=1, requests=100)
        assert not np.array_equal(base.arrival_us, other_seed.arrival_us)
        assert not np.array_equal(base.arrival_us, other_rank.arrival_us)

    def test_traffic_stream_disjoint_from_workload_stream(self):
        from repro.util.rng import rank_rng

        workload = rank_rng(5, 0).random(64)
        traffic = traffic_rng(5, 0).random(64)
        assert not np.array_equal(workload, traffic)

    def test_prefix_stability(self):
        # A longer schedule extends a shorter one: the per-request draw
        # count is fixed, so request i never depends on the horizon.
        scenario = TrafficScenario(name="t", num_locks=32)
        short = generate_schedule(scenario, seed=3, rank=2, requests=50)
        long = generate_schedule(scenario, seed=3, rank=2, requests=120)
        assert np.array_equal(short.arrival_us, long.arrival_us[:50])
        assert np.array_equal(short.lock_index, long.lock_index[:50])


class TestArrivals:
    @pytest.mark.parametrize("arrival", ["poisson", "uniform", "burst"])
    def test_arrivals_positive_and_monotonic(self, arrival):
        scenario = TrafficScenario(name="t", arrival=arrival, num_locks=16)
        schedule = generate_schedule(scenario, seed=1, rank=0, requests=300)
        arrivals = schedule.arrival_us
        assert np.all(arrivals > 0)
        assert np.all(np.diff(arrivals) >= 0)

    def test_mean_gap_tracks_configuration(self):
        fast = TrafficScenario(name="t", mean_gap_us=2.0, num_locks=16)
        slow = TrafficScenario(name="t", mean_gap_us=20.0, num_locks=16)
        n = 4000
        fast_span = generate_schedule(fast, 1, 0, n).arrival_us[-1]
        slow_span = generate_schedule(slow, 1, 0, n).arrival_us[-1]
        assert slow_span / fast_span == pytest.approx(10.0, rel=0.15)


class TestZipf:
    def test_cdf_shape(self):
        cdf = zipf_cdf(1024, 1.0)
        assert cdf.shape == (1024,)
        assert cdf[-1] == 1.0
        assert np.all(np.diff(cdf) > 0)

    def test_sampler_matches_analytic_head_frequencies(self):
        scenario = TrafficScenario(name="t", num_locks=1024, zipf_exponent=1.0)
        n = 60_000
        schedule = generate_schedule(scenario, seed=9, rank=0, requests=n)
        counts = np.bincount(schedule.lock_index, minlength=1024)
        empirical = counts / n
        analytic = zipf_head_frequencies(1024, 1.0, count=3)
        for i in range(3):
            assert empirical[i] == pytest.approx(analytic[i], rel=0.1)

    def test_uniform_keys_cover_the_table(self):
        scenario = TrafficScenario(name="t", num_locks=64, key_dist="uniform")
        schedule = generate_schedule(scenario, seed=2, rank=0, requests=6000)
        counts = np.bincount(schedule.lock_index, minlength=64)
        assert np.all(counts > 0)
        assert counts.max() / counts.min() < 3.0

    def test_cdf_is_memoized_and_shared(self):
        # Large tables (the fluid scenarios go to 2^20 keys) make the cdf a
        # one-time cost: repeat calls must hand back the same frozen array.
        a = zipf_cdf(1 << 16, 1.1)
        b = zipf_cdf(1 << 16, 1.1)
        assert a is b
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            a[0] = 0.5  # shared state must be immutable
        assert zipf_cdf(1 << 16, 1.0) is not a  # distinct exponent, distinct entry

    @pytest.mark.parametrize("num_locks, exponent", [(0, 1.0), (-3, 1.0), (5, -1.0)])
    def test_head_frequencies_refuse_what_the_cdf_refuses(self, num_locks, exponent):
        with pytest.raises(ValueError) as refused_by_cdf:
            zipf_cdf(num_locks, exponent)
        with pytest.raises(ValueError) as refused_by_head:
            zipf_head_frequencies(num_locks, exponent)
        assert str(refused_by_head.value) == str(refused_by_cdf.value)

    def test_memoized_cdf_feeds_every_rank_the_same_distribution(self):
        scenario = TrafficScenario(name="t", num_locks=512, zipf_exponent=1.2)
        first = generate_schedule(scenario, seed=3, rank=0, requests=400)
        again = generate_schedule(scenario, seed=3, rank=0, requests=400)
        assert np.array_equal(first.lock_index, again.lock_index)


class TestPhases:
    def _phased(self) -> TrafficScenario:
        return TrafficScenario(
            name="t",
            num_locks=64,
            mean_gap_us=4.0,
            zipf_exponent=0.5,
            fw=0.0,
            phases=(
                Phase(duration_us=200.0, rate_scale=1.0, name="warm"),
                Phase(duration_us=200.0, rate_scale=4.0, fw=1.0, zipf_exponent=2.5, name="spike"),
                Phase(duration_us=None, rate_scale=1.0, name="cool"),
            ),
        )

    def test_phase_ids_monotonic_and_complete(self):
        schedule = generate_schedule(self._phased(), seed=4, rank=0, requests=600)
        assert np.all(np.diff(schedule.phase) >= 0)
        assert set(np.unique(schedule.phase)) == {0, 1, 2}

    def test_spike_phase_is_denser_and_write_heavy(self):
        schedule = generate_schedule(self._phased(), seed=4, rank=0, requests=600)
        warm = schedule.phase == 0
        spike = schedule.phase == 1
        assert spike.sum() > 2 * warm.sum()  # 4x rate over equal durations
        assert not schedule.is_write[warm].any()  # fw=0 outside the spike
        assert schedule.is_write[spike].all()  # fw=1 inside it
        # The spike's hotter skew concentrates keys on the head.
        assert schedule.lock_index[spike].mean() < schedule.lock_index[warm].mean()

    def test_non_final_open_phase_rejected(self):
        with pytest.raises(ValueError, match="final phase"):
            TrafficScenario(
                name="t",
                phases=(Phase(duration_us=None), Phase(duration_us=10.0)),
            )


def _registered_traffic_scenarios():
    import repro.scale  # noqa: F401 - registers the re-homing and elastic scenarios
    from repro.traffic.scenarios import _SCENARIOS

    return list(_SCENARIOS)


def _registered_scenarios():
    import repro.scale  # noqa: F401 - registers the re-homing and elastic scenarios
    from repro.scale.fluid import FLUID_SCENARIOS
    from repro.traffic.scenarios import _SCENARIOS

    return [*_SCENARIOS.values(), *(fluid.base for fluid in FLUID_SCENARIOS.values())]


_OVERRIDES = (
    Phase(duration_us=30.0, rate_scale=1.0, name="a"),
    Phase(duration_us=25.0, rate_scale=3.0, zipf_exponent=1.7, fw=0.9, cs_scale=2.5, name="b"),
    Phase(duration_us=40.0, rate_scale=0.5, zipf_exponent=0.0, cs_scale=3, name="c"),
    Phase(duration_us=None, rate_scale=2.0, fw=0.0, cs_scale=0.0, name="d"),
)

#: Synthetic shapes the registered catalogue does not reach, one knob each.
_SYNTHETIC = {
    "uniform-arrivals": TrafficScenario(name="s", arrival="uniform", num_locks=64),
    "burst-arrivals": TrafficScenario(name="s", arrival="burst", burst_size=5, num_locks=64),
    "burst-of-one": TrafficScenario(name="s", arrival="burst", burst_size=1, num_locks=64),
    "uniform-keys": TrafficScenario(name="s", key_dist="uniform", num_locks=100),
    "bias-0.3": TrafficScenario(
        name="s", num_locks=64, bias_ranks=(0, 2), bias_fraction=0.3, bias_key=9
    ),
    "bias-1.0": TrafficScenario(
        name="s", num_locks=64, bias_ranks=(1, 3), bias_fraction=1.0, bias_key=5
    ),
    "bias-uniform-keys": TrafficScenario(
        name="s", key_dist="uniform", num_locks=64, bias_ranks=(0, 1), bias_fraction=0.5
    ),
    "think-time": TrafficScenario(name="s", num_locks=64, think_us=(0.5, 2.0)),
    "phase-overrides": TrafficScenario(name="s", num_locks=256, fw=0.2, phases=_OVERRIDES),
    "phase-overrides-uniform": TrafficScenario(
        name="s", arrival="uniform", key_dist="uniform", num_locks=256, phases=_OVERRIDES
    ),
    "2^20-keys": TrafficScenario(name="s", num_locks=1 << 20, zipf_exponent=1.05),
    "one-lock": TrafficScenario(name="s", num_locks=1),
}


def _assert_byte_identical(new, reference):
    for name in ("arrival_us", "lock_index", "is_write", "cs_us", "think_us", "phase"):
        a, b = getattr(new, name), getattr(reference, name)
        assert (a.dtype, a.shape) == (b.dtype, b.shape), name
        assert a.tobytes() == b.tobytes(), name
    assert (new.num_locks, new.num_phases) == (reference.num_locks, reference.num_phases)


class TestMatchesTheReferenceGenerator:
    """``generate_schedule`` returns what the per-request numpy generator it
    replaced returns (``schedule_reference.py``), byte for byte and dtype for
    dtype, on all six arrays."""

    @pytest.mark.parametrize("scenario", _registered_scenarios(), ids=lambda s: s.name)
    def test_every_registered_scenario(self, scenario):
        from schedule_reference import reference_schedule

        for seed, rank, fw_default in ((1, 0, 0.0), (702, 3, 0.1), (9, 63, 0.5)):
            args = (scenario, seed, rank, 48, fw_default)
            _assert_byte_identical(generate_schedule(*args), reference_schedule(*args))

    @pytest.mark.parametrize("requests", [0, 1, 2, 97])
    @pytest.mark.parametrize("fw_default", [0.0, 0.05, 0.5, 1.0])
    @pytest.mark.parametrize("shape", sorted(_SYNTHETIC))
    def test_synthetic_scenarios(self, shape, fw_default, requests):
        from schedule_reference import reference_schedule

        for rank in range(3):
            args = (_SYNTHETIC[shape], 11, rank, requests, fw_default)
            _assert_byte_identical(generate_schedule(*args), reference_schedule(*args))

    @pytest.mark.parametrize("lane", [0, 0xF1, None])
    def test_a_lane_override(self, lane):
        from schedule_reference import reference_schedule

        scenario = _SYNTHETIC["phase-overrides"]
        _assert_byte_identical(
            generate_schedule(scenario, 5, 2, 80, 0.3, lane=lane),
            reference_schedule(scenario, 5, 2, 80, 0.3, lane=lane),
        )


_COLUMNS = ("arrival_us", "lock_index", "is_write", "cs_us", "think_us", "phase")


class TestScheduleOncePerProcess:
    """A schedule is drawn once per process and shared: what the readers
    share is the drawn schedule, no reader can change it, and the shared
    schedules stay within their request budget."""

    P = 64

    @pytest.mark.parametrize("name", sorted(_registered_traffic_scenarios()))
    def test_a_shared_schedule_is_the_drawn_schedule(self, name):
        from schedule_reference import reference_schedule

        from repro.traffic.scenarios import get_scenario

        scenario = get_scenario(name)
        for seed in (1, 702):
            for rank in (0, 1, self.P - 1):
                args = (scenario, seed, rank, 48, 0.1)
                shared = generate_schedule(*args)
                assert generate_schedule(*args) is shared
                reference = reference_schedule(*args)
                _assert_byte_identical(shared, reference)
                assert shared.columns() == tuple(
                    tuple(getattr(reference, column).tolist()) for column in _COLUMNS
                )

    def test_a_shared_schedule_cannot_be_written(self):
        schedule = generate_schedule(TrafficScenario(name="ro", num_locks=64), 3, 1, 16)
        for position, column in enumerate(_COLUMNS):
            array = getattr(schedule, column)
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[0] = array[1]  # shared state must be immutable
            with pytest.raises(TypeError):
                schedule.columns()[position][0] = 0
        for attribute in (*_COLUMNS, "num_locks", "num_phases"):
            with pytest.raises(AttributeError):
                setattr(schedule, attribute, 0)

    def test_threads_sharing_the_cache_lose_no_update(self):
        import sys
        import threading

        from repro.traffic.generators import _draw_schedule, _ScheduleCache

        cache = _ScheduleCache(budget=100)
        scenario = TrafficScenario(name="threads", num_locks=64)
        keys = [(scenario, 9, rank, 10 + rank, 0.2, None) for rank in range(16)]
        expected = {key: _draw_schedule(*key) for key in keys}
        mismatches = []

        def hammer(offset):
            for i in range(200):
                key = keys[(offset + 7 * i) % len(keys)]
                got = cache.get(key, _draw_schedule)
                if got.columns() != expected[key].columns():
                    mismatches.append(key)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=hammer, args=(n,)) for n in range(6)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not mismatches
        assert cache.requests == sum(len(s) for s in cache._entries.values())
        assert cache.requests <= cache.budget

    def test_an_unhashable_scenario_is_drawn_afresh(self):
        from schedule_reference import reference_schedule

        unhashable = TrafficScenario(name="list-bounds", num_locks=64, cs_us=[0.4, 1.2])
        first = generate_schedule(unhashable, 3, 1, 16)
        assert generate_schedule(unhashable, 3, 1, 16) is not first
        _assert_byte_identical(first, reference_schedule(unhashable, 3, 1, 16))

    def test_the_shared_schedules_stay_within_their_budget(self):
        from repro.traffic.generators import _SCHEDULES

        scenario = TrafficScenario(name="budget", num_locks=64)
        per_schedule = _SCHEDULES.budget // 8 + 1
        drawn = [generate_schedule(scenario, 5, rank, per_schedule) for rank in range(9)]
        assert _SCHEDULES.requests <= _SCHEDULES.budget
        assert _SCHEDULES.requests == sum(len(s) for s in _SCHEDULES._entries.values())
        # Least recently used first out: the last one drawn is still shared,
        # the first one is drawn afresh (and equal).
        assert generate_schedule(scenario, 5, 8, per_schedule) is drawn[8]
        again = generate_schedule(scenario, 5, 0, per_schedule)
        assert again is not drawn[0]
        _assert_byte_identical(again, drawn[0])

    def test_a_schedule_longer_than_the_budget_is_not_held(self):
        from repro.traffic.generators import _draw_schedule, _ScheduleCache

        cache = _ScheduleCache(budget=32)
        scenario = TrafficScenario(name="long", num_locks=64)
        held = cache.get((scenario, 1, 0, 20, 0.0, None), _draw_schedule)
        long = cache.get((scenario, 1, 1, 33, 0.0, None), _draw_schedule)
        assert len(long) == 33
        assert list(cache._entries.values()) == [held] and cache.requests == 20


class TestValidation:
    def test_bad_arrival_kind(self):
        with pytest.raises(ValueError, match="unknown arrival"):
            TrafficScenario(name="t", arrival="diurnal")

    def test_bad_key_dist(self):
        with pytest.raises(ValueError, match="unknown key_dist"):
            TrafficScenario(name="t", key_dist="pareto")

    def test_bad_bounds(self):
        with pytest.raises(ValueError):
            TrafficScenario(name="t", cs_us=(2.0, 1.0))
        with pytest.raises(ValueError):
            TrafficScenario(name="t", mean_gap_us=0.0)
        with pytest.raises(ValueError):
            TrafficScenario(name="t", num_locks=0)
        with pytest.raises(ValueError):
            generate_schedule(TrafficScenario(name="t"), seed=1, rank=-1, requests=1)
        with pytest.raises(ValueError, match="non-negative"):
            generate_schedule(TrafficScenario(name="t"), seed=1, rank=0, requests=-1)
