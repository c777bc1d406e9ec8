"""Tests for the tail-latency accounting layer."""

from __future__ import annotations

import numpy as np
import pytest

from repro.traffic.accounting import (
    LatencyReservoir,
    aggregate_traffic,
    nearest_rank_percentiles,
)


class TestNearestRank:
    def test_known_values(self):
        samples = list(range(1, 101))  # 1..100
        pct = nearest_rank_percentiles(samples)
        assert pct["p50"] == 50
        assert pct["p90"] == 90
        assert pct["p99"] == 99
        assert pct["p999"] == 100

    def test_empty_is_zero(self):
        assert nearest_rank_percentiles([]) == {"p50": 0.0, "p90": 0.0, "p99": 0.0, "p999": 0.0}

    def test_single_sample(self):
        pct = nearest_rank_percentiles([7.5])
        assert all(v == 7.5 for v in pct.values())


class TestReservoir:
    def test_order_independence(self):
        values = list(np.random.default_rng(1).random(5000))
        a = LatencyReservoir()
        a.add_many(values)
        b = LatencyReservoir()
        b.add_many(list(reversed(values)))
        assert a.percentiles() == b.percentiles()

    def test_decimation_bounds_memory_and_keeps_the_tail(self):
        reservoir = LatencyReservoir(cap=256)
        rng = np.random.default_rng(2)
        for _ in range(10):
            reservoir.add_many(rng.exponential(1.0, size=500))
        reservoir.add_many([1e6])  # the extreme outlier must survive
        reservoir.add_many(rng.exponential(1.0, size=2000))
        assert len(reservoir._samples) <= 2 * reservoir.cap + 2
        assert reservoir.count == 10 * 500 + 1 + 2000
        assert reservoir.percentiles()["p999"] > 1.0

    def test_decimated_quantiles_stay_accurate(self):
        rng = np.random.default_rng(3)
        values = rng.exponential(10.0, size=200_000)
        bounded = LatencyReservoir(cap=4096)
        bounded.add_many(values)
        exact = nearest_rank_percentiles(values)
        approx = bounded.percentiles()
        for label in ("p50", "p90", "p99"):
            assert approx[label] == pytest.approx(exact[label], rel=0.05)

    def test_tiny_cap_rejected(self):
        with pytest.raises(ValueError):
            LatencyReservoir(cap=4)


class TestAggregate:
    def _returns(self):
        # Two ranks, three requests each, two phases.
        return [
            {
                "arrivals": [0.0, 10.0, 20.0],
                "latencies": [5.0, 6.0, 7.0],
                "acquire_latencies": [1.0, 2.0, 3.0],
                "hold_us": [1.0, 1.0, 1.0],
                "phases": [0, 0, 1],
                "write_flags": [1, 0, 1],
                "reads": 1,
                "writes": 2,
            },
            {
                "arrivals": [1.0, 11.0, 21.0],
                "latencies": [4.0, 8.0, 9.0],
                "acquire_latencies": [2.0, 2.0, 2.0],
                "hold_us": [2.0, 2.0, 2.0],
                "phases": [0, 1, 1],
                "write_flags": [0, 0, 0],
                "reads": 3,
                "writes": 0,
            },
        ]

    def test_summary_counts_and_span(self):
        summary = aggregate_traffic(self._returns())
        assert summary.requests == 6
        assert summary.reads == 4
        assert summary.writes == 2
        assert summary.open_span_us == 30.0  # arrival 0 .. completion 21+9
        assert summary.mean_hold_us == 1.5

    def test_phase_rows(self):
        summary = aggregate_traffic(self._returns())
        assert [row["phase"] for row in summary.phases] == [0, 1]
        assert [row["requests"] for row in summary.phases] == [3, 3]
        assert summary.phases[0]["writes"] == 1
        assert summary.phases[1]["writes"] == 1

    def test_percentile_fields_are_flat_floats(self):
        import json

        summary = aggregate_traffic(self._returns())
        fields = summary.percentile_fields()
        assert set(fields) >= {"e2e_p50_us", "e2e_p999_us", "acquire_p99_us", "mean_hold_us"}
        json.dumps(fields)  # plain JSON-able floats
        json.dumps(summary.phases)

    def test_empty_returns(self):
        summary = aggregate_traffic([])
        assert summary.requests == 0
        assert summary.offered_per_s == 0.0
        assert summary.phases == []


class TestReservoirBoundParameter:
    """The reservoir bound is a first-class accounting parameter: pinnable
    per scenario, forwarded end to end, and order-independent at the bound."""

    def _rank(self, rng, n, phase=0):
        e2e = rng.exponential(5.0, size=n)
        return {
            "arrivals": np.cumsum(rng.exponential(1.0, size=n)),
            "latencies": e2e,
            "acquire_latencies": e2e * 0.3,
            "hold_us": np.full(n, 1.0),
            "phases": np.full(n, phase),
            "write_flags": np.zeros(n, dtype=np.int64),
            "reads": n,
            "writes": 0,
        }

    def test_aggregate_honors_the_bound(self):
        rng = np.random.default_rng(11)
        returns = [self._rank(rng, 5000) for _ in range(4)]
        bounded = aggregate_traffic(returns, reservoir_cap=64)
        unbounded = aggregate_traffic(returns)
        # Decimation preserves the quantiles it is allowed to keep.
        assert bounded.requests == unbounded.requests == 20_000
        assert bounded.e2e["p50"] == pytest.approx(unbounded.e2e["p50"], rel=0.1)
        assert bounded.e2e["p999"] >= bounded.e2e["p99"] >= bounded.e2e["p50"]

    def test_order_independence_below_the_bound(self):
        # Under the cap the summary is an exact function of the multiset:
        # any rank contribution order yields identical percentiles.
        rng = np.random.default_rng(12)
        returns = [self._rank(rng, 300) for _ in range(5)]
        forward = aggregate_traffic(returns, reservoir_cap=4096)
        backward = aggregate_traffic(list(reversed(returns)), reservoir_cap=4096)
        assert forward.e2e == backward.e2e
        assert forward.acquire == backward.acquire

    def test_reordering_at_the_bound_stays_within_decimation_error(self):
        # Past the cap, reordering shifts which stratified subsample survives
        # — but only within the decimation's quantile error, and the global
        # maximum always survives.
        rng = np.random.default_rng(12)
        returns = [self._rank(rng, 3000) for _ in range(5)]
        forward = aggregate_traffic(returns, reservoir_cap=128)
        backward = aggregate_traffic(list(reversed(returns)), reservoir_cap=128)
        for label in ("p50", "p90", "p99"):
            assert forward.e2e[label] == pytest.approx(backward.e2e[label], rel=0.1)

    def test_scenario_pins_its_own_cap(self):
        from repro.traffic.generators import TrafficScenario

        pinned = TrafficScenario(name="t", reservoir_cap=4096)
        assert pinned.reservoir_cap == 4096
        with pytest.raises(ValueError, match="reservoir_cap"):
            TrafficScenario(name="t", reservoir_cap=8)

    def test_rank_programs_carry_the_pinned_cap(self):
        # A scenario-pinned cap rides the per-rank return dict (part of the
        # fingerprinted run state), which is where the benchmark harness
        # picks it up before calling aggregate_traffic.
        from repro.api.registry import get_runtime
        from repro.topology.builder import cached_machine
        from repro.traffic.generators import TrafficScenario
        from repro.traffic.scenarios import make_open_loop_program
        from repro.traffic.table import build_lock_table

        scenario = TrafficScenario(name="cap-thread-test", num_locks=8, reservoir_cap=64)
        machine = cached_machine(4, procs_per_node=4)
        table, _ = build_lock_table(machine, "fompi-spin", 8)
        program = make_open_loop_program(
            scenario, table, is_rw=False, draw_role=False, requests=4, seed=5,
            fw_default=0.0,
        )
        runtime = get_runtime("horizon").factory(
            machine, window_words=table.window_words + 2,
            latency=None, fabric=None, tracer=None, seed=5,
        )
        result = runtime.run(program, window_init=table.init_window)
        for per_rank in result.returns:
            assert per_rank["reservoir_cap"] == 64
