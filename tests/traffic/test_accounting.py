"""Tests for the tail-latency accounting layer."""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
        # 99.9 % of 1000 is exactly 999; in floats, 99.9 / 100 * 1000 is a
        # hair above 999, which would round one rank up.
        assert nearest_rank_percentiles(list(range(1, 1001)))["p999"] == 999
        assert nearest_rank_percentiles(list(range(1, 2001)))["p999"] == 1998
        assert nearest_rank_percentiles(list(range(1, 2001)))["p99"] == 1980

    @given(
        n=st.one_of(st.integers(1, 5000), st.integers(1, 20).map(lambda k: 1000 * k)),
        shift=st.floats(-1e6, 1e6),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_an_exact_fraction_reference(self, n, shift):
        """Index ``ceil(q / 100 * n) - 1`` with ``q`` as an exact fraction."""
        samples = [shift + i for i in range(n)]  # ascending and distinct
        pct = nearest_rank_percentiles(samples[::-1])
        for label, q in (("p50", "50"), ("p90", "90"), ("p99", "99"), ("p999", "99.9")):
            index = math.ceil(Fraction(q) / 100 * n) - 1
            assert pct[label] == samples[index], (label, n)

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

    def test_exact_up_to_twice_the_cap_then_decimated(self):
        """The trigger is ``2 * cap``, not ``cap``: at ``cap=16`` the first 32
        samples are all kept, in order, and the 33rd decimates."""
        reservoir = LatencyReservoir(cap=16)
        values = [float(v) for v in range(100, 133)]
        for value in values[:32]:
            reservoir.add_many((value,))
        assert reservoir._samples == values[:32]
        reservoir.add_many((values[32],))
        assert reservoir.count == 33
        assert len(reservoir._samples) <= 16 + 1
        assert reservoir._samples[-1] == max(values)

    @given(
        before=st.integers(0, 40),
        samples=st.lists(st.floats(0.0, 1e6), max_size=200),
    )
    @settings(max_examples=100, deadline=None)
    def test_add_each_is_one_add_many_per_sample(self, before, samples):
        grouped, reference = LatencyReservoir(cap=16), LatencyReservoir(cap=16)
        for reservoir in (grouped, reference):
            reservoir.add_many([float(v) for v in range(before)])
        grouped.add_each(samples)
        for sample in samples:
            reference.add_many((sample,))
        assert grouped._samples == reference._samples
        assert grouped.count == reference.count


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


def _per_sample_phases(returns, reservoir_cap):
    """The per-phase fold ``aggregate_traffic`` replaced, one sample at a
    time: ``(span_lo, span_hi, {phase: (count, writes, lo, hi, samples)})``."""
    span_lo, span_hi = np.inf, -np.inf
    rows = {}
    for per_rank in returns:
        arrivals = per_rank.get("arrivals", ())
        e2e = per_rank.get("latencies", ())
        phases = per_rank.get("phases", ())
        rank_writes = per_rank.get("write_flags", ())
        for i in range(len(e2e)):
            arrival = float(arrivals[i]) if i < len(arrivals) else 0.0
            done = arrival + float(e2e[i])
            span_lo = min(span_lo, arrival)
            span_hi = max(span_hi, done)
            phase = int(phases[i]) if i < len(phases) else 0
            if phase not in rows:
                rows[phase] = [0, 0, arrival, done, LatencyReservoir(reservoir_cap)]
            row = rows[phase]
            row[4].add_many((float(e2e[i]),))
            row[0] += 1
            if i < len(rank_writes) and rank_writes[i]:
                row[1] += 1
            row[2] = min(row[2], arrival)
            row[3] = max(row[3], done)
    return span_lo, span_hi, {
        phase: (count, writes, lo, hi, res._samples)
        for phase, (count, writes, lo, hi, res) in rows.items()
    }


class TestGroupedPhaseFold:
    """``aggregate_traffic`` folds each (rank, phase) run at once; it must
    decimate the phase reservoirs at exactly the samples a per-sample fold
    does, and agree with it on every count and span."""

    @staticmethod
    def _rank(rng, n, phase_runs, short_by=0):
        phases = np.repeat(rng.integers(0, 3, size=phase_runs), n // phase_runs + 1)[:n]
        return {
            "arrivals": list(np.cumsum(rng.exponential(1.0, size=n - short_by))),
            "latencies": list(rng.exponential(5.0, size=n)),
            "acquire_latencies": [1.0] * n,
            "hold_us": [1.0] * n,
            "phases": phases[: n - short_by].tolist(),
            "write_flags": rng.integers(0, 2, size=n - short_by),
            "reads": 0,
            "writes": 0,
        }

    @pytest.mark.parametrize("phase_runs", [1, 3, 17])
    def test_matches_the_per_sample_fold_past_twice_the_cap(self, monkeypatch, phase_runs):
        import repro.traffic.accounting as accounting

        rng = np.random.default_rng(phase_runs)
        # 200 samples per rank over at most 3 phases: > 2 * cap = 32 per phase.
        returns = [self._rank(rng, 200, phase_runs, short_by=rank % 2 * 7) for rank in range(4)]
        span_lo, span_hi, reference = _per_sample_phases(returns, 16)
        assert any(row[0] > 32 for row in reference.values())

        created = []

        class Recording(LatencyReservoir):
            def __init__(self, cap):
                super().__init__(cap)
                created.append(self)

        monkeypatch.setattr(accounting, "LatencyReservoir", Recording)
        summary = aggregate_traffic(returns, reservoir_cap=16)
        # The e2e and acquire reservoirs come first, then one per phase in
        # order of first appearance, as in the reference.
        assert [r._samples for r in created[2:]] == [row[4] for row in reference.values()]
        assert summary.open_span_us == round(float(span_hi - span_lo), 6)
        for row in summary.phases:
            count, writes, lo, hi, samples = reference[row["phase"]]
            assert (row["requests"], row["writes"]) == (count, writes)
            assert row["span_us"] == round(float(hi - lo), 6)
            assert row["e2e_p99_us"] == round(nearest_rank_percentiles(samples)["p99"], 6)


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
            latency=None, fabric=None, observer=None, seed=5,
        )
        result = runtime.run(program, window_init=table.init_window)
        for per_rank in result.returns:
            assert per_rank["reservoir_cap"] == 64
