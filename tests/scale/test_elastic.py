"""Tests for elastic lock tables: plan semantics and resize determinism.

The acceptance contract: resize crossings are collective virtual-time events
with bit-identical fingerprints across the horizon scheduler and the
reference interpreter and across ``--jobs`` settings, and the plan's active-entry
schedule is a pure function every rank derives identically.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.bench.campaign import CampaignSpec, run_campaign
from repro.scale.elastic import (
    ELASTIC_PLAN,
    ELASTIC_SCENARIO,
    ElasticPlan,
    ResizeEvent,
)

#: Small grid reused by the determinism tests: one scheme, the built-in
#: elastic scenario, enough requests per rank to land in all three phases.
TINY = CampaignSpec(
    name="scale-elastic-tiny-test",
    schemes=("fompi-spin",),
    benchmarks=("scale-elastic",),
    process_counts=(16,),
    fw_values=(0.0,),
    iterations=24,
    procs_per_node=8,
    seed=17,
)


def _determinism_view(rows):
    return [
        (row["case"], row["fingerprint"], row["percentiles"], row["phases"])
        for row in rows
    ]


class TestPlanSemantics:
    def test_active_by_phase_follows_the_events(self):
        assert list(ELASTIC_PLAN.active_by_phase(3)) == [8, 64, 16]

    def test_events_past_the_phase_count_are_inert(self):
        plan = ElasticPlan(
            capacity=32, initial_active=4, events=(ResizeEvent(boundary=5, active=32),)
        )
        assert list(plan.active_by_phase(3)) == [4, 4, 4]

    def test_num_boundaries_spans_the_last_event(self):
        assert ELASTIC_PLAN.num_boundaries == 2
        assert ElasticPlan(capacity=8, initial_active=8).num_boundaries == 0

    def test_plan_validation_rejects_bad_shapes(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            ElasticPlan(
                capacity=8,
                initial_active=4,
                events=(ResizeEvent(0, 8), ResizeEvent(0, 4)),
            )
        with pytest.raises(ValueError, match="exceeds the table capacity"):
            ElasticPlan(capacity=8, initial_active=4, events=(ResizeEvent(0, 16),))
        with pytest.raises(ValueError, match="within"):
            ElasticPlan(capacity=8, initial_active=9)

    def test_plan_must_fit_the_scenario(self):
        plan = ElasticPlan(capacity=32, initial_active=4)
        with pytest.raises(ValueError, match="num_locks"):
            plan.validate(ELASTIC_SCENARIO)  # scenario has 64 locks
        deep = ElasticPlan(
            capacity=64, initial_active=8, events=(ResizeEvent(boundary=7, active=64),)
        )
        with pytest.raises(ValueError, match="boundaries"):
            deep.validate(ELASTIC_SCENARIO)  # scenario has only 2 boundaries

    def test_regrown_entries_get_bumped_versions(self):
        # Grow, shrink, grow again: the re-activated entries' target slot
        # versions must count *occurrences*, matching reset_entries() state.
        plan = ElasticPlan(
            capacity=8,
            initial_active=2,
            events=(
                ResizeEvent(boundary=0, active=8),
                ResizeEvent(boundary=1, active=2),
                ResizeEvent(boundary=2, active=4),
            ),
        )
        first, shrink, regrow = plan.crossings
        assert [(r.entry_index, r.version) for r in first] == [(i, 1) for i in range(2, 8)]
        assert shrink == ()  # shrinks never touch the window
        # Second activation: version 2.
        assert [(r.entry_index, r.version) for r in regrow] == [(2, 2), (3, 2)]

    def test_boundaries_without_an_event_cross_with_no_installs(self):
        plan = ElasticPlan(capacity=8, initial_active=2, events=(ResizeEvent(1, 4),))
        assert [[r.entry_index for r in c] for c in plan.crossings] == [[], [2, 3]]


class TestFold:
    def test_a_plan_without_events_folds_onto_its_initial_prefix(self, monkeypatch):
        import repro.traffic.scenarios as scenarios
        from repro.api.registry import unregister
        from repro.bench.harness import run_lock_benchmark_detailed
        from repro.bench.workloads import LockBenchConfig
        from repro.topology.builder import cached_machine
        from repro.traffic.generators import Phase, TrafficScenario

        tables = []
        build = scenarios.build_lock_table

        def recording(*args, **kwargs):
            tables.append(build(*args, **kwargs)[0])
            return tables[-1], tables[-1].rw

        monkeypatch.setattr(scenarios, "build_lock_table", recording)
        scenarios.register_traffic_scenario(
            TrafficScenario(
                name="scale-elastic-no-events",
                num_locks=16,
                key_dist="uniform",
                phases=(
                    Phase(duration_us=60.0, name="a"),
                    Phase(duration_us=None, name="b"),
                ),
            ),
            elastic=ElasticPlan(capacity=16, initial_active=4),
            tags=("scale-test",),
        )
        try:
            config = LockBenchConfig(
                machine=cached_machine(8, 4), scheme="fompi-spin",
                benchmark="scale-elastic-no-events", iterations=24,
            )
            run_lock_benchmark_detailed(config)
        finally:
            unregister("benchmark", "scale-elastic-no-events")
        (table,) = tables
        assert set(table._entries) <= set(range(4))


class TestResizeDeterminism:
    def test_schedulers_agree_fingerprint_for_fingerprint(self, reference):
        views = {}
        for scheduler in ("horizon", reference):
            report = run_campaign(TINY, cache=False, jobs=1, scheduler=scheduler)
            views[scheduler] = [
                (row["fingerprint"], row["percentiles"], row["phases"])
                for row in report.rows
            ]
        assert views["horizon"] == views[reference]

    def test_parallel_jobs_match_serial_bit_for_bit(self):
        serial = run_campaign(TINY, cache=False, jobs=1)
        parallel = run_campaign(TINY, cache=False, jobs=2)
        assert _determinism_view(serial.rows) == _determinism_view(parallel.rows)

    def test_resizes_are_counted_and_requests_span_the_phases(self):
        report = run_campaign(TINY, cache=False, jobs=1)
        (row,) = report.rows
        pct = row["percentiles"]
        # Every rank re-inits the 56 entries grown at the first boundary;
        # the shrink at the second boundary adds none.
        assert pct["resizes_total"] == 16 * 56
        phases = {p["phase"] for p in row["phases"]}
        assert phases == {0, 1, 2}  # the plan's crossings actually fired mid-run
