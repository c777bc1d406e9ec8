"""Tests for the online control plane: rules, plans, swap determinism."""

from __future__ import annotations

import math

import pytest

from repro.api.registry import UnknownNameError, unregister
from repro.bench.campaign import CampaignSpec, run_campaign, run_result_sha
from repro.bench.harness import run_lock_benchmark_detailed
from repro.bench.workloads import LockBenchConfig
from repro.control.policy import (
    EntryPhaseStats,
    PolicyRule,
    PolicyTable,
    build_swap_plan,
    policy_min_entry_words,
)
from repro.topology.builder import xc30_like
from repro.traffic.generators import Phase, TrafficScenario
from repro.traffic.scenarios import (
    ADAPTIVE_POLICY,
    ADAPTIVE_SCENARIO,
    register_traffic_scenario,
)
from repro.traffic.table import build_lock_table

@pytest.fixture
def machine():
    return xc30_like(8, procs_per_node=4)


def _stats(requests=10, writes=2, cs=40.0, span=100.0, entry=0, phase=0):
    return EntryPhaseStats(
        entry=entry, phase=phase, requests=requests, writes=writes,
        cs_us_total=cs, span_us=span,
    )


class TestStatsAndRules:
    def test_stats_derived_quantities(self):
        stats = _stats(requests=10, writes=2, cs=40.0, span=100.0)
        assert stats.read_fraction == pytest.approx(0.8)
        assert stats.waiter_depth == pytest.approx(0.4)

    def test_stats_zero_guards(self):
        empty = _stats(requests=0, writes=0, cs=0.0, span=0.0)
        assert empty.read_fraction == 0.0
        assert empty.waiter_depth == 0.0

    def test_rule_window_matching(self):
        rule = PolicyRule(name="r", scheme="rma-rw", min_read_fraction=0.7, min_requests=4)
        assert rule.matches(_stats(requests=10, writes=1))
        assert not rule.matches(_stats(requests=10, writes=5))  # too write-heavy
        assert not rule.matches(_stats(requests=3, writes=0))  # below min_requests

    def test_rule_rejects_unknown_threshold(self):
        with pytest.raises(UnknownNameError) as excinfo:
            PolicyRule(name="r", scheme="rma-rw", params=(("t_rr", 8),))
        assert excinfo.value.suggestion == "t_r"

    def test_rule_rejects_non_harness_scheme(self):
        with pytest.raises(ValueError, match="lock-handle protocol"):
            PolicyRule(name="r", scheme="striped-rw")

    def test_swap_incompatible_rule_fails_at_construction_with_candidates(self):
        # The old behavior let the rule pass validation and blow up mid-run
        # inside build_swap_plan; now the constructor names the problem and
        # the schemes that *are* valid swap targets.
        with pytest.raises(ValueError) as excinfo:
            PolicyRule(name="r", scheme="striped-rw")
        message = str(excinfo.value)
        assert "not swap-compatible" in message
        assert "Swap-compatible schemes:" in message
        assert "rma-rw" in message

    def test_new_lock_families_are_valid_policy_targets(self):
        rule = PolicyRule(name="r", scheme="lock-server", params={"queue_threshold": 4})
        assert rule.params == (("queue_threshold", 4),)
        PolicyRule(name="r2", scheme="alock", params={"local_cap_us": 4.0})

    def test_rule_rejects_bad_bounds(self):
        with pytest.raises(ValueError, match="read-fraction"):
            PolicyRule(name="r", scheme="d-mcs", min_read_fraction=0.9, max_read_fraction=0.1)
        with pytest.raises(ValueError, match="min_requests"):
            PolicyRule(name="r", scheme="d-mcs", min_requests=0)

    def test_rule_params_accept_mappings(self):
        rule = PolicyRule(name="r", scheme="rma-rw", params={"t_r": 16, "t_dc": 2})
        assert rule.params == (("t_dc", 2), ("t_r", 16))

    def test_table_decides_first_match(self):
        first = PolicyRule(name="a", scheme="d-mcs")
        second = PolicyRule(name="b", scheme="rma-rw")
        table = PolicyTable(rules=(first, second))
        assert table.decide(_stats()) is first

    def test_table_rejects_zero_budget(self):
        with pytest.raises(ValueError, match="max_swaps_per_boundary"):
            PolicyTable(rules=(), max_swaps_per_boundary=0)

    def test_min_entry_words_covers_largest_rule_target(self, machine):
        words = policy_min_entry_words(machine, ADAPTIVE_POLICY)
        spin, _ = build_lock_table(machine, "fompi-spin", 1)
        assert words > spin.specs[0].window_words  # rma-rw needs more room


class TestSwapPlan:
    def _table(self, machine, scheme="fompi-spin"):
        table, _ = build_lock_table(
            machine, scheme, ADAPTIVE_SCENARIO.num_locks,
            min_entry_words=policy_min_entry_words(machine, ADAPTIVE_POLICY),
        )
        return table

    def _config(self, machine, **kw):
        kw.setdefault("scheme", "fompi-spin")
        kw.setdefault("benchmark", "traffic-adaptive")
        kw.setdefault("iterations", 10)
        kw.setdefault("seed", 3)
        return LockBenchConfig(machine=machine, **kw)

    def test_adaptive_policy_produces_swaps(self, machine):
        plan = build_swap_plan(
            ADAPTIVE_SCENARIO, self._config(machine), self._table(machine), ADAPTIVE_POLICY
        )
        assert plan.num_boundaries == 2
        assert not plan.empty
        schemes = {swap.scheme for swap in plan.swaps}
        assert schemes <= {"d-mcs", "rma-rw"}
        # Versions increase monotonically per entry.
        for entry in {s.entry_index for s in plan.swaps}:
            versions = [s.version for s in plan.swaps if s.entry_index == entry]
            assert versions == sorted(versions)

    def test_plan_is_deterministic(self, machine):
        args = (ADAPTIVE_SCENARIO, self._config(machine), self._table(machine), ADAPTIVE_POLICY)
        a = build_swap_plan(*args)
        b = build_swap_plan(*args)
        key = lambda p: [(s.boundary, s.entry_index, s.version, s.scheme, s.rule) for s in p.swaps]
        assert key(a) == key(b)

    def test_null_policy_and_single_phase_plans_are_empty(self, machine):
        config = self._config(machine)
        table = self._table(machine)
        assert build_swap_plan(ADAPTIVE_SCENARIO, config, table, None).empty
        assert build_swap_plan(ADAPTIVE_SCENARIO, config, table, PolicyTable()).empty
        single = TrafficScenario(name="x", num_locks=16)
        assert build_swap_plan(single, config, table, ADAPTIVE_POLICY).num_boundaries == 0

    def test_budget_caps_swaps_per_boundary(self, machine):
        tight = PolicyTable(rules=ADAPTIVE_POLICY.rules, max_swaps_per_boundary=1)
        plan = build_swap_plan(
            ADAPTIVE_SCENARIO, self._config(machine), self._table(machine), tight
        )
        per_boundary = {}
        for swap in plan.swaps:
            per_boundary[swap.boundary] = per_boundary.get(swap.boundary, 0) + 1
        assert per_boundary and all(n == 1 for n in per_boundary.values())

    def test_undersized_slab_fails_at_plan_time(self, machine):
        # A table built without the policy's slab floor cannot place rma-rw.
        table, _ = build_lock_table(machine, "fompi-spin", ADAPTIVE_SCENARIO.num_locks)
        with pytest.raises(ValueError):
            build_swap_plan(
                ADAPTIVE_SCENARIO, self._config(machine), table, ADAPTIVE_POLICY
            )


class TestSwapDeterminism:
    """The acceptance criterion: adaptive runs are bit-reproducible."""

    def test_adaptive_run_identical_across_schedulers(self, machine, reference):
        config = LockBenchConfig(
            machine=machine, scheme="fompi-spin", benchmark="traffic-adaptive",
            iterations=10, fw=0.2, seed=3,
        )
        shas = {}
        for scheduler in ("horizon", reference):
            result, raw = run_lock_benchmark_detailed(config, scheduler=scheduler)
            assert result.percentiles["swaps_total"] > 0  # the policy really fired
            shas[scheduler] = run_result_sha(raw)
        assert len(set(shas.values())) == 1, shas

    def test_adaptive_run_matches_its_pinned_digest(self, machine):
        """The swapping run above, pinned to the digest it produced before the
        adaptive and plain clients shared one program body: a change to that
        body moves horizon and the reference together, this literal does not."""
        config = LockBenchConfig(
            machine=machine, scheme="fompi-spin", benchmark="traffic-adaptive",
            iterations=10, fw=0.2, seed=3,
        )
        result, raw = run_lock_benchmark_detailed(config)
        assert result.percentiles["swaps_total"] == 32
        assert run_result_sha(raw) == (
            "e266c54327f95741f18611f0e2f21432a59f4f0a73b23d9a8213afd26fecff15"
        )

    @pytest.mark.parametrize("scheme", ("rma-rw", "fompi-spin"))
    def test_null_policy_is_bit_identical_to_policy_free_run(self, machine, scheme, reference):
        base = dict(
            num_locks=8, arrival="poisson", mean_gap_us=6.0, key_dist="zipf",
            zipf_exponent=1.0, fw=0.3,
            phases=(
                Phase(duration_us=100.0, rate_scale=1.0, name="a"),
                Phase(duration_us=None, rate_scale=1.0, name="b"),
            ),
        )
        register_traffic_scenario(
            TrafficScenario(name="traffic-nullpol-free", **base), tags=("traffic-test",)
        )
        register_traffic_scenario(
            TrafficScenario(name="traffic-nullpol-ctl", **base),
            policy=PolicyTable(),  # no rules: the plan must be empty
            tags=("traffic-test",),
        )
        try:
            for scheduler in ("horizon", reference):
                shas = []
                for benchmark in ("traffic-nullpol-free", "traffic-nullpol-ctl"):
                    config = LockBenchConfig(
                        machine=machine, scheme=scheme, benchmark=benchmark,
                        iterations=6, fw=0.3, seed=5,
                    )
                    _, raw = run_lock_benchmark_detailed(config, scheduler=scheduler)
                    shas.append(run_result_sha(raw))
                assert shas[0] == shas[1], scheduler
        finally:
            unregister("benchmark", "traffic-nullpol-free")
            unregister("benchmark", "traffic-nullpol-ctl")

    def test_parallel_jobs_match_serial_bit_for_bit(self):
        spec = CampaignSpec(
            name="adaptive-jobs", schemes=("fompi-spin",),
            benchmarks=("traffic-adaptive",), process_counts=(8,),
            fw_values=(0.2,), iterations=6, procs_per_node=4, seed=7,
        )
        serial = run_campaign(spec, cache=False, jobs=1)
        parallel = run_campaign(spec, cache=False, jobs=2)
        assert [r["fingerprint"] for r in serial.rows] == [
            r["fingerprint"] for r in parallel.rows
        ]
        assert all(r["percentiles"]["swaps_total"] > 0 for r in serial.rows)


class TestOraclesAcrossSwaps:
    def test_conformance_oracles_span_the_swap(self):
        """The observer attached to entry 0 survives handle rebuilds, so the
        safety/fairness oracles judge the whole adaptive run."""
        from repro.bench.campaign import CampaignPoint
        from repro.bench.conformance import ConformancePoint, run_conformance_point

        point = ConformancePoint(
            CampaignPoint(scheme="fompi-spin", benchmark="traffic-adaptive", procs=8,
                          procs_per_node=4, iterations=6, fw=0.2, seed=13)
        )
        row = run_conformance_point(point)
        assert row["ok"], row["violations"]
        assert row["reproducible"] is True
        assert row["acquires"] > 0
