"""Tests for the traffic sweep engine: invariance, caching, bless, gating.

These pin the acceptance contract of the traffic subsystem: rows are
bit-identical across repeat runs, across the horizon and baseline schedulers
(fingerprint for fingerprint), and the ``BENCH_traffic.json`` baseline
round-trips through the campaign cache.  The ``--jobs`` half of the contract
is the shared executor's (``tests/bench/test_sweep_contract.py``).
"""

from __future__ import annotations

import json
from functools import partial
from pathlib import Path

import pytest

from repro.bench.campaign import CampaignSpec, bless_sweep, run_campaign
from repro.bench.regress import check_traffic_manifest
from repro.traffic import engine as traffic_engine

#: Small grid reused throughout: three structurally distinct schemes on the
#: Zipf scenario at P=8 (the full 1024-entry table, few requests).
TINY = CampaignSpec(
    name="traffic-tiny-test",
    schemes=("fompi-spin", "rma-mcs", "rma-rw"),
    benchmarks=("traffic-zipf",),
    process_counts=(8,),
    fw_values=(0.1,),
    iterations=4,
    procs_per_node=4,
    seed=13,
)


def _determinism_view(rows):
    return [
        (row["case"], row["fingerprint"], row["percentiles"], row["phases"])
        for row in rows
    ]


class TestInvariance:
    def test_repeat_runs_are_bit_identical(self):
        first = run_campaign(TINY, cache=False, jobs=1)
        second = run_campaign(TINY, cache=False, jobs=1)
        assert _determinism_view(first.rows) == _determinism_view(second.rows)

    def test_schedulers_agree_fingerprint_for_fingerprint(self):
        horizon = run_campaign(TINY, cache=False, jobs=1, scheduler="horizon")
        baseline = run_campaign(TINY, cache=False, jobs=1, scheduler="baseline")
        assert len(horizon.rows) == len(baseline.rows)
        for h_row, b_row in zip(horizon.rows, baseline.rows):
            assert h_row["fingerprint"] == b_row["fingerprint"]
            assert h_row["percentiles"] == b_row["percentiles"]
            assert h_row["phases"] == b_row["phases"]


class TestCommittedBaseline:
    def test_horizon_rows_recompute_to_the_committed_manifest(self):
        """Every blessed ``horizon`` row of ``BENCH_traffic.json``, recomputed:
        the exact run state (fingerprint, op counts, virtual elapsed time) and
        the tail accounting (percentiles, phases) match the committed row."""
        manifest = Path(__file__).resolve().parents[2] / "BENCH_traffic.json"
        committed = json.loads(manifest.read_text())
        expected = {row["case"]: row for row in committed["rows"] if row["scheduler"] == "horizon"}
        # The blessed scenarios by name: other tests register more under the
        # ``traffic`` selector the suite grid expands.
        scenarios = sorted({row["benchmark"] for row in expected.values()})
        report = traffic_engine.run_traffic(
            traffic_engine.traffic_spec(scenarios=scenarios),
            schedulers=("horizon",), jobs=1, cache=False,
        )
        assert sorted(row["case"] for row in report.rows) == sorted(expected)
        fields = ("fingerprint", "op_counts", "rma_ops", "elapsed_us", "percentiles", "phases")
        for row in report.rows:
            blessed = expected[row["case"]]
            assert {f: row[f] for f in fields} == {f: blessed[f] for f in fields}, row["case"]


class TestConformanceOnTraffic:
    def test_oracles_and_chaos_run_on_traffic_points(self):
        from repro.bench.conformance import ConformancePoint, run_conformance_point

        for perturb_seed in (0, 3):
            point = ConformancePoint(
                scheme="rma-mcs",
                benchmark="traffic-zipf",
                procs=8,
                procs_per_node=4,
                iterations=4,
                fw=0.2,
                seed=13,
                perturb_seed=perturb_seed,
                latency_jitter=0.3 if perturb_seed else 0.0,
                pause_rate=0.02 if perturb_seed else 0.0,
            )
            row = run_conformance_point(point)
            assert row["ok"], row["violations"]
            assert row["reproducible"] is True
            assert row["acquires"] > 0  # the hottest entry saw real traffic

    def test_conform_cli_accepts_traffic_selector(self):
        from repro.bench.conformance import conformance_points

        points = conformance_points(
            seeds=1,
            schemes=("rma-mcs",),
            benchmarks=("traffic-zipf",),
            process_counts=(8,),
            iterations=2,
        )
        assert {p.benchmark for p in points} == {"traffic-zipf"}


class TestEngine:
    def test_traffic_spec_narrows_the_suite(self):
        spec = traffic_engine.traffic_spec(
            schemes=("rma-rw",), scenarios=("traffic-zipf",), process_counts=(8,), iterations=3
        )
        assert spec.schemes == ("rma-rw",)
        assert spec.benchmarks == ("traffic-zipf",)
        assert spec.process_counts == (8,)

    def test_smoke_grid_is_small(self):
        spec = traffic_engine.traffic_spec(smoke=True)
        assert spec.schemes == traffic_engine.SMOKE_SCHEMES
        assert spec.process_counts == traffic_engine.SMOKE_PROCS

    def test_run_traffic_merges_scheduler_rows(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_EPOCH", "traffic-engine-test")
        report = traffic_engine.run_traffic(
            TINY, schedulers=("horizon", "baseline"), jobs=1, cache_dir=tmp_path
        )
        assert report.points == 6  # 3 schemes x 2 schedulers
        schedulers = {row["scheduler"] for row in report.rows}
        assert schedulers == {"horizon", "baseline"}
        # Baseline-scheduler cases are distinct rows in a merged manifest.
        cases = [row["case"] for row in report.rows]
        assert len(set(cases)) == 6

    def test_bless_round_trips_through_the_cache(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_EPOCH", "traffic-bless-test")
        baseline = tmp_path / "BENCH_traffic.json"
        run = partial(
            traffic_engine.run_traffic, TINY, schedulers=("horizon", "baseline"),
            cache_dir=tmp_path / "cache",
        )
        report, _ = bless_sweep(run, baseline, jobs=1)
        payload = json.loads(baseline.read_text())
        assert payload["suite"] == "traffic"
        assert payload["timing"]["warm_cache_hits"] == report.points == 6
        assert not check_traffic_manifest(payload)  # sanity gate passes

    def test_empty_scheduler_list_rejected(self):
        with pytest.raises(ValueError, match="at least one scheduler"):
            traffic_engine.run_traffic(TINY, schedulers=())


class TestTrafficManifestGate:
    def _payload(self, schemes=("a", "b", "c"), schedulers=("horizon", "baseline")):
        rows = []
        for scheme in schemes:
            for scheduler in schedulers:
                rows.append(
                    {
                        "case": f"{scheme}-traffic-zipf-p8-{scheduler}",
                        "scheme": scheme,
                        "scheduler": scheduler,
                        "fingerprint": "ab" * 32,
                        "percentiles": {"e2e_p99_us": 1.0},
                    }
                )
        return {"suite": "traffic", "rows": rows}

    def test_healthy_manifest_passes(self):
        assert check_traffic_manifest(self._payload()) == []

    def test_empty_manifest_is_hard(self):
        findings = check_traffic_manifest({"rows": []})
        assert [f.level for f in findings] == ["hard"]

    def test_missing_percentiles_is_hard(self):
        payload = self._payload()
        del payload["rows"][0]["percentiles"]
        findings = check_traffic_manifest(payload)
        assert any(f.level == "hard" and f.field == "percentiles" for f in findings)

    def test_missing_fingerprint_is_hard(self):
        payload = self._payload()
        payload["rows"][0]["fingerprint"] = ""
        findings = check_traffic_manifest(payload)
        assert any(f.level == "hard" and f.field == "fingerprint" for f in findings)

    def test_too_few_schemes_fails(self):
        findings = check_traffic_manifest(self._payload(schemes=("a", "b")))
        assert any(f.level == "fail" and f.field == "schemes" for f in findings)

    def test_single_scheduler_fails(self):
        findings = check_traffic_manifest(self._payload(schedulers=("horizon",)))
        assert any(f.level == "fail" and f.field == "schedulers" for f in findings)


class TestTopKeys:
    def _spec(self):
        return traffic_engine.traffic_spec(
            schemes=("fompi-spin",), scenarios=("traffic-zipf",),
            process_counts=(8,), iterations=16,
        )

    def test_rows_rank_the_zipf_head_first(self):
        rows = traffic_engine.top_key_rows(self._spec(), top_keys=3)
        assert [r["rank"] for r in rows] == [1, 2, 3]
        assert rows[0]["key"] == 0  # Zipf head
        shares = [r["share"] for r in rows]
        assert shares == sorted(shares, reverse=True)
        assert all(0.0 < s <= 1.0 for s in shares)
        assert all(r["requests"] > 0 for r in rows)

    def test_report_is_pure_analysis(self):
        # Same rows on repeat calls — no simulation, no cache, no RNG drift.
        first = traffic_engine.top_key_rows(self._spec(), top_keys=5)
        second = traffic_engine.top_key_rows(self._spec(), top_keys=5)
        assert first == second

    def test_one_block_per_scenario_and_p(self):
        spec = traffic_engine.traffic_spec(
            schemes=("fompi-spin",),
            scenarios=("traffic-zipf", "traffic-uniform"),
            process_counts=(8, 16),
            iterations=8,
        )
        rows = traffic_engine.top_key_rows(spec, top_keys=2)
        blocks = {(r["scenario"], r["P"]) for r in rows}
        assert blocks == {
            ("traffic-zipf", 8), ("traffic-zipf", 16),
            ("traffic-uniform", 8), ("traffic-uniform", 16),
        }
        assert len(rows) == 8  # 2 keys per block

    def test_non_positive_count_rejected(self):
        with pytest.raises(ValueError, match="top_keys"):
            traffic_engine.top_key_rows(self._spec(), top_keys=0)


class TestDisplayRows:
    def test_display_rows_flatten_percentiles(self):
        rows = [
            {
                "case": "x",
                "P": 8,
                "scheduler": "horizon",
                "percentiles": {"e2e_p50_us": 1.0, "e2e_p99_us": 2.0,
                                "e2e_p999_us": 3.0, "acquire_p99_us": 0.5,
                                "offered_per_s": 1000.0},
                "phases": [{"phase": 0}],
                "cached": True,
            }
        ]
        display = traffic_engine.traffic_display_rows(rows)
        assert display[0]["e2e_p99_us"] == 2.0
        assert display[0]["phases"] == 1
        assert display[0]["cached"] == "yes"
