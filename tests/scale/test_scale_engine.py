"""Tests for the scale engine: spec narrowing, verdicts, bless, gating.

These pin the subsystem's integration contract: the ``scale-suite`` campaign
narrows like every other suite, the re-homing verdict pairs rows correctly,
``BENCH_scale.json`` round-trips through the campaign cache, and a bless
refuses a manifest the regress gate would flag.
"""

from __future__ import annotations

import json
from functools import partial
from pathlib import Path

import pytest

from repro.bench.campaign import SweepReport
from repro.bench.regress import BlessError, bless_sweep, check_scale_manifest
from repro.scale import engine as scale_engine
from repro.traffic.engine import run_traffic

from tests.support import smoke


class TestSpec:
    def test_scale_spec_narrows_the_suite(self):
        spec = scale_engine.scale_spec(
            schemes=("fompi-spin",), scenarios=("scale-hot",), iterations=12
        )
        assert spec.schemes == ("fompi-spin",)
        assert spec.benchmarks == ("scale-hot",)
        assert spec.iterations == 12

    def test_smoke_shrinks_iterations_only(self):
        full = scale_engine.scale_spec()
        assert smoke("scale") == {"iterations": 32}
        spec = scale_engine.scale_spec(**smoke("scale"))
        assert spec.iterations == 32
        assert spec.iterations < full.iterations
        assert spec.benchmarks == full.benchmarks

    def test_scale_selector_expands_to_the_tagged_scenarios(self):
        resolved = scale_engine.scale_spec().resolve_benchmarks()
        assert {"scale-elastic", "scale-hot", "scale-hot-rehome"} <= set(resolved)


class TestCommittedBaseline:
    def test_campaign_rows_recompute_to_the_committed_manifest(self):
        """The three blessed campaign rows of ``BENCH_scale.json`` (elastic
        resize, static hot key, re-homed hot key), recomputed: run state and
        tail accounting match the committed rows field for field."""
        manifest = Path(__file__).resolve().parents[2] / "BENCH_scale.json"
        committed = json.loads(manifest.read_text())
        expected = {row["case"]: row for row in committed["rows"] if row["scheduler"] == "horizon"}
        scenarios = ("scale-elastic", "scale-hot", "scale-hot-rehome")
        assert sorted({row["benchmark"] for row in expected.values()}) == sorted(scenarios)
        report = run_traffic(
            scale_engine.scale_spec(scenarios=scenarios),
            schedulers=("horizon",), jobs=1, cache=False,
        )
        assert sorted(row["case"] for row in report.rows) == sorted(expected)
        fields = ("fingerprint", "op_counts", "rma_ops", "elapsed_us", "percentiles", "phases")
        for row in report.rows:
            blessed = expected[row["case"]]
            assert {f: row[f] for f in fields} == {f: blessed[f] for f in fields}, row["case"]


class TestRehomeComparison:
    def _row(self, benchmark, p99, scheme="fompi-spin"):
        return {
            "benchmark": benchmark,
            "scheme": scheme,
            "P": 32,
            "percentiles": {"e2e_p99_us": p99},
        }

    def test_improved_requires_every_pair_to_win(self):
        rows = [
            self._row("scale-hot", 100.0),
            self._row("scale-hot-rehome", 80.0),
            self._row("scale-hot", 100.0, scheme="ticket"),
            self._row("scale-hot-rehome", 120.0, scheme="ticket"),
        ]
        verdict = scale_engine.rehome_comparison(rows)
        assert len(verdict["pairs"]) == 2
        assert not verdict["improved"]
        per_scheme = {p["scheme"]: p["improved"] for p in verdict["pairs"]}
        assert per_scheme == {"fompi-spin": True, "ticket": False}

    def test_unpaired_rows_are_ignored(self):
        rows = [
            self._row("scale-hot", 100.0),
            self._row("scale-elastic", 50.0),
        ]
        verdict = scale_engine.rehome_comparison(rows)
        assert verdict["pairs"] == []
        assert not verdict["improved"]

    def test_delta_is_static_minus_rehomed(self):
        rows = [
            self._row("scale-hot", 100.0),
            self._row("scale-hot-rehome", 75.0),
        ]
        (pair,) = scale_engine.rehome_comparison(rows)["pairs"]
        assert pair["delta_us"] == pytest.approx(25.0)
        assert pair["improved"]


class TestScaleManifestGate:
    def _payload(self, *, schedulers=("horizon",), improved=True,
                 within=True, identical=True):
        rows = [
            {
                "case": f"fompi-spin-scale-hot-{s}",
                "scheduler": s,
                "fingerprint": "ab" * 32,
                "percentiles": {"e2e_p99_us": 10.0},
            }
            for s in schedulers
        ]
        return {
            "suite": "scale",
            "rows": rows,
            "fluid": [
                {
                    "name": "fluid-phased",
                    "within_tolerance": within,
                    "fingerprints_identical": identical,
                    "fingerprints": ["cd" * 32] if identical else ["a", "b"],
                    "checks": [{"name": "offered_rate_per_us", "ok": within}],
                }
            ],
            "rehome": {
                "pairs": [{"scheduler": "horizon", "improved": improved}],
                "improved": improved,
            },
        }

    def test_healthy_manifest_passes(self):
        assert check_scale_manifest(self._payload()) == []

    def test_empty_manifest_is_hard(self):
        findings = check_scale_manifest({"rows": []})
        assert [f.level for f in findings] == ["hard"]

    def test_any_scheduler_set_passes(self):
        # The cross-scheduler check is tier-1's (against tests/reference.py),
        # not the committed manifest's.
        for schedulers in (("horizon",), ("horizon", "acme-sim")):
            assert check_scale_manifest(self._payload(schedulers=schedulers)) == []

    def test_fluid_out_of_tolerance_is_hard(self):
        findings = check_scale_manifest(self._payload(within=False))
        assert any(f.level == "hard" and f.field == "validation" for f in findings)

    def test_divergent_fluid_fingerprints_are_hard(self):
        findings = check_scale_manifest(self._payload(identical=False))
        assert any(f.level == "hard" and f.field == "fingerprints" for f in findings)

    def test_missing_fluid_records_are_hard(self):
        payload = self._payload()
        payload["fluid"] = []
        findings = check_scale_manifest(payload)
        assert any(f.level == "hard" and f.field == "fluid" for f in findings)

    def test_rehome_regression_fails(self):
        findings = check_scale_manifest(self._payload(improved=False))
        assert any(f.field == "rehome" for f in findings)

    def test_missing_rehome_verdict_is_hard(self):
        payload = self._payload()
        del payload["rehome"]
        findings = check_scale_manifest(payload)
        assert any(f.level == "hard" and f.field == "rehome" for f in findings)


class TestBless:
    def test_bless_round_trips_through_the_cache(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_EPOCH", "scale-bless-test")
        baseline = tmp_path / "BENCH_scale.json"
        spec = scale_engine.scale_spec(**smoke("scale"))
        run = partial(
            scale_engine.run_scale, spec,
            cache_dir=tmp_path / "cache", fluid_names=("fluid-phased",),
        )
        report, _ = bless_sweep(run, baseline, jobs=1)
        payload = json.loads(baseline.read_text())
        assert payload["suite"] == "scale"
        assert payload["timing"]["warm_cache_hits"] == report.points == 3
        assert payload["rehome"]["improved"] is True

    def test_check_refuses_failing_fluid_or_rehome(self, tmp_path):
        def runner(within=True, identical=True, improved=True):
            def run(*, jobs, refresh):
                fluid = {
                    "name": "fluid-phased",
                    "within_tolerance": within,
                    "fingerprints_identical": identical,
                    "fingerprints": ["cd" * 32],
                    "checks": [{"name": "offered_rate_per_us", "ok": within}],
                }
                row = {
                    "case": "fompi-spin-scale-hot",
                    "fingerprint": "ab" * 32,
                    "percentiles": {"e2e_p99_us": 10.0},
                }
                pairs = [{"scheduler": "horizon", "improved": improved}]
                return SweepReport(
                    "scale", "scale-suite", [row], 1, 0.0, int(not refresh), int(refresh), "e",
                    extra={"fluid": [fluid], "rehome": {"pairs": pairs, "improved": improved}},
                )
            return run

        baseline = tmp_path / "BENCH_scale.json"
        bless_sweep(runner(), baseline, jobs=1)
        blessed = baseline.read_bytes()
        for kwargs, match in (
            ({"within": False}, "offered_rate_per_us"),
            ({"identical": False}, "fingerprints diverged"),
            ({"improved": False}, "re-homing"),
        ):
            with pytest.raises(BlessError, match=match):
                bless_sweep(runner(**kwargs), baseline, jobs=1)
            assert baseline.read_bytes() == blessed


class TestOraclesSurviveMutations:
    """The live safety oracles stay attached across resize and re-home
    crossings (the table re-wraps rebuilt handles with the same observer)."""

    @pytest.mark.parametrize("scenario_name", ("scale-elastic", "scale-hot-rehome"))
    def test_conformance_point_stays_clean(self, scenario_name):
        from repro.bench.campaign import CampaignPoint
        from repro.bench.conformance import ConformancePoint, run_conformance_point

        point = ConformancePoint(
            CampaignPoint(scheme="fompi-spin", benchmark=scenario_name, procs=32,
                          procs_per_node=8, iterations=8, fw=0.0, seed=17)
        )
        row = run_conformance_point(point)
        assert row["ok"], row["violations"]
        assert row["reproducible"] is True
        assert row["acquires"] > 0
