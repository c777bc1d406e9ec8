"""Tests for the committed baselines: the regress gate, its checks, blessing."""

from __future__ import annotations

import json
import math
from functools import partial

import pytest

from repro.bench.campaign import DETERMINISM_FIELDS, CampaignSpec, run_campaign
from repro.bench.regress import (
    EXIT_HARD,
    EXIT_OK,
    BlessError,
    bless_sweep,
    check_manifest,
    compare_campaign_rows,
    exit_code,
    format_findings,
    run_regress,
)
from repro.control.tune import TuneGrid, run_tune
from repro.scale.engine import run_scale, scale_spec
from repro.traffic.engine import run_traffic, traffic_spec

from tests.support import smoke

TINY = CampaignSpec(
    name="tiny-regress",
    schemes=("rma-mcs", "rma-rw"),
    benchmarks=("ecsb",),
    process_counts=(4,),
    fw_values=(0.1,),
    iterations=3,
    procs_per_node=4,
    seed=11,
)


#: Per suite, three schemes: they clear the traffic and tune scheme floors.
_TUNE_AXES = {"rma-rw": ("t_r", 16), "hbo": ("local_cap_us", 0.5), "lock-server": ("queue_threshold", 0)}
_TRAFFIC_SCHEMES = ("fompi-spin", "rma-mcs", "rma-rw")


def _tiny_run(suite, cache_dir, schemes=None):
    """``run(jobs=..., refresh=...)`` of a tiny ``suite`` grid on its own cache."""
    if suite == "campaign":
        return partial(run_campaign, TINY, cache_dir=cache_dir)
    if suite == "traffic":
        spec = traffic_spec(
            schemes=schemes or _TRAFFIC_SCHEMES, scenarios=("traffic-zipf",),
            process_counts=(8,), iterations=3,
        )
        return partial(run_traffic, spec, cache_dir=cache_dir)
    if suite == "scale":
        return partial(
            run_scale, scale_spec(**smoke("scale")), cache_dir=cache_dir, fluid_names=("fluid-phased",)
        )
    grids = [
        TuneGrid(
            scheme=scheme, param=_TUNE_AXES[scheme][0], scenario="traffic-zipf",
            values=(_TUNE_AXES[scheme][1],), procs=8, iterations=3, procs_per_node=4,
        )
        for scheme in schemes or _TUNE_AXES
    ]
    return partial(run_tune, grids, cache_dir=cache_dir)


def _baseline_row(case="a", ops=1000.0, fingerprint="f" * 64):
    return {
        "case": case,
        "fingerprint": fingerprint,
        "elapsed_us": 10.0,
        "throughput_mln_s": 1.5,
        "latency_mean_us": 2.0,
        "latency_p95_us": 3.0,
        "acquires": 12,
        "reads": 10,
        "writes": 2,
        "rma_ops": 100,
        "op_counts": {"get": 50, "put": 50},
        "sim_ops_per_s": ops,
    }


def _full_row(case="a"):
    """A baseline row carrying every determinism field and the timing columns."""
    return dict(
        _baseline_row(case),
        percentiles={"p50_us": 1.25, "p99_us": 7.5},
        phases=[{"phase": "steady", "completed": 12}],
        recovery={},
        wall_s=0.125,
    )


def _diverged(value):
    """The smallest change of ``value`` that keeps its type: one ulp for a float."""
    if isinstance(value, float):
        return math.nextafter(value, math.inf)
    if isinstance(value, int):
        return value + 1
    if isinstance(value, str):
        return "0" * len(value)
    if isinstance(value, dict):
        return {**value, "diverged": 1}
    if isinstance(value, list):
        return [*value, value[-1]]
    raise TypeError(f"no divergence defined for {type(value).__name__}")


class TestCompare:
    def test_identical_rows_pass(self):
        rows = [_baseline_row("a"), _baseline_row("b")]
        findings = compare_campaign_rows(rows, [dict(r) for r in rows])
        assert findings == []
        assert exit_code(findings) == EXIT_OK

    def test_only_determinism_is_gated(self):
        """Host speed is not compared; a determinism field diverging is hard."""
        base = [_baseline_row("a", ops=1000.0)]
        assert compare_campaign_rows(base, [dict(_baseline_row("a"), sim_ops_per_s=1.0)]) == []
        for field, value in (("fingerprint", "0" * 64), ("rma_ops", 101)):
            findings = compare_campaign_rows(base, [dict(_baseline_row("a"), **{field: value})])
            assert [(f.level, f.field) for f in findings] == [("hard", field)]
            assert exit_code(findings) == EXIT_HARD

    @pytest.mark.parametrize("field", DETERMINISM_FIELDS)
    def test_every_determinism_field_is_bit_exact_and_hard(self, field):
        base = _full_row()
        findings = compare_campaign_rows([base], [dict(base, **{field: _diverged(base[field])})])
        assert [(f.level, f.case, f.field) for f in findings] == [("hard", "a", field)]
        assert exit_code(findings) == EXIT_HARD

    @pytest.mark.parametrize(
        "field, value", [("sim_ops_per_s", 1.0), ("wall_s", 1000.0), ("cached", True)],
    )
    def test_host_timing_is_not_compared(self, field, value):
        base = _full_row()
        assert compare_campaign_rows([base], [dict(base, **{field: value})]) == []

    def test_hard_fail_manifest_exits_2(self):
        """Any determinism-field divergence is a hard failure."""
        base = [_baseline_row("a")]
        diverged = [dict(_baseline_row("a"), fingerprint="0" * 64)]
        findings = compare_campaign_rows(base, diverged)
        assert any(f.level == "hard" and f.field == "fingerprint" for f in findings)
        assert exit_code(findings) == EXIT_HARD

    def test_op_count_divergence_is_hard(self):
        base = [_baseline_row("a")]
        diverged = [dict(_baseline_row("a"), op_counts={"get": 51, "put": 49})]
        assert exit_code(compare_campaign_rows(base, diverged)) == EXIT_HARD

    def test_missing_case_is_hard_new_case_warns(self):
        base = [_baseline_row("a")]
        current = [_baseline_row("b")]
        findings = compare_campaign_rows(base, current)
        levels = {f.case: f.level for f in findings}
        assert levels["a"] == "hard"
        assert levels["b"] == "warn"

    def test_format_findings_orders_worst_first(self):
        findings = compare_campaign_rows(
            [_baseline_row("b")],
            [_baseline_row("a"), dict(_baseline_row("b"), fingerprint="0" * 64)],
        )
        text = format_findings(findings)
        assert text.index("[HARD") < text.index("[WARN")


class TestEndToEnd:
    @pytest.fixture()
    def blessed(self, tmp_path, monkeypatch):
        """A blessed tiny-campaign baseline backed by a tmp cache dir."""
        from repro.bench import campaign as campaign_mod

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        campaign_mod.register_campaign(TINY, replace=True)
        baseline = tmp_path / "BENCH_campaign.json"
        yield baseline
        campaign_mod.unregister_campaign(TINY.name)

    def test_bless_then_regress_passes_twice_bit_identically(self, blessed, tmp_path):
        bless_sweep(partial(run_campaign, TINY.name), blessed, jobs=1)
        payload = json.loads(blessed.read_text())
        assert payload["campaign"] == TINY.name
        assert payload["timing"]["warm_wall_s"] >= 0.0
        assert len(payload["rows"]) == 2

        out1 = tmp_path / "run1.json"
        out2 = tmp_path / "run2.json"
        code1 = run_regress(
            campaign=TINY.name, baseline_path=blessed,
            jobs=1, output=out1, print_fn=lambda *_: None,
        )
        code2 = run_regress(
            campaign=TINY.name, baseline_path=blessed,
            jobs=1, output=out2, print_fn=lambda *_: None,
        )
        assert code1 == EXIT_OK and code2 == EXIT_OK
        # Both runs recompute every point; determinism fields repeat bit-exactly.
        from repro.bench.campaign import DETERMINISM_FIELDS

        rows1 = json.loads(out1.read_text())["rows"]
        rows2 = json.loads(out2.read_text())["rows"]
        for r1, r2 in zip(rows1, rows2):
            for field in DETERMINISM_FIELDS:
                assert r1[field] == r2[field]

    def test_regress_detects_tampered_fingerprint(self, blessed, tmp_path):
        report, _ = bless_sweep(partial(run_campaign, TINY.name), blessed, jobs=1)
        payload = json.loads(blessed.read_text())
        payload["rows"][0]["fingerprint"] = "0" * 64
        blessed.write_text(json.dumps(payload))
        code = run_regress(
            campaign=TINY.name, baseline_path=blessed,
            jobs=1, print_fn=lambda *_: None,
        )
        assert code == EXIT_HARD
        assert report.points == 2

    def test_regress_malformed_baseline_rows_is_hard(self, blessed, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"rows": ["not-a-row"]}))
        code = run_regress(
            campaign=TINY.name, baseline_path=bad,
            jobs=1, print_fn=lambda *_: None,
        )
        assert code == EXIT_HARD

    def test_regress_missing_baseline_is_hard(self, blessed):
        code = run_regress(
            campaign=TINY.name, baseline_path=blessed,
            jobs=1, print_fn=lambda *_: None,
        )
        assert code == EXIT_HARD

    def test_cached_rerun_serves_the_cold_rows(self, blessed, tmp_path):
        """A re-run computes nothing and returns the cold run's rows."""
        cold = run_campaign(TINY.name, jobs=1, refresh=True)
        warm = run_campaign(TINY.name, jobs=1)
        assert warm.cache_misses == 0
        assert warm.cache_hits == warm.points
        assert [{k: v for k, v in row.items() if k != "cached"} for row in warm.rows] == [
            {k: v for k, v in row.items() if k != "cached"} for row in cold.rows
        ]


class TestCheckManifest:
    @pytest.mark.parametrize("suite", ["campaign", "traffic", "scale", "tune"])
    def test_every_bless_passes_its_own_check(self, suite, tmp_path):
        baseline = tmp_path / f"BENCH_{suite}.json"
        bless_sweep(_tiny_run(suite, tmp_path / "cache"), baseline, jobs=1)
        payload = json.loads(baseline.read_text())
        assert payload["suite"] == suite
        assert check_manifest(payload) == []

    @pytest.mark.parametrize("suite", ["traffic", "tune"])
    def test_a_one_scheme_bless_is_refused(self, suite, tmp_path):
        """The scheme floor refuses the bless; the target keeps its bytes."""
        baseline = tmp_path / f"BENCH_{suite}.json"
        baseline.write_bytes(b"committed\n")
        run = _tiny_run(suite, tmp_path / "cache", schemes=("rma-rw",))
        with pytest.raises(BlessError, match=r"schemes: .* 1 scheme\(s\)"):
            bless_sweep(run, baseline, jobs=1)
        assert baseline.read_bytes() == b"committed\n"

    @pytest.mark.parametrize(
        "payload, field",
        [
            (["not", "an", "object"], "json"),
            ({"rows": []}, "suite"),
            ({"suite": "conformance", "rows": []}, "suite"),
            ({"suite": "campaign", "rows": ["not-a-row"]}, "rows"),
            ({"suite": "campaign"}, "rows"),
        ],
        ids=["list", "no-suite", "unchecked-suite", "bad-row", "no-rows"],
    )
    def test_an_unusable_manifest_is_hard(self, payload, field):
        assert [(f.level, f.field) for f in check_manifest(payload)] == [("hard", field)]
