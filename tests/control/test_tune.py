"""Tests for the offline auto-tuner and its regress gate."""

from __future__ import annotations

import json
from functools import partial

import pytest

from repro.api.registry import UnknownNameError, get_scheme
from repro.bench.campaign import SweepReport
from repro.bench.regress import BlessError, bless_sweep, check_tune_manifest, manifest_path
from repro.control.tune import (
    TuneGrid,
    default_grids,
    derive_axis,
    policy_from_tune,
    render_sensitivity,
    run_tune,
)

from tests.support import smoke

TINY_GRID = TuneGrid(
    scheme="rma-rw", param="t_r", scenario="traffic-readheavy",
    values=(16, 64), procs=8, iterations=4, procs_per_node=4, seed=5,
)

#: Three schemes, so a bless clears the tune manifest's scheme floor.
TINY_GRIDS = (
    TINY_GRID,
    TuneGrid(
        scheme="hbo", param="local_cap_us", scenario="traffic-zipf",
        values=(0.5,), procs=8, iterations=4, procs_per_node=4, seed=5,
    ),
    TuneGrid(
        scheme="lock-server", param="queue_threshold", scenario="traffic-zipf",
        values=(0,), procs=8, iterations=4, procs_per_node=4, seed=5,
    ),
)


class TestAxes:
    def test_curated_axis_wins(self):
        assert derive_axis("rma-rw", "t_r") == (4, 16, 64, 256)
        assert derive_axis("rma-rw", "t_dc") == (1, 2, 8, 32)

    def test_int_default_brackets_by_4x(self):
        # cohort's max_local_passes defaults to 16 with no curated axis.
        assert derive_axis("cohort", "max_local_passes") == (4, 16, 64)

    def test_float_default_brackets_by_4x(self):
        assert derive_axis("hbo", "local_cap_us") == (0.5, 2.0, 8.0)

    def test_non_tunable_parameter_rejected(self):
        # home_rank is numeric but registered tunable=False (a placement
        # choice, not a threshold).
        with pytest.raises(ValueError, match="not tunable"):
            derive_axis("ticket", "home_rank")

    def test_unknown_parameter_rejected(self):
        with pytest.raises(UnknownNameError):
            derive_axis("rma-rw", "t_rr")


class TestGrids:
    def test_grid_points_include_the_default_baseline(self):
        points = TINY_GRID.points()
        assert len(points) == 3  # default + 2 swept values
        assert points[0].params == ()
        assert points[1].params == (("t_r", 16),)

    def test_grid_validates_eagerly(self):
        with pytest.raises(UnknownNameError):
            TuneGrid(scheme="rma-rw", param="t_rr", scenario="traffic-zipf", values=(1,))
        with pytest.raises(ValueError, match="at least one"):
            TuneGrid(scheme="rma-rw", param="t_r", scenario="traffic-zipf", values=())

    def test_default_suite_covers_three_schemes_even_in_smoke(self):
        assert len({g.scheme for g in default_grids()}) >= 3
        assert len({g["scheme"] for g in smoke("tune")["grids"]}) >= 3


class TestRunTune:
    def test_sweep_certifies_the_winner(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_EPOCH", "tune-test")
        report = run_tune([TINY_GRID], jobs=1, cache_dir=tmp_path)
        assert report.points == 3
        (best,) = report.extra["best"]
        assert best["scheme"] == "rma-rw" and best["param"] == "t_r"
        assert best["best_value"] in (16, 64)
        assert best["e2e_p99_us"] <= best["default_p99_us"] or best["improvement_pct"] <= 0
        # The winner re-run reproduced its recorded fingerprint bit-exactly.
        assert best["refingerprint"] == best["fingerprint"] != ""
        (series,) = report.extra["sensitivity"]
        assert [p["value"] for p in series["series"]] == [16, 64]
        # A warm sweep serves every grid point from the cache.
        warm = run_tune([TINY_GRID], jobs=1, cache_dir=tmp_path)
        assert warm.cache_hits == warm.points == 3
        assert warm.extra["best"][0]["fingerprint"] == best["fingerprint"]

    def test_bless_round_trips_through_the_gate(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_EPOCH", "tune-bless-test")
        baseline = tmp_path / "BENCH_tune.json"
        run = partial(run_tune, TINY_GRIDS, cache_dir=tmp_path / "cache")
        report, _ = bless_sweep(run, baseline, jobs=1)
        payload = json.loads(baseline.read_text())
        assert payload["suite"] == "tune"
        assert payload["timing"]["warm_cache_hits"] == report.points == 7
        assert len(payload["best"]) == len(payload["sensitivity"]) == 3
        assert check_tune_manifest(payload) == []

    def test_check_refuses_a_drifting_winner(self, tmp_path):
        """The bless refuses a warm sweep whose rows (and so whose winners'
        fingerprints) drift from the cold sweep's, and writes nothing."""

        def runner(warm_fingerprint):
            def run(*, jobs, refresh):
                fingerprint = "ab" if refresh else warm_fingerprint
                rows = [{"case": f"{s}-case", "fingerprint": fingerprint} for s in "xyz"]
                best = [
                    {"grid": f"g-{s}", "scheme": s, "best_case": f"{s}-case",
                     "fingerprint": fingerprint, "refingerprint": fingerprint}
                    for s in "xyz"
                ]
                hits = 0 if refresh else len(rows)
                return SweepReport(
                    "tune", "tune-suite", rows, 1, 0.0, hits, len(rows) - hits, "e",
                    extra={"best": best},
                )
            return run

        baseline = tmp_path / "BENCH_tune.json"
        bless_sweep(runner("ab"), baseline, jobs=1)
        blessed = baseline.read_bytes()
        with pytest.raises(BlessError, match="drifted"):
            bless_sweep(runner("cd"), baseline, jobs=1)
        assert baseline.read_bytes() == blessed

    def test_render_sensitivity_shows_axis_and_default(self):
        text = render_sensitivity([{
            "grid": "g", "scheme": "rma-rw", "benchmark": "traffic-zipf",
            "param": "t_r", "default_p99_us": 2.0,
            "series": [{"value": 16, "e2e_p99_us": 1.0}],
        }])
        assert "t_r=16" in text and "default" in text
        assert "rma-rw @ traffic-zipf" in text


class TestTuneManifestGate:
    def _payload(self, schemes=("a", "b", "c")):
        best = [
            {
                "scheme": scheme,
                "best_case": f"{scheme}-case",
                "fingerprint": "ab" * 32,
                "refingerprint": "ab" * 32,
            }
            for scheme in schemes
        ]
        return {"suite": "tune", "rows": [{"case": "x"}], "best": best}

    def test_healthy_manifest_passes(self):
        assert check_tune_manifest(self._payload()) == []

    def test_empty_rows_or_best_is_hard(self):
        assert [f.level for f in check_tune_manifest({"rows": []})] == ["hard"]
        assert [f.level for f in check_tune_manifest({"rows": [{}], "best": []})] == ["hard"]

    def test_broken_certificate_is_hard(self):
        payload = self._payload()
        payload["best"][0]["refingerprint"] = "cd" * 32
        findings = check_tune_manifest(payload)
        assert any(f.level == "hard" and f.field == "refingerprint" for f in findings)
        payload["best"][0]["refingerprint"] = ""
        findings = check_tune_manifest(payload)
        assert any(f.level == "hard" and f.field == "refingerprint" for f in findings)

    def test_too_few_schemes_fails(self):
        findings = check_tune_manifest(self._payload(schemes=("a", "b")))
        assert any(f.level == "fail" and f.field == "schemes" for f in findings)

    def test_a_best_row_without_scheme_keeps_the_other_findings(self):
        payload = self._payload()
        payload["best"][0]["refingerprint"] = "cd" * 32
        del payload["best"][1]["scheme"]
        findings = check_tune_manifest(payload)
        assert sorted((f.level, f.case, f.field) for f in findings) == [
            ("fail", "BENCH_tune.json", "schemes"),
            ("hard", "BENCH_tune.json", "best"),
            ("hard", "a-case", "refingerprint"),
        ]

    def test_committed_baseline_passes(self):
        payload = json.loads(manifest_path("tune").read_text())
        assert check_tune_manifest(payload) == []
        # The acceptance criterion: the tuner beats the static defaults'
        # p99 on at least one built-in traffic scenario.
        assert any(row["improvement_pct"] > 0 for row in payload["best"])


class TestPolicyFeed:
    BEST = [
        {"scheme": "rma-rw", "benchmark": "traffic-readheavy",
         "param": "t_r", "params": {"t_r": 16}},
        {"scheme": "hbo", "benchmark": "traffic-zipf",
         "param": "local_cap_us", "params": {"local_cap_us": 0.5}},
    ]

    def test_policy_from_best_rows(self):
        table = policy_from_tune(self.BEST)
        assert len(table.rules) == 2
        rule = table.rules[0]
        assert rule.scheme == "rma-rw"
        assert rule.params == (("t_r", 16),)
        # traffic-readheavy is read-dominated: gate on a high read fraction.
        assert rule.min_read_fraction == 0.5 and rule.max_read_fraction == 1.0

    def test_policy_from_manifest_path(self, tmp_path):
        path = tmp_path / "tune.json"
        path.write_text(json.dumps({"best": self.BEST}))
        table = policy_from_tune(path)
        assert {r.scheme for r in table.rules} == {"rma-rw", "hbo"}

    def test_committed_baseline_feeds_a_valid_policy(self):
        table = policy_from_tune(manifest_path("tune"))
        assert len(table.rules) >= 3  # rule validation ran for every winner


class TestAdapterAxes:
    """Tunable parameters of adapter-driven (harness=False) schemes.

    The old behavior silently dropped every parameter on the adapter path:
    the tune sweep would measure the identical point N times and report a
    sensitivity series that was pure noise.  Now the axis is either live
    (the adapter accepts the parameter) or loudly refused/warned about.
    """

    @pytest.fixture
    def adapter_scheme(self):
        from repro.api.registry import ParamSpec, register_scheme, unregister
        from repro.related.hbo import HBOLockSpec

        name = "test-tune-adapter-lock"

        def adapter(machine, local_cap_us=2.0):
            return HBOLockSpec(machine, local_cap_us=float(local_cap_us))

        @register_scheme(
            name,
            category="test",
            harness=False,
            params=(
                ParamSpec("local_cap_us", float, 2.0, "live adapter knob"),
                ParamSpec("dead_knob", float, 1.0, "knob the adapter drops"),
            ),
            conformance_adapter=adapter,
        )
        def _build(machine):  # native protocol irrelevant for these tests
            return HBOLockSpec(machine)

        yield name
        unregister("scheme", name)

    def test_adapter_param_axis_is_live(self, adapter_scheme):
        from repro.bench.harness import build_lock_spec
        from repro.bench.workloads import LockBenchConfig
        from repro.topology.machine import Machine

        machine = Machine.cluster(nodes=2, procs_per_node=2)
        config = LockBenchConfig(
            machine=machine, scheme=adapter_scheme,
            params=(("local_cap_us", 8.0),),
        )
        spec, _ = build_lock_spec(config)
        assert spec.local_cap_us == 8.0

    def test_dropped_adapter_param_warns(self, adapter_scheme):
        from repro.bench.harness import build_lock_spec
        from repro.bench.workloads import LockBenchConfig
        from repro.topology.machine import Machine

        machine = Machine.cluster(nodes=2, procs_per_node=2)
        config = LockBenchConfig(
            machine=machine, scheme=adapter_scheme,
            params=(("dead_knob", 3.0),),
        )
        with pytest.warns(RuntimeWarning, match="dead_knob"):
            build_lock_spec(config)

    def test_grid_on_a_dead_adapter_axis_is_refused(self, adapter_scheme):
        with pytest.raises(ValueError, match="silent no-op"):
            TuneGrid(
                scheme=adapter_scheme, param="dead_knob",
                scenario="traffic-zipf", values=(0.5, 2.0),
            )

    def test_grid_on_a_live_adapter_axis_is_accepted(self, adapter_scheme):
        grid = TuneGrid(
            scheme=adapter_scheme, param="local_cap_us",
            scenario="traffic-zipf", values=(0.5, 2.0),
        )
        assert len(grid.points()) == 3

    def test_new_lock_family_params_are_tunable_axes(self):
        # lock-server's retry-vs-queue threshold is the tentpole's policy
        # knob: the curated axis spans the pure-queue (0) and pure-retry
        # (>= P) endpoints of arxiv 1507.03274.
        assert derive_axis("lock-server", "queue_threshold") == (0, 1, 2, 8, 32)
        grid = TuneGrid(
            scheme="lock-server", param="queue_threshold",
            scenario="traffic-zipf", values=derive_axis("lock-server", "queue_threshold"),
        )
        assert len(grid.points()) == 6
