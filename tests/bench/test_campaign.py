"""Tests for the campaign engine: grids, parallel execution, result cache.

The executor contract every suite shares (warm re-runs hit, refresh
recomputes, ``cache=False`` stores nothing, ``jobs=2`` equals ``jobs=1``)
is held in ``tests/bench/test_sweep_contract.py``.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from repro.api.registry import (
    UnknownNameError,
    get_scheme,
    register_scheme,
    scheme_names,
    unregister,
)
from repro.bench.campaign import (
    DETERMINISM_FIELDS,
    CampaignPoint,
    CampaignSpec,
    ResultCache,
    cache_epoch,
    campaign_names,
    get_campaign,
    parallel_map,
    register_campaign,
    run_campaign,
    run_point,
    unregister_campaign,
)

#: Small grid used throughout: 2 schemes x 2 machine sizes, tiny iterations.
TINY = CampaignSpec(
    name="tiny-test",
    schemes=("rma-mcs", "ticket"),
    benchmarks=("ecsb",),
    process_counts=(4, 8),
    fw_values=(0.02,),
    iterations=3,
    procs_per_node=4,
    seed=5,
)


def _strip_host_fields(row):
    return {k: v for k, v in row.items() if k not in ("wall_s", "sim_ops_per_s", "cached")}


class TestCampaignSpec:
    def test_ci_gate_covers_every_harness_scheme(self):
        points = get_campaign("ci-gate").points()
        assert {p.scheme for p in points} == set(scheme_names(harness=True))
        assert {p.procs for p in points} == {8, 32, 64}
        assert {p.benchmark for p in points} == {"wcsb"}
        # nine schemes x three process counts
        assert len(points) == 3 * len(scheme_names(harness=True))

    def test_selector_resolves_third_party_schemes(self):
        """A freshly registered lock joins selector-based campaigns for free."""
        builder = get_scheme("fompi-spin").builder
        register_scheme("campaign-test-lock", category="custom")(builder)
        try:
            points = get_campaign("ci-gate").points()
            assert "campaign-test-lock" in {p.scheme for p in points}
        finally:
            unregister("scheme", "campaign-test-lock")

    def test_unknown_scheme_selector_raises_with_suggestion(self):
        spec = CampaignSpec(name="bad", schemes=("rma-mc",))
        with pytest.raises(UnknownNameError, match="rma-mcs"):
            spec.points()

    def test_literal_non_harness_scheme_rejected_early(self):
        """A harness=False scheme without a conformance adapter must be
        rejected up front instead of crashing inside a pool worker.

        striped-rw (harness=False *with* an adapter) is a valid grid citizen
        since the traffic engine drives its native striped table; a scheme
        with neither capability still fails at expansion time.
        """
        from repro.api.registry import register_scheme, unregister

        striped = CampaignSpec(name="striped-ok", schemes=("striped-rw",))
        assert [p.scheme for p in striped.points()]

        @register_scheme("no-adapter-lock", harness=False)
        def _build(machine):  # pragma: no cover - expansion fails before building
            raise AssertionError

        try:
            bad = CampaignSpec(name="bad-harness", schemes=("no-adapter-lock",))
            with pytest.raises(ValueError, match="cannot run in a campaign grid"):
                bad.points()
        finally:
            unregister("scheme", "no-adapter-lock")

    def test_non_rw_schemes_skip_extra_writer_fractions(self):
        spec = CampaignSpec(
            name="fw-axis",
            schemes=("rma-mcs", "rma-rw"),
            benchmarks=("ecsb",),
            process_counts=(4,),
            fw_values=(0.002, 0.2),
            iterations=2,
            procs_per_node=4,
        )
        points = spec.points()
        assert sum(1 for p in points if p.scheme == "rma-mcs") == 1
        assert sum(1 for p in points if p.scheme == "rma-rw") == 2

    def test_case_names_are_unique(self):
        for name in campaign_names():
            points = get_campaign(name).points()
            assert len({p.case for p in points}) == len(points)

    def test_case_names_cover_every_config_axis(self):
        """Distinct points must never collide on one baseline row key."""
        from dataclasses import replace

        base = CampaignPoint(scheme="rma-mcs", benchmark="ecsb", procs=8)
        for change in (
            {"iterations": 99},
            {"procs_per_node": 4},
            {"scheduler": "reference"},
            {"topology": "figure2"},
            {"seed": 9},
            {"fw": 0.5},
        ):
            assert replace(base, **change).case != base.case, change

    def test_param_overlay_joins_the_case_name_and_config(self):
        from dataclasses import replace

        base = CampaignPoint(scheme="hbo", benchmark="ecsb", procs=8,
                             params=(("local_cap_us", 0.5),))
        assert "local_cap_us=0.5" in base.case
        assert replace(base, params=()).case != base.case
        config = base.config()
        # Non-config-field params ride in the generic overlay...
        assert config.params == (("local_cap_us", 0.5),)
        # ...while params naming LockBenchConfig fields stay direct kwargs
        # (the historical cache-key behavior for the t_* thresholds).
        legacy = CampaignPoint(scheme="rma-rw", benchmark="ecsb", procs=8,
                               params=(("t_r", 16),))
        legacy_config = legacy.config()
        assert legacy_config.t_r == 16 and legacy_config.params == ()

    def test_points_carry_their_provider_module(self):
        points = get_campaign("ci-gate").points()
        providers = {p.scheme: p.provider for p in points}
        assert providers["rma-rw"] == "repro.core.rma_rw"
        assert providers["ticket"] == "repro.related.ticket"

    def test_register_and_unregister(self):
        spec = CampaignSpec(name="throwaway", schemes=("ticket",), process_counts=(4,))
        register_campaign(spec)
        try:
            assert get_campaign("throwaway") is spec
            with pytest.raises(ValueError, match="already registered"):
                register_campaign(CampaignSpec(name="throwaway"))
        finally:
            unregister_campaign("throwaway")
        with pytest.raises(UnknownNameError):
            get_campaign("throwaway")


class TestResultCache:
    def test_miss_then_hit_roundtrip(self, tmp_path):
        cache = ResultCache(tmp_path, epoch="e1")
        report = run_campaign(TINY, jobs=1, cache=cache)
        assert report.cache_misses == report.points == 4
        assert all(row["cached"] is False for row in report.rows)

        again = run_campaign(TINY, jobs=1, cache=ResultCache(tmp_path, epoch="e1"))
        assert again.cache_hits == again.points == 4
        assert all(row["cached"] is True for row in again.rows)
        for fresh, cached in zip(report.rows, again.rows):
            assert _strip_host_fields(fresh) == _strip_host_fields(cached)
            # perf fields survive the JSON round-trip too
            assert fresh["sim_ops_per_s"] == cached["sim_ops_per_s"]

    def test_epoch_change_invalidates(self, tmp_path):
        run_campaign(TINY, jobs=1, cache=ResultCache(tmp_path, epoch="e1"))
        other = run_campaign(TINY, jobs=1, cache=ResultCache(tmp_path, epoch="e2"))
        assert other.cache_hits == 0
        assert other.cache_misses == other.points

    def test_epoch_follows_the_package_sources(self, tmp_path, monkeypatch):
        """One changed byte in any ``*.py`` of the package moves the epoch;
        other files and an unchanged tree do not."""
        import repro.bench.campaign as campaign_mod

        (tmp_path / "core").mkdir()
        (tmp_path / "__init__.py").write_text("")
        scheme = tmp_path / "core" / "scheme.py"
        scheme.write_text("T_L = 4\n")
        monkeypatch.setattr(campaign_mod, "_PACKAGE_ROOT", tmp_path)
        monkeypatch.delenv("REPRO_CACHE_EPOCH", raising=False)
        epoch = campaign_mod._source_epoch.__wrapped__
        before = epoch()
        (tmp_path / "notes.txt").write_text("not source")
        assert epoch() == before
        scheme.write_text("T_L = 5\n")
        assert epoch() != before
        scheme.write_text("T_L = 4\n")
        assert epoch() == before
        monkeypatch.setattr(campaign_mod, "CACHE_SCHEMA_VERSION", campaign_mod.CACHE_SCHEMA_VERSION + 1)
        assert epoch() != before

    def test_epoch_is_computed_once_and_env_overrides_it(self, monkeypatch):
        monkeypatch.delenv("REPRO_CACHE_EPOCH", raising=False)
        assert cache_epoch() == cache_epoch() != ""
        monkeypatch.setenv("REPRO_CACHE_EPOCH", "pinned")
        assert cache_epoch() == "pinned"
        assert ResultCache(Path("unused")).epoch == "pinned"

    def test_key_depends_on_point_configuration(self, tmp_path):
        from dataclasses import replace

        cache = ResultCache(tmp_path, epoch="e1")
        base = CampaignPoint(scheme="rma-mcs", benchmark="ecsb", procs=4, procs_per_node=4)
        assert cache.key(base) != cache.key(replace(base, seed=9))
        assert cache.key(base) != cache.key(replace(base, iterations=7))
        assert cache.key(base) != cache.key(replace(base, params=(("t_l", (2, 2)),)))
        assert cache.key(base) == cache.key(
            CampaignPoint(scheme="rma-mcs", benchmark="ecsb", procs=4, procs_per_node=4)
        )

    @pytest.mark.parametrize("content", ["[]", "1", '"x"', "{}", '{"scheme": "tick'], ids=[
        "list", "number", "string", "empty-object", "truncated"])
    def test_a_corrupt_entry_is_a_miss_that_is_rewritten(self, content, tmp_path):
        spec = replace(TINY, name="one-point", schemes=("ticket",), process_counts=(4,))
        cache = ResultCache(tmp_path, epoch="e1")
        cold = run_campaign(spec, jobs=1, cache=cache)
        path = cache.path(spec.points()[0])
        stored = path.read_text()
        path.write_text(content)
        again = run_campaign(spec, jobs=1, cache=cache)
        assert again.cache_hits == 0 and again.cache_misses == 1
        assert _strip_host_fields(again.rows[0]) == _strip_host_fields(cold.rows[0])
        assert path.read_text() != content and json.loads(path.read_text()).keys() == json.loads(stored).keys()

    def test_prune_removes_stale_epochs(self, tmp_path):
        run_campaign(TINY, jobs=1, cache=ResultCache(tmp_path, epoch="old"))
        cache = ResultCache(tmp_path, epoch="new")
        run_campaign(TINY, jobs=1, cache=cache)
        assert cache.prune() == 1
        assert len(list(cache.dir.glob("*.json"))) == 4
        # the current epoch survives pruning
        assert run_campaign(TINY, jobs=1, cache=cache).cache_hits == 4


class TestParallelExecution:
    def test_scheduler_override_keeps_rows_identical(self, reference):
        horizon = run_campaign(TINY, jobs=1, cache=False)
        twin = run_campaign(TINY, jobs=1, cache=False, scheduler=reference)
        for h_row, b_row in zip(horizon.rows, twin.rows):
            for field in DETERMINISM_FIELDS:
                assert h_row[field] == b_row[field]
            assert b_row["scheduler"] == reference

    def test_unknown_scheduler_rejected_early(self):
        with pytest.raises(UnknownNameError):
            run_campaign(TINY, jobs=1, cache=False, scheduler="bogus")

    def test_unknown_name_error_survives_pickling(self):
        """A worker raising UnknownNameError must not kill the pool's result
        handler (which unpickles the exception in the parent)."""
        import pickle

        err = UnknownNameError("scheme", "nope", ["a", "b"])
        clone = pickle.loads(pickle.dumps(err))
        assert isinstance(clone, UnknownNameError)
        assert (clone.kind, clone.name, clone.known) == (err.kind, err.name, err.known)
        assert str(clone) == str(err)

    def test_worker_error_propagates_instead_of_hanging(self):
        """End-to-end: an unknown scheme raised inside a pool worker surfaces
        in the parent as the helpful registry error."""
        good = CampaignPoint(scheme="rma-mcs", benchmark="ecsb", procs=4, procs_per_node=4, iterations=2)
        bad = replace(good, scheme="rma-mc")
        with pytest.raises(UnknownNameError, match="rma-mcs"):
            parallel_map(run_point, [good, bad], jobs=2)

    def test_a_killed_worker_breaks_the_map_instead_of_hanging_it(self):
        """A worker killed mid-sweep (SIGKILL, the OOM killer) raises
        BrokenProcessPool, a RuntimeError the CLI reports, within seconds."""
        script = (
            "import os, signal\n"
            "from concurrent.futures.process import BrokenProcessPool\n"
            "from repro.bench.campaign import parallel_map\n"
            "def die_on_two(x):\n"
            "    if x == 2:\n"
            "        os.kill(os.getpid(), signal.SIGKILL)\n"
            "    return x\n"
            "try:\n"
            "    parallel_map(die_on_two, range(4), jobs=2)\n"
            "except BrokenProcessPool as exc:\n"
            "    assert isinstance(exc, RuntimeError)\n"
            "    print('broken')\n"
        )
        done = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, timeout=60,
            env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "broken"

    def test_report_records_effective_worker_count(self):
        report = run_campaign(TINY, jobs=16, cache=False)
        assert report.jobs == 16
        assert report.workers == min(16, report.points)


class TestRunPoint:
    def test_row_carries_determinism_and_perf_fields(self):
        point = CampaignPoint(
            scheme="rma-rw", benchmark="wcsb", procs=8, procs_per_node=4, iterations=3, fw=0.2, seed=7
        )
        row = run_point(point)
        for field in DETERMINISM_FIELDS:
            assert field in row
        assert row["case"] == "rma-rw-wcsb-p8-fw0.2-s7-i3-ppn4"
        assert row["acquires"] == 8 * 3
        assert len(row["fingerprint"]) == 64
        assert row["wall_s"] >= 0.0

    def test_same_point_is_bit_identical(self):
        point = CampaignPoint(scheme="rma-mcs", benchmark="ecsb", procs=8, procs_per_node=4, iterations=3)
        first = run_point(point)
        second = run_point(point)
        for field in DETERMINISM_FIELDS:
            assert first[field] == second[field]


class TestManifestWrite:
    def test_interrupted_write_keeps_the_old_manifest(self, tmp_path, monkeypatch):
        """A failing rename (an interrupted --bless) leaves the committed
        manifest byte-identical and no tmp file behind."""
        from repro.bench.campaign import SweepReport, write_manifest_json

        path = tmp_path / "BENCH_test.json"
        path.write_text('{"rows": []}\n')
        report = SweepReport(
            suite="campaign", name="t", rows=[{"case": "x", "cached": True}], jobs=1,
            wall_s=0.0, cache_hits=1, cache_misses=0, epoch="e",
        )

        def interrupted(self, target):
            raise OSError("interrupted")

        monkeypatch.setattr(Path, "replace", interrupted)
        with pytest.raises(OSError, match="interrupted"):
            write_manifest_json(report, path)
        assert path.read_text() == '{"rows": []}\n'
        assert sorted(p.name for p in tmp_path.iterdir()) == ["BENCH_test.json"]
        monkeypatch.undo()
        write_manifest_json(report, path)
        assert '"case": "x"' in path.read_text() and '"cached"' not in path.read_text()
