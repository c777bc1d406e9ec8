"""Tests for the conformance & chaos engine (repro.bench.conformance)."""

from __future__ import annotations

import pytest

from repro.api.registry import register_scheme, unregister
from repro.bench.campaign import (
    CampaignPoint,
    ResultCache,
    get_campaign,
    run_result_sha,
    write_manifest_json,
)
from repro.bench.conformance import (
    CHAOS,
    ConformancePoint,
    conformance_points,
    run_conformance,
    run_conformance_point,
)
from repro.bench.harness import run_lock_benchmark_detailed
from repro.bench.workloads import LockBenchConfig
from repro.rma.perturbation import PerturbationModel
from repro.topology.builder import cached_machine


class TestGridExpansion:
    def test_conformance_selector_includes_adapter_schemes(self):
        spec = get_campaign("conformance")
        schemes = spec.resolve_schemes()
        assert "striped-rw" in schemes  # harness=False, but adapter-equipped
        assert "rma-rw" in schemes and "d-mcs" in schemes
        assert len(schemes) >= 10

    def test_points_cross_seeds_with_one_control(self):
        points = conformance_points(schemes=["d-mcs"], benchmarks=["wcsb"],
                                    process_counts=[8], seeds=3)
        assert len(points) == 4  # control + 3 chaos seeds
        controls = [p for p in points if not p.perturbed]
        assert len(controls) == 1
        assert controls[0].perturbation() is None
        assert all(p.perturbation() is not None for p in points if p.perturbed)

    def test_chaos_points_run_under_the_chaos_profile(self):
        from dataclasses import asdict

        points = conformance_points(schemes=["ticket", "rma-rw"], benchmarks=["wcsb"],
                                    process_counts=[8], seeds=2)
        assert [p.perturb_seed for p in points] == [0, 1, 2, 0, 1, 2]
        for p in points:
            expected = (PerturbationModel(seed=p.perturb_seed, **asdict(CHAOS))
                        if p.perturb_seed else None)
            assert p.perturbation() == expected

    def test_case_names_are_unique(self):
        points = conformance_points(seeds=2)
        cases = [p.case for p in points]
        assert len(cases) == len(set(cases))

    def test_third_party_scheme_joins_the_sweep(self):
        from repro.core.lock_base import LockSpec

        class _NullSpec(LockSpec):
            @property
            def window_words(self):
                return 1

            def init_window(self, rank):
                return {}

            def make(self, ctx):  # pragma: no cover - grid-expansion only
                raise NotImplementedError

        @register_scheme("conform-test-lock", category="custom", replace=True)
        def _build(machine):
            return _NullSpec()

        try:
            points = conformance_points(benchmarks=["wcsb"], process_counts=[8], seeds=1)
            assert any(p.point.scheme == "conform-test-lock" for p in points)
        finally:
            unregister("scheme", "conform-test-lock")

    def test_negative_seeds_rejected(self):
        with pytest.raises(ValueError):
            conformance_points(seeds=-1)

    @pytest.mark.parametrize(
        "narrow",
        [{}, dict(schemes=("rma-rw", "d-mcs", "ticket"), benchmarks=("wcsb", "warb"),
                  process_counts=(8,), iterations=3)],
        ids=["registered", "narrowed"],
    )
    def test_points_are_the_campaign_grid_times_control_and_chaos_seeds(self, narrow):
        """Each campaign point gives its control, then ``seeds`` chaos points,
        in the campaign's own order."""
        from dataclasses import replace

        spec = get_campaign("conformance")
        if narrow:
            spec = replace(spec, fw_values=(0.1, 0.5))
        expected = [ConformancePoint(p, s) for p in replace(spec, **narrow).points() for s in range(3)]
        assert conformance_points(spec, seeds=2, **narrow) == expected

    def test_rw_schemes_sweep_the_full_fw_axis(self):
        from dataclasses import replace

        spec = replace(get_campaign("conformance"), fw_values=(0.1, 0.5))
        points = conformance_points(spec, schemes=["rma-rw", "d-mcs"],
                                    benchmarks=["wcsb"], process_counts=[8], seeds=1)
        rw_fws = {p.point.fw for p in points if p.point.scheme == "rma-rw"}
        mcs_fws = {p.point.fw for p in points if p.point.scheme == "d-mcs"}
        assert rw_fws == {0.1, 0.5}  # RW schemes cover every fw value
        assert mcs_fws == {0.1}     # non-RW schemes ignore fw: first value only
        cases = [p.case for p in points]
        assert len(cases) == len(set(cases))  # fw is part of the case name


def _grid(scheme, *, procs=8, iterations=4):
    """A small wcsb grid point at the conformance campaign's fw and seed."""
    return CampaignPoint(scheme=scheme, benchmark="wcsb", procs=procs, procs_per_node=4,
                         iterations=iterations, fw=0.2, seed=5)


class TestPointExecution:
    def test_control_point_fingerprint_matches_plain_harness_run(self):
        """The unperturbed control runs the exact golden-path schedule."""
        point = ConformancePoint(_grid("rma-mcs"))
        row = run_conformance_point(point, recheck=False)
        config = LockBenchConfig(
            machine=cached_machine(8, 4, "xc30"), scheme="rma-mcs",
            benchmark="wcsb", iterations=4, fw=0.2, seed=5,
        )
        _, raw = run_lock_benchmark_detailed(config)
        assert row["fingerprint"] == run_result_sha(raw)
        assert row["ok"]
        assert row["reproducible"] is None  # recheck was off

    def test_recheck_certifies_reproducibility(self):
        point = ConformancePoint(_grid("ticket"), perturb_seed=2)
        row = run_conformance_point(point)
        assert row["reproducible"] is True
        assert row["ok"]
        assert row["bypass_bound"] == 7  # declared FIFO bound at P=8
        assert row["max_bypass"] <= 7

    def test_striped_adapter_point_runs(self):
        point = ConformancePoint(_grid("striped-rw"), perturb_seed=1)
        row = run_conformance_point(point, recheck=False)
        assert row["ok"], row["violations"]
        assert row["acquires"] > 0

    def test_crashing_scheme_yields_failing_row_not_a_crash(self):
        from dataclasses import dataclass
        from typing import Mapping

        from repro.core.lock_base import LockHandle, LockSpec

        @dataclass(frozen=True)
        class _CrashSpec(LockSpec):
            @property
            def window_words(self) -> int:
                return 1

            def init_window(self, rank: int) -> Mapping[int, int]:
                return {}

            def make(self, ctx):
                class _Crash(LockHandle):
                    def acquire(self) -> None:
                        raise KeyError("third-party bug")

                    def release(self) -> None:  # pragma: no cover
                        pass

                return _Crash()

        @register_scheme("conform-crash-lock", category="custom", replace=True)
        def _build(machine):
            return _CrashSpec()

        try:
            point = ConformancePoint(_grid("conform-crash-lock", procs=4, iterations=2))
            row = run_conformance_point(point, recheck=False)
            assert not row["ok"]
            assert any("KeyError" in str(v) for v in row["violations"])
        finally:
            unregister("scheme", "conform-crash-lock")

    def test_deadlocking_scheme_yields_failing_row_not_a_crash(self):
        from dataclasses import dataclass
        from typing import Mapping

        from repro.core.lock_base import LockHandle, LockSpec

        @dataclass(frozen=True)
        class _StuckSpec(LockSpec):
            @property
            def window_words(self) -> int:
                return 1

            def init_window(self, rank: int) -> Mapping[int, int]:
                return {0: 0}

            def make(self, ctx):
                class _Stuck(LockHandle):
                    def acquire(self) -> None:
                        ctx.spin_while(0, 0, lambda v: v == 0)  # never satisfied

                    def release(self) -> None:  # pragma: no cover
                        pass

                return _Stuck()

        @register_scheme("conform-stuck-lock", category="custom", replace=True)
        def _build(machine):
            return _StuckSpec()

        try:
            point = ConformancePoint(_grid("conform-stuck-lock", procs=4, iterations=2))
            row = run_conformance_point(point, recheck=False)
            assert not row["ok"]
            assert any("deadlock" in str(v) for v in row["violations"])
            assert row["fingerprint"] is None
        finally:
            unregister("scheme", "conform-stuck-lock")


class TestSweepAndCache:
    @pytest.fixture
    def cache(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_EPOCH", "conform-test-epoch")
        return ResultCache(tmp_path, namespace="conformance")

    def test_sweep_reports_and_caches(self, cache):
        report = run_conformance(schemes=["d-mcs", "fompi-rw"], benchmarks=["wcsb"],
                                 process_counts=[8], seeds=1, jobs=1, cache=cache,
                                 iterations=3)
        assert report.points == 4  # 2 schemes x (control + 1 seed)
        assert report.ok
        assert report.cache_misses == 4 and report.cache_hits == 0

        again = run_conformance(schemes=["d-mcs", "fompi-rw"], benchmarks=["wcsb"],
                                process_counts=[8], seeds=1, jobs=1, cache=cache,
                                iterations=3)
        assert again.cache_hits == 4 and again.cache_misses == 0
        strip = lambda rows: [{k: v for k, v in r.items() if k != "cached"} for r in rows]
        assert strip(again.rows) == strip(report.rows)

    def test_uncertified_rows_not_served_to_rechecking_sweeps(self, cache):
        """--no-recheck rows carry no determinism certificate; a recheck=True
        sweep must recompute them instead of silently skipping the contract."""
        kwargs = dict(schemes=["ticket"], benchmarks=["wcsb"], process_counts=[8],
                      seeds=1, jobs=1, cache=cache, iterations=3)
        fast = run_conformance(recheck=False, **kwargs)
        assert all(r["reproducible"] is None for r in fast.rows)

        certified = run_conformance(recheck=True, **kwargs)
        assert certified.cache_hits == 0  # uncertified rows were not reused
        assert all(r["reproducible"] is True for r in certified.rows)

        # The certified rows replace the cached ones; a fast sweep can reuse
        # them (extra certificate does no harm) and so can a rechecking one.
        fast_again = run_conformance(recheck=False, **kwargs)
        assert fast_again.cache_misses == 0
        certified_again = run_conformance(recheck=True, **kwargs)
        assert certified_again.cache_misses == 0

    def test_scheme_verdicts_aggregate(self):
        report = run_conformance(schemes=["d-mcs"], benchmarks=["wcsb"],
                                 process_counts=[8], seeds=1, jobs=1, cache=False,
                                 iterations=3)
        verdicts = report.extra["schemes"]
        assert len(verdicts) == 1
        assert verdicts[0]["scheme"] == "d-mcs"
        assert verdicts[0]["verdict"] == "ok"
        assert verdicts[0]["reproducible"] == "yes"

    def test_report_json_round_trip(self, tmp_path):
        import json

        report = run_conformance(schemes=["ticket"], benchmarks=["wcsb"],
                                 process_counts=[8], seeds=1, jobs=1, cache=False,
                                 iterations=3, recheck=False)
        path = write_manifest_json(report, tmp_path / "report.json")
        payload = json.loads(path.read_text())
        assert payload["suite"] == "conformance"
        assert payload["ok"] is True
        assert len(payload["rows"]) == 2
        assert payload["schemes"][0]["scheme"] == "ticket"

    def test_campaign_namespace_isolated_from_conformance(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_EPOCH", "ns-test")
        campaign_cache = ResultCache(tmp_path)
        conformance_cache = ResultCache(tmp_path, namespace="conformance")
        assert campaign_cache.dir != conformance_cache.dir
        point = ConformancePoint(CampaignPoint(scheme="ticket", benchmark="wcsb", procs=8))
        conformance_cache.put(point, {"ok": True})
        assert campaign_cache.get(point) is None
        assert conformance_cache.get(point) == {"ok": True}
