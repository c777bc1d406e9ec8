"""Smoke tests of the figure drivers on tiny sweeps.

Each driver runs with a reduced process-count list and iteration count so the
whole module stays fast; the point is to validate row schemas, parameter
plumbing and the mapping from rows to paper figures, not performance numbers
(those live in benchmarks/).
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.api.registry import get_scheme, register_scheme, unregister
from repro.bench import experiments
from repro.bench.campaign import CampaignSpec, ResultCache, run_campaign, run_point, run_sweep
from repro.topology.builder import cached_machine

from tests.reference import ReferenceRuntime

TINY = {"process_counts": (4, 8), "iterations": 5, "procs_per_node": 4}
TINY_NO_ITERS = {"process_counts": (4, 8), "procs_per_node": 4}


class TestFigure3:
    def test_rows_cover_schemes_and_benchmarks(self):
        rows = experiments.figure3(benchmarks=("lb", "ecsb"), **TINY).rows
        assert {r["figure"] for r in rows} == {"3a", "3b"}
        assert {r["scheme"] for r in rows} == {"fompi-spin", "d-mcs", "rma-mcs"}
        assert {r["P"] for r in rows} == {4, 8}
        assert all(r["throughput_mln_s"] > 0 for r in rows)


class TestFigure4:
    def test_t_dc_sweep(self):
        rows = experiments.figure4a(t_dc_values=(1, 4), **TINY).rows
        assert {r["t_dc"] for r in rows} == {1, 4}
        assert all(r["figure"] == "4a" for r in rows)

    def test_t_dc_values_exceeding_p_are_skipped(self):
        rows = experiments.figure4a(t_dc_values=(1, 64), process_counts=(4,), iterations=4, procs_per_node=4).rows
        assert {r["t_dc"] for r in rows} == {1}

    def test_tl_product_sweep(self):
        rows = experiments.figure4b(tl_products=(8, 16), **TINY).rows
        assert {r["tl_product"] for r in rows} == {8, 16}

    def test_tl_split_sweep(self):
        rows = experiments.figure4c(product=16, **TINY).rows
        assert {r["tl_split"] for r in rows} == {"2-8", "4-4", "8-2"}
        assert all(r["figure"] == "4c" for r in rows)

    def test_tl_split_latency_variant(self):
        rows = experiments.figure4d(product=16, **TINY).rows
        assert all(r["figure"] == "4d" for r in rows)
        assert all(r["latency_us"] > 0 for r in rows)

    def test_t_r_sweep(self):
        rows = experiments.figure4e(t_r_values=(8, 16), **TINY).rows
        assert {r["t_r"] for r in rows} == {8, 16}

    def test_t_r_fw_interaction(self):
        rows = experiments.figure4f(t_r_values=(8,), fw_values=(0.02, 0.05), **TINY).rows
        assert {r["series"] for r in rows} == {"8-2%", "8-5%"}


class TestFigure5:
    def test_series_labels_combine_scheme_and_fw(self):
        rows = experiments.figure5(benchmarks=("ecsb",), fw_values=(0.02,), **TINY).rows
        assert {r["series"] for r in rows} == {"rma-rw 2%", "fompi-rw 2%"}
        assert all(r["figure"] == "5b" for r in rows)


class TestFigure6:
    def test_dht_rows(self):
        rows = experiments.figure6(fw_values=(0.05,), ops_per_process=4, process_counts=(4, 8), procs_per_node=4).rows
        assert {r["scheme"] for r in rows} == {"fompi-a", "fompi-rw", "rma-rw"}
        assert all(r["figure"] == "6b" for r in rows)
        assert all(r["total_time_us"] > 0 for r in rows)


class TestAblations:
    def test_counter_placement(self):
        rows = experiments.ablation_counter_placement(**TINY).rows
        assert {r["series"] for r in rows} == {"dc-per-node", "dc-single"}

    def test_flat_latency(self):
        rows = experiments.ablation_flat_latency(**TINY).rows
        assert {r["fabric"] for r in rows} == {"hierarchical", "flat"}

    def test_locality(self):
        rows = experiments.ablation_locality(t_l2_values=(1, 4), **TINY).rows
        assert {r["t_l2"] for r in rows} == {1, 4}


class TestHandoffLocalityAblation:
    def test_reports_locality_and_throughput(self):
        rows = experiments.ablation_handoff_locality(
            t_l2_values=(1, 8), process_counts=(8,), iterations=5, procs_per_node=4
        ).rows
        assert {r["t_l2"] for r in rows} == {1, 8}
        for row in rows:
            assert 0.0 <= row["node_locality_pct"] <= 100.0
            assert row["throughput_mln_s"] > 0
            assert row["grants"] == 8 * 5

    def test_more_locality_with_larger_threshold(self):
        rows = experiments.ablation_handoff_locality(
            t_l2_values=(1, 8), process_counts=(8,), iterations=6, procs_per_node=4
        ).rows
        by_tl = {r["t_l2"]: r["node_locality_pct"] for r in rows}
        assert by_tl[8] >= by_tl[1]


class TestFabricContentionAblation:
    def test_rows_cover_both_fabrics_and_schemes(self):
        rows = experiments.ablation_fabric_contention(**TINY).rows
        assert {r["fabric"] for r in rows} == {"endpoint-only", "dragonfly-links"}
        assert {r["scheme"] for r in rows} == {"d-mcs", "rma-mcs"}
        assert all(r["throughput_mln_s"] > 0 for r in rows)

    def test_link_contention_never_speeds_up_a_scheme(self):
        rows = experiments.ablation_fabric_contention(process_counts=(8,), iterations=6, procs_per_node=4).rows
        by_series = {r["series"]: r["throughput_mln_s"] for r in rows}
        assert by_series["rma-mcs (dragonfly-links)"] <= by_series["rma-mcs (endpoint-only)"] * 1.001
        assert by_series["d-mcs (dragonfly-links)"] <= by_series["d-mcs (endpoint-only)"] * 1.001


#: The sixteen figure drivers (everything exported but the node-size constant).
DRIVERS = [name for name in experiments.__all__ if name != "DEFAULT_PROCS_PER_NODE"]


class TestFiguresOnTheSweepEngine:
    def test_points_of_different_workers_never_share_a_cache_key(self, monkeypatch, tmp_path):
        """Lock, DHT and hand-off points may share the cache only with their own kind."""
        grids = []

        class Captured(Exception):
            pass

        def capture(suite, name, points, worker, **sweep):
            grids.append((points, worker))
            raise Captured

        monkeypatch.setattr(experiments, "run_sweep", capture)
        assert len(DRIVERS) == 16
        for name in DRIVERS:
            with pytest.raises(Captured):
                getattr(experiments, name)(process_counts=(4, 8))
        cache = ResultCache(tmp_path, epoch="e")
        owner = {}
        for points, worker in grids:
            for point in points:
                assert owner.setdefault(cache.key(point), worker) is worker, point.case
        assert {worker for _, worker in grids} == {
            run_point, experiments._dht_row, experiments._handoff_row,
        }

    def test_a_figure_point_equal_to_a_campaign_point_is_one_cache_entry(self, tmp_path):
        levels = cached_machine(8, 4).n_levels
        campaign = run_campaign(
            CampaignSpec(
                name="locality-twin", schemes=("rma-mcs",), benchmarks=("ecsb",),
                process_counts=(8,), fw_values=(0.002,), iterations=5, procs_per_node=4,
                seed=13, params=(("t_l", (1,) * levels),),
            ),
            jobs=1, cache_dir=tmp_path,
        )
        figure = experiments.ablation_locality(
            t_l2_values=(1,), process_counts=(8,), iterations=5, procs_per_node=4,
            jobs=1, cache_dir=tmp_path,
        )
        assert (figure.cache_hits, figure.cache_misses) == (1, 0)
        assert figure.rows[0]["throughput_mln_s"] == round(campaign.rows[0]["throughput_mln_s"], 4)
        assert figure.rows[0]["latency_us"] == round(campaign.rows[0]["latency_mean_us"], 3)

    def test_third_party_related_mcs_scheme_joins_the_comparison(self):
        register_scheme("figures-test-lock", category="related-mcs")(get_scheme("ticket").builder)
        try:
            report = experiments.related_mcs_comparison(
                benchmarks=("ecsb",), process_counts=(4,), iterations=4, procs_per_node=4,
                jobs=2, cache=False,
            )
        finally:
            unregister("scheme", "figures-test-lock")
        rows = {row["series"]: row for row in report.rows}
        assert rows["figures-test-lock"]["throughput_mln_s"] == rows["ticket"]["throughput_mln_s"] > 0

    def test_scheduler_rides_on_every_point(self, reference, monkeypatch):
        """DHT and hand-off points run on the runtime they name, like lock
        points: each driver's grid, every point moved to the reference
        interpreter, gives the same figure rows."""
        tiny = {"process_counts": (4,), "procs_per_node": 4, "jobs": 1, "cache": False}
        drivers = [
            ("figure6", {"fw_values": (0.05,), "ops_per_process": 4}),
            ("ablation_handoff_locality", {"t_l2_values": (1, 4), "iterations": 4}),
            ("ablation_locality", {"t_l2_values": (1,), "iterations": 4}),
        ]
        on_horizon = [getattr(experiments, name)(**kwargs, **tiny).rows for name, kwargs in drivers]

        def on_reference(suite, name, points, worker, **sweep):
            assert {point.scheduler for point in points} == {"horizon"}
            points = [replace(point, scheduler=reference) for point in points]
            return run_sweep(suite, name, points, worker, **sweep)

        runs = []
        run = ReferenceRuntime.run
        monkeypatch.setattr(experiments, "run_sweep", on_reference)
        monkeypatch.setattr(ReferenceRuntime, "run", lambda *a, **k: runs.append(1) or run(*a, **k))
        for (name, kwargs), rows in zip(drivers, on_horizon):
            before = len(runs)
            assert getattr(experiments, name)(**kwargs, **tiny).rows == rows, name
            assert len(runs) > before, name

    @pytest.mark.parametrize("name, kwargs", [
        ("figure6", {"fw_values": (0.05,), "ops_per_process": 4}),
        ("ablation_handoff_locality", {"t_l2_values": (1,), "iterations": 4}),
        ("figure4a", {"t_dc_values": (1,), "iterations": 4}),
    ])
    def test_a_warm_run_prints_the_cold_rows_column_for_column(self, name, kwargs, tmp_path):
        """The cache stores rows key-sorted; the saved CSV's column order must not follow."""
        driver = getattr(experiments, name)
        sweep = {"process_counts": (4,), "procs_per_node": 4, "jobs": 1, "cache_dir": tmp_path}
        cold = driver(**kwargs, **sweep).rows
        warm = driver(**kwargs, **sweep).rows
        assert all(row["cached"] for row in warm)
        items = lambda rows: [[(k, v) for k, v in row.items() if k != "cached"] for row in rows]
        assert items(warm) == items(cold)
