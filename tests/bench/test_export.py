"""Tests for exporting benchmark rows to CSV/JSON."""

from __future__ import annotations

import csv
import json

from repro.bench.export import rows_to_csv, rows_to_json, save_figure_rows

ROWS = [
    {"P": 4, "scheme": "a", "throughput_mln_s": 1.25},
    {"P": 8, "scheme": "b", "throughput_mln_s": 2.5, "extra": "note"},
]


def _csv_rows(path):
    with path.open(newline="") as handle:
        return list(csv.DictReader(handle))


def _json_rows(path):
    return json.loads(path.read_text())["rows"]


class TestCsv:
    def test_round_trip(self, tmp_path):
        path = rows_to_csv(ROWS, tmp_path / "fig.csv")
        loaded = _csv_rows(path)
        assert len(loaded) == 2
        assert loaded[0]["scheme"] == "a"
        assert float(loaded[1]["throughput_mln_s"]) == 2.5

    def test_union_of_columns(self, tmp_path):
        path = rows_to_csv(ROWS, tmp_path / "fig.csv")
        header = path.read_text().splitlines()[0]
        assert header.split(",") == ["P", "scheme", "throughput_mln_s", "extra"]

    def test_creates_parent_directories(self, tmp_path):
        path = rows_to_csv(ROWS, tmp_path / "nested" / "deep" / "fig.csv")
        assert path.exists()

    def test_empty_rows(self, tmp_path):
        path = rows_to_csv([], tmp_path / "empty.csv")
        assert _csv_rows(path) == []


class TestJson:
    def test_round_trip_preserves_types(self, tmp_path):
        path = rows_to_json(ROWS, tmp_path / "fig.json")
        loaded = _json_rows(path)
        assert loaded[0]["P"] == 4
        assert loaded[1]["throughput_mln_s"] == 2.5

    def test_metadata_stored(self, tmp_path):
        path = rows_to_json(ROWS, tmp_path / "fig.json", metadata={"figure": "5b", "seed": 1})
        payload = json.loads(path.read_text())
        assert payload["metadata"] == {"figure": "5b", "seed": 1}


class TestSaveFigureRows:
    def test_writes_both_formats(self, tmp_path):
        out = save_figure_rows(ROWS, tmp_path / "figures", "fig5b")
        assert out["csv"].name == "fig5b.csv"
        assert out["json"].name == "fig5b.json"
        assert _csv_rows(out["csv"])[0]["scheme"] == "a"
        assert _json_rows(out["json"])[1]["scheme"] == "b"

    def test_integration_with_figure_driver(self, tmp_path):
        from repro.bench import experiments

        rows = experiments.figure4a(t_dc_values=(1,), process_counts=(4,), iterations=4, procs_per_node=4).rows
        out = save_figure_rows(rows, tmp_path, "fig4a")
        loaded = _json_rows(out["json"])
        assert loaded and loaded[0]["figure"] == "4a"
