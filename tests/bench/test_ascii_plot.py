"""Tests for the plain-text chart renderer."""

from __future__ import annotations

import pytest

from repro.bench.ascii_plot import bar_chart, line_chart


class TestLineChart:
    def test_renders_all_series_with_distinct_markers(self):
        chart = line_chart(
            {
                "rma-mcs": [(16, 1.0), (64, 2.0), (256, 3.0)],
                "fompi-spin": [(16, 0.8), (64, 0.4), (256, 0.1)],
            },
            title="ECSB throughput",
            x_label="P",
            y_label="mln locks/s",
        )
        assert "ECSB throughput" in chart
        assert "legend: o rma-mcs   x fompi-spin" in chart
        assert "o" in chart and "x" in chart
        assert "mln locks/s" in chart

    def test_log_scale_annotation(self):
        chart = line_chart(
            {"latency": [(16, 10.0), (1024, 1000.0)]},
            log_y=True,
            y_label="us",
        )
        assert "(log scale)" in chart

    def test_single_point_series_does_not_crash(self):
        chart = line_chart({"one": [(8, 5.0)]})
        assert "|" in chart

    def test_rejects_empty_and_degenerate_input(self):
        with pytest.raises(ValueError):
            line_chart({})
        with pytest.raises(ValueError):
            line_chart({"a": []})
        with pytest.raises(ValueError):
            line_chart({"a": [(1, 1)]}, width=4)

    def test_axis_labels_show_extremes(self):
        chart = line_chart({"s": [(4, 1.0), (64, 9.0)]})
        assert "4" in chart
        assert "64" in chart
        assert "9" in chart


class TestBarChart:
    def test_longest_bar_for_largest_value(self):
        chart = bar_chart({"same_node": 80.0, "remote": 20.0}, width=20, unit="%")
        lines = chart.splitlines()
        same_node_len = lines[0].count("#")
        remote_len = lines[1].count("#")
        assert same_node_len == 20
        assert remote_len < same_node_len
        assert "%" in chart

    def test_zero_values_render_empty_bars(self):
        chart = bar_chart({"a": 0.0, "b": 0.0})
        assert "#" not in chart

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            bar_chart({})
        with pytest.raises(ValueError):
            bar_chart({"a": -1.0})
        with pytest.raises(ValueError):
            bar_chart({"a": 1.0}, width=2)

    def test_title_is_included(self):
        assert bar_chart({"a": 1.0}, title="shares").startswith("shares")
