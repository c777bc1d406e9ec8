"""Benchmark harness, workloads and figure drivers for the paper's evaluation.

The figure drivers live in :mod:`repro.bench.experiments`, imported on use
(``from repro.bench import experiments``) so ``import repro.bench`` stays light.
"""

from repro.bench.ascii_plot import bar_chart, line_chart
from repro.bench.export import rows_to_csv, rows_to_json, save_figure_rows
from repro.bench.harness import (
    LockBenchResult,
    build_lock_spec,
    default_scheduler,
    run_lock_benchmark,
)
from repro.bench.report import format_figure, format_table, pivot_rows, summarize_speedup
from repro.bench.trace import (
    TraceEvent,
    TraceRecorder,
    TraceSummary,
    distance_breakdown,
    hottest_targets,
    render_rank_activity,
    summarize_trace,
    trace_rows_by_distance,
)
from repro.bench.workloads import (
    BENCHMARKS,
    MCS_SCHEMES,
    RELATED_MCS_SCHEMES,
    RELATED_RW_SCHEMES,
    RW_SCHEMES,
    SCHEMES,
    LockBenchConfig,
    bench_scale,
    default_process_counts,
)

__all__ = [
    "BENCHMARKS",
    "LockBenchConfig",
    "LockBenchResult",
    "MCS_SCHEMES",
    "RELATED_MCS_SCHEMES",
    "RELATED_RW_SCHEMES",
    "RW_SCHEMES",
    "SCHEMES",
    "TraceEvent",
    "TraceRecorder",
    "TraceSummary",
    "bar_chart",
    "bench_scale",
    "build_lock_spec",
    "default_process_counts",
    "default_scheduler",
    "distance_breakdown",
    "format_figure",
    "format_table",
    "hottest_targets",
    "line_chart",
    "pivot_rows",
    "render_rank_activity",
    "rows_to_csv",
    "rows_to_json",
    "run_lock_benchmark",
    "save_figure_rows",
    "summarize_speedup",
    "summarize_trace",
    "trace_rows_by_distance",
]
