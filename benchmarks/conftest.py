"""Shared configuration for the figure-reproduction benchmarks.

Every benchmark regenerates one figure of the paper's evaluation section by
invoking the corresponding driver in :mod:`repro.bench.experiments` and
reports the resulting series through ``benchmark.extra_info`` (so they land
in the pytest-benchmark JSON) and on stdout (run with ``-s`` to see the
pivoted, paper-style tables).

Sweep sizes default to a quick setting so the full benchmark suite finishes
in a few minutes; set ``REPRO_BENCH_PROCS`` (e.g. ``"4 8 16 32 64"``) and
``REPRO_BENCH_SCALE`` to enlarge them.  The drivers cache their points;
the session's cache lives in a tmp dir (``tests.support.isolated_result_cache``).
"""

from __future__ import annotations

import os
from typing import Sequence, Tuple

import pytest

from tests.support import isolated_result_cache  # noqa: F401 - autouse fixture


def bench_process_counts() -> Tuple[int, ...]:
    env = os.environ.get("REPRO_BENCH_PROCS")
    if env:
        return tuple(int(tok) for tok in env.replace(",", " ").split())
    # The horizon scheduler (PR 1) made P=64 sweeps cheap enough for the
    # default CI-sized run, so the figures now cover the paper's full x-axis.
    return (4, 8, 16, 32, 64)


def bench_iterations(base: int = 12) -> int:
    try:
        scale = float(os.environ.get("REPRO_BENCH_SCALE", "1.0"))
    except ValueError:
        scale = 1.0
    return max(4, int(base * scale))


@pytest.fixture
def process_counts() -> Tuple[int, ...]:
    return bench_process_counts()


@pytest.fixture
def iterations() -> int:
    return bench_iterations()


def attach_series(benchmark, rows: Sequence[dict], *, series: str, value: str, x: str = "P") -> None:
    """Record the figure's series in the benchmark's extra_info and print it."""
    from repro.bench.report import format_figure

    table = format_figure(rows, title=benchmark.name, series=series, value=value, x=x)
    print("\n" + table)
    benchmark.extra_info["series_field"] = series
    benchmark.extra_info["value_field"] = value
    benchmark.extra_info["points"] = [
        {x: row[x], series: row[series], value: row[value]} for row in rows
    ]
