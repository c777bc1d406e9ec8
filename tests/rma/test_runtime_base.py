"""Tests for the runtime-agnostic pieces: RunResult and the spin convenience wrapper."""

from __future__ import annotations

import pytest

from repro.rma.runtime_base import RunResult
from repro.rma.sim_runtime import SimRuntime
from repro.topology.machine import Machine


class TestRunResult:
    def test_counts_and_totals(self):
        result = RunResult(
            returns=[1, 2, 3],
            finish_times_us=[5.0, 7.0, 6.0],
            total_time_us=7.0,
            op_counts={"put": 3, "get": 2},
            per_rank_op_counts=[{"put": 1}, {"put": 1, "get": 2}, {"put": 1}],
        )
        assert result.total_ops() == 5

    def test_empty_op_counts(self):
        result = RunResult(returns=[], finish_times_us=[], total_time_us=0.0)
        assert result.total_ops() == 0


class TestSpinWhileWrapper:
    def test_single_cell_wrapper_delegates_to_multi_cell(self):
        machine = Machine.single_node(2)
        rt = SimRuntime(machine, window_words=4)

        def program(ctx):
            if ctx.rank == 0:
                ctx.compute(5.0)
                ctx.put(3, 1, 2)
                ctx.flush(1)
                return None
            return ctx.spin_while(1, 2, lambda v: v < 3)

        result = rt.run(program)
        assert result.returns[1] == 3

    def test_spin_returns_immediately_when_condition_already_false(self):
        machine = Machine.single_node(2)
        rt = SimRuntime(machine, window_words=4)

        def program(ctx):
            start = ctx.now()
            value = ctx.spin_while(ctx.rank, 0, lambda v: v != 0)  # already 0
            return value, ctx.now() - start

        result = rt.run(program)
        for value, elapsed in result.returns:
            assert value == 0
            assert elapsed < 5.0  # one local get + flush, no parking
