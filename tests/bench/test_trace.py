"""Tests for event tracing and its analysis helpers."""

from __future__ import annotations

import pytest

from repro.bench.trace import (
    TraceEvent,
    TraceRecorder,
    distance_breakdown,
    hottest_targets,
    render_rank_activity,
    summarize_trace,
    trace_rows_by_distance,
)
from repro.core.dmcs import DMCSLockSpec
from repro.core.rma_mcs import RMAMCSLockSpec
from repro.rma.ops import RMACall
from repro.rma.sim_runtime import SimRuntime
from repro.topology.machine import Machine


def _events():
    return [
        TraceEvent(rank=0, call="put", target=1, start_us=0.0, duration_us=1.0),
        TraceEvent(rank=0, call="flush", target=1, start_us=1.0, duration_us=0.5),
        TraceEvent(rank=1, call="get", target=0, start_us=2.0, duration_us=2.0),
        TraceEvent(rank=1, call="get", target=1, start_us=4.0, duration_us=0.1),
    ]


class TestTraceRecorder:
    def test_record(self):
        recorder = TraceRecorder()
        recorder.on_request(0, RMACall.PUT, 1, 0.0, 1.5)
        recorder.on_request(1, RMACall.CAS, 0, 2.0, 0.5)
        assert len(recorder.events) == 2
        assert recorder.events[0].call == "put"
        assert recorder.events[1].end_us == pytest.approx(2.5)

    def test_capacity_bounds_memory(self):
        recorder = TraceRecorder(capacity=2)
        for i in range(5):
            recorder.on_request(0, RMACall.GET, 0, float(i), 0.1)
        assert len(recorder.events) == 2
        assert recorder.dropped_events == 3

    def test_rejects_zero_capacity(self):
        with pytest.raises(ValueError):
            TraceRecorder(capacity=0)


class TestSummaries:
    def test_summarize_trace_counts_and_time(self):
        summary = summarize_trace(_events())
        assert summary.num_events == 4
        assert summary.ops_by_call == {"put": 1, "flush": 1, "get": 2}
        assert summary.total_comm_time_us == pytest.approx(3.6)
        assert summary.makespan_us == pytest.approx(4.1)
        rows = summary.as_rows()
        assert {r["call"] for r in rows} == {"put", "flush", "get"}
        assert abs(sum(r["share_pct"] for r in rows) - 100.0) < 1.0

    def test_empty_trace_summary(self):
        summary = summarize_trace([])
        assert summary.num_events == 0
        assert summary.total_comm_time_us == 0.0
        assert summary.as_rows() == []

    def test_distance_breakdown(self):
        machine = Machine.cluster(nodes=2, procs_per_node=1)  # ranks 0 and 1 on different nodes
        breakdown = distance_breakdown(_events(), machine)
        assert breakdown["remote"]["ops"] == 3
        assert breakdown["self"]["ops"] == 1
        assert breakdown["same_node"]["ops"] == 0
        assert breakdown["remote"]["ops_share_pct"] == pytest.approx(75.0)
        rows = trace_rows_by_distance(breakdown)
        assert [r["distance"] for r in rows] == ["self", "same_node", "remote"]

    def test_hottest_targets_excludes_local_traffic(self):
        rows = hottest_targets(_events(), top=3)
        targets = {r["target"] for r in rows}
        assert targets == {0, 1}
        by_target = {r["target"]: r["remote_ops"] for r in rows}
        assert by_target[1] == 2  # put + flush from rank 0; rank 1's local get does not count
        assert by_target[0] == 1
        with pytest.raises(ValueError):
            hottest_targets(_events(), top=0)


class TestRenderRankActivity:
    def test_renders_one_row_per_rank(self):
        text = render_rank_activity(_events(), num_ranks=2, width=20)
        lines = text.splitlines()
        assert len(lines) == 3  # header + 2 ranks
        assert "#" in lines[1] and "#" in lines[2]

    def test_rejects_degenerate_dimensions(self):
        with pytest.raises(ValueError):
            render_rank_activity(_events(), num_ranks=0)
        with pytest.raises(ValueError):
            render_rank_activity(_events(), num_ranks=2, width=0)

    def test_empty_trace_renders_blank_strips(self):
        text = render_rank_activity([], num_ranks=2, width=10)
        assert "#" not in text


class TestRuntimeIntegration:
    def test_recorder_sees_every_rma_call(self):
        machine = Machine.cluster(nodes=2, procs_per_node=2)
        spec = DMCSLockSpec(num_processes=machine.num_processes)
        recorder = TraceRecorder()
        runtime = SimRuntime(machine, window_words=spec.window_words, observer=recorder, seed=1)

        def program(ctx):
            lock = spec.make(ctx)
            ctx.barrier()
            for _ in range(2):
                with lock.held():
                    ctx.compute(0.2)
            ctx.barrier()

        result = runtime.run(program, window_init=spec.init_window)
        assert len(recorder.events) == result.total_ops()
        summary = summarize_trace(recorder.events)
        assert summary.ops_by_call["fao"] == result.op_counts["fao"]

    def test_topology_aware_lock_has_more_local_traffic(self):
        """The mechanism behind Figure 3: RMA-MCS keeps traffic inside nodes."""
        machine = Machine.cluster(nodes=2, procs_per_node=4)

        def trace_for(spec):
            recorder = TraceRecorder()
            runtime = SimRuntime(machine, window_words=spec.window_words, observer=recorder, seed=2)

            def program(ctx):
                lock = spec.make(ctx)
                ctx.barrier()
                for _ in range(4):
                    with lock.held():
                        ctx.compute(0.2)
                ctx.barrier()

            runtime.run(program, window_init=spec.init_window)
            return distance_breakdown(recorder.events, machine)

        oblivious = trace_for(DMCSLockSpec(num_processes=machine.num_processes))
        aware = trace_for(RMAMCSLockSpec(machine, t_l=(4, 8)))
        assert aware["remote"]["ops_share_pct"] <= oblivious["remote"]["ops_share_pct"]
