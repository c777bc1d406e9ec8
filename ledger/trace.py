"""Span tracing at the layer boundaries of ``src/repro``, from outside it.

:meth:`Tracer.install` wraps the public functions in :data:`TARGETS` by
rebinding, in every loaded ``repro.*`` module, each attribute that *is* the
original — so ``from x import f`` call sites are covered — and
:meth:`Tracer.uninstall` puts the originals back.  End-to-end numbers are
never taken with wrappers installed.

A span is ``[name, start, end, parent, on_main_thread, workload, repetition,
payload]``.  Each thread keeps its own stack; a span opened on a thread with
an empty stack (a simulator rank thread) is a child of whatever the main
thread has open, which is sound because the deterministic runtimes run one
rank thread at a time while the main thread waits in ``runtime.run``.  Self
time is duration minus the children's durations; the self times of a
repetition must add up to its root span, and :meth:`layer_metrics` reports
when they do not.
"""

from __future__ import annotations

import functools
import importlib
import json
import statistics
import sys
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

from ledger import host

#: Share of ``--seconds`` a traced run spends on workload repetitions
#: (untraced and traced alternating); the probes take about the rest.
WORKLOAD_SHARE = 0.5

#: Largest accepted gap between a repetition's root span and the sum of
#: the self times under it.
SELF_SUM_TOLERANCE = 0.02

NAME, START, END, PARENT, ON_MAIN, WORKLOAD, REP, PAYLOAD = range(8)
ROOT_SPAN = "ledger.rep"


def _harness_payload(result: Any) -> Dict[str, float]:
    bench = result[0]
    payload = {"mean_us": bench.latency_mean_us, "p95_us": bench.latency_p95_us}
    for key in ("e2e_p99_us", "acquire_p99_us"):
        if key in bench.percentiles:
            payload[key] = bench.percentiles[key]
    return payload


def _run_payload(result: Any) -> Dict[str, Any]:
    return {"steady_s": result.wall_time_s, "ops": dict(result.op_counts)}


def _oracle_payload(row: Any) -> Dict[str, float]:
    return {"acquires": row["acquires"], "violations": len(row["violations"])}


#: (span name, module, attribute or Class.method, result -> payload).
TARGETS: Tuple[Tuple[str, str, str, Optional[Callable[[Any], Any]]], ...] = (
    ("api.registry", "repro.api.registry", "get_scheme", None),
    ("api.registry", "repro.api.registry", "get_benchmark", None),
    ("api.registry", "repro.api.registry", "get_runtime", None),
    ("api.registry", "repro.api.registry", "scheme_names", None),
    ("api.registry", "repro.api.registry", "benchmark_names", None),
    ("api.registry", "repro.api.registry", "runtime_names", None),
    ("topology", "repro.topology.builder", "cached_machine", None),
    ("topology", "repro.topology.builder", "xc30_like", None),
    ("rma.latency", "repro.rma.latency", "cost_table", None),
    ("rma.latency.build", "repro.rma.latency", "CostTable.__init__", None),
    ("core.build_spec", "repro.bench.harness", "build_lock_spec", None),
    ("bench.harness.make_program", "repro.bench.harness", "make_lock_program", None),
    ("bench.harness", "repro.bench.harness", "run_lock_benchmark_detailed", _harness_payload),
    # Window.write is deliberately not wrapped: a lock table's init_window
    # makes ~400 k of them per traffic point, and the trace would become the
    # workload.
    ("rma.window.load", "repro.rma.window", "Window.load", None),
    ("traffic.generators.schedule", "repro.traffic.generators", "generate_schedule",
     lambda schedule: {"requests": len(schedule.arrival_us)}),
    ("traffic.table.build", "repro.traffic.table", "build_lock_table", None),
    ("traffic.table.init", "repro.traffic.table", "LockTableSpec.init_window", None),
    ("traffic.table.init", "repro.traffic.table", "StripedLockTableSpec.init_window", None),
    ("traffic.accounting.aggregate", "repro.traffic.accounting", "aggregate_traffic", None),
    ("traffic.engine", "repro.traffic.engine", "run_traffic", None),
    ("bench.campaign", "repro.bench.campaign", "run_campaign", None),
    ("bench.campaign.run_point", "repro.bench.campaign", "run_point", None),
    ("bench.campaign.expand", "repro.bench.campaign", "CampaignSpec.points", None),
    ("bench.campaign.cache.get", "repro.bench.campaign", "ResultCache.get", None),
    ("bench.campaign.cache.put", "repro.bench.campaign", "ResultCache.put", None),
    ("bench.conformance", "repro.bench.conformance", "run_conformance", None),
    ("bench.conformance", "repro.bench.conformance", "run_conformance_point", _oracle_payload),
)


#: Per-layer metric -> the spans whose self times it sums.
SELF_TIME_METRICS: Dict[str, Tuple[str, ...]] = {
    "api.registry.lookup_s": ("api.registry",),
    "topology.machine_s": ("topology",),
    "rma.latency.cost_table_s": ("rma.latency", "rma.latency.build"),
    "core.build_spec_s": ("core.build_spec",),
    "bench.harness.make_program_s": ("bench.harness.make_program",),
    "bench.harness.self_s": ("bench.harness",),
    "rma.run_s": ("rma.run",),
    "rma.window.load_s": ("rma.window.load",),
    "traffic.generators.schedule_s": ("traffic.generators.schedule",),
    "traffic.table.build_s": ("traffic.table.build",),
    "traffic.table.init_s": ("traffic.table.init",),
    "traffic.accounting.aggregate_s": ("traffic.accounting.aggregate",),
    "traffic.engine.self_s": ("traffic.engine",),
    "bench.campaign.self_s": ("bench.campaign", "bench.campaign.run_point"),
    "bench.campaign.expand_s": ("bench.campaign.expand",),
    "bench.campaign.cache.get_s": ("bench.campaign.cache.get",),
    "bench.campaign.cache.put_s": ("bench.campaign.cache.put",),
    "bench.conformance.self_s": ("bench.conformance",),
    "ledger.glue_s": (ROOT_SPAN,),
}

#: Per-layer metric -> the span whose calls it counts.
CALL_COUNT_METRICS: Dict[str, str] = {
    "api.registry.lookups": "api.registry",
    "topology.machine_calls": "topology",
    "rma.latency.cost_table_cold_builds": "rma.latency.build",
    "core.build_spec_calls": "core.build_spec",
    "rma.runs": "rma.run",
    "rma.window.loads": "rma.window.load",
    "traffic.generators.schedule_calls": "traffic.generators.schedule",
}


def _runtime_classes() -> List[type]:
    """The class behind every registered deterministic runtime."""
    from repro.api.registry import get_runtime, runtime_names
    from repro.topology.builder import xc30_like

    machine = xc30_like(1)
    classes: List[type] = []
    for name in runtime_names(deterministic=True):
        cls = type(get_runtime(name).factory(machine, window_words=1))
        if cls not in classes:
            classes.append(cls)
    return classes


class Tracer:
    """In-memory span store plus the wrappers that feed it."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self._local = threading.local()
        self._main_ident = threading.get_ident()
        self._main_stack: List[list] = []
        self._workload = ""
        self._rep = -1
        self._undo: List[Tuple[Any, str, Any]] = []
        self._targets: Optional[List[tuple]] = None

    # -- recording --------------------------------------------------------- #

    def _open(self, name: str) -> Tuple[list, List[list]]:
        on_main = threading.get_ident() == self._main_ident
        if on_main:
            stack = self._main_stack
        else:
            stack = getattr(self._local, "stack", None)
            if stack is None:
                stack = self._local.stack = []
        if stack:
            parent = stack[-1]
        else:
            parent = self._main_stack[-1] if self._main_stack else None
        span = [name, time.perf_counter(), 0.0, parent, on_main,
                self._workload, self._rep, None]
        self.spans.append(span)
        stack.append(span)
        return span, stack

    def _wrap(self, name: str, fn: Callable, payload: Optional[Callable]) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            span, stack = self._open(name)
            try:
                result = fn(*args, **kwargs)
                if payload is not None:
                    span[PAYLOAD] = payload(result)
                return result
            finally:
                span[END] = time.perf_counter()
                stack.pop()

        return wrapper

    # -- installing -------------------------------------------------------- #

    def install(self) -> None:
        if self._targets is None:
            self._targets = list(TARGETS)
            for cls in _runtime_classes():
                self._targets.append(
                    ("rma.run", cls.__module__, f"{cls.__qualname__}.run", _run_payload)
                )
            for _, module_name, _, _ in self._targets:
                importlib.import_module(module_name)
        # ledger.workloads holds its own `from repro... import` references.
        repro_modules = [
            m for n, m in list(sys.modules.items())
            if m is not None and (n.startswith("repro.") or n in ("repro", "ledger.workloads"))
        ]
        for name, module_name, attr, payload in self._targets:
            module = sys.modules[module_name]
            if "." in attr:
                owner_name, method = attr.split(".")
                owner = getattr(module, owner_name)
                self._rebind(owner, method, self._wrap(name, vars(owner)[method], payload))
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(name, original, payload)
            for mod in repro_modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._rebind(mod, key, wrapper)

    def _rebind(self, owner: Any, attr: str, wrapper: Any) -> None:
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- measuring --------------------------------------------------------- #

    def traced_rep(self, run: Callable, state: Any, workload: str, rep: int) -> Dict[str, Any]:
        """One repetition under a root span, wrappers installed only for it."""
        self._workload, self._rep = workload, rep
        self.install()
        try:
            root, stack = self._open(ROOT_SPAN)
            try:
                points, extras = run(state)
            finally:
                root[END] = time.perf_counter()
                stack.pop()
        finally:
            self.uninstall()
        return {"wall_raw_s": root[END] - root[START], "points": points,
                "extras": extras, "rep": rep}

    def _rep_numbers(self, rep: int) -> Tuple[Dict[str, float], float]:
        """Per-layer numbers of one traced repetition, and Σself ÷ root."""
        spans = [s for s in self.spans if s[REP] == rep]
        children: Dict[int, float] = {}
        main_children: Dict[int, float] = {}
        for s in spans:
            if s[PARENT] is not None:
                dur = s[END] - s[START]
                children[id(s[PARENT])] = children.get(id(s[PARENT]), 0.0) + dur
                if s[ON_MAIN]:
                    main_children[id(s[PARENT])] = main_children.get(id(s[PARENT]), 0.0) + dur
        self_s: Dict[str, float] = {}
        calls: Dict[str, int] = {}
        out: Dict[str, float] = {}

        def add(key: str, value: float) -> None:
            out[key] = out.get(key, 0.0) + value

        for key in ("rma.run.steady_s", "rma.run.fixed_s", "rma.ops", "rma.ops.put",
                    "rma.ops.get", "rma.ops.accumulate", "rma.ops.fao", "rma.ops.cas",
                    "rma.ops.flush", "traffic.generators.requests",
                    "verification.oracles.acquires", "verification.oracles.violations"):
            out[key] = 0.0
        root_s = 0.0
        least_self = 0.0
        for s in spans:
            dur = s[END] - s[START]
            own = dur - children.get(id(s), 0.0)
            least_self = min(least_self, own)
            self_s[s[NAME]] = self_s.get(s[NAME], 0.0) + own
            calls[s[NAME]] = calls.get(s[NAME], 0) + 1
            payload = s[PAYLOAD] or {}
            if s[NAME] == ROOT_SPAN:
                root_s = dur
            elif s[NAME] == "rma.run" and payload:
                add("rma.run.steady_s", payload["steady_s"])
                add("rma.run.fixed_s",
                    dur - main_children.get(id(s), 0.0) - payload["steady_s"])
                for call, count in payload["ops"].items():
                    add("rma.ops", count)
                    add(f"rma.ops.{call}", count)
            elif s[NAME] == "bench.harness" and payload:
                add("_latency_mean_sum", payload["mean_us"])
                add("_latency_p95_sum", payload["p95_us"])
                if "e2e_p99_us" in payload:
                    add("_traffic_points", 1)
                    add("_e2e_p99_sum", payload["e2e_p99_us"])
                    add("_acquire_p99_sum", payload.get("acquire_p99_us", 0.0))
            elif s[NAME] == "traffic.generators.schedule" and payload:
                add("traffic.generators.requests", payload["requests"])
            elif s[NAME] == "bench.conformance" and payload:
                add("verification.oracles.acquires", payload["acquires"])
                add("verification.oracles.violations", payload["violations"])
            elif s[NAME] == "bench.campaign.run_point":
                add("_run_point_s", dur)  # inclusive: the simulation under it too

        for metric, names in SELF_TIME_METRICS.items():
            out[metric] = sum(self_s.get(n, 0.0) for n in names)
        for metric, name in CALL_COUNT_METRICS.items():
            out[metric] = calls.get(name, 0)
        runs = calls.get("bench.harness", 0)
        out["bench.harness.sim_latency_mean_us"] = out.pop("_latency_mean_sum", 0.0) / max(1, runs)
        out["bench.harness.sim_latency_p95_us"] = out.pop("_latency_p95_sum", 0.0) / max(1, runs)
        traffic_points = out.pop("_traffic_points", 0)
        out["traffic.sim_e2e_p99_us"] = out.pop("_e2e_p99_sum", 0.0) / max(1, traffic_points)
        out["traffic.sim_acquire_p99_us"] = out.pop("_acquire_p99_sum", 0.0) / max(1, traffic_points)
        out["rma.host_us_per_op"] = (
            1e6 * out["rma.run.steady_s"] / out["rma.ops"] if out["rma.ops"] else 0.0
        )
        out["trace.spans"] = len(spans)
        # The sum alone cannot fail while every span has a parent in the
        # repetition; children that overlapped each other show up as a parent
        # with negative self time, which is counted against the ratio here.
        ratio = (sum(self_s.values()) + least_self) / root_s if root_s > 0 else 0.0
        return out, ratio

    def layer_metrics(self, reps: List[Dict[str, Any]]) -> Tuple[Dict[str, float], List[str]]:
        """Medians over the traced repetitions, plus what went wrong."""
        problems: List[str] = []
        per_rep: List[Dict[str, float]] = []
        ratios: List[float] = []
        timed = [r for r in reps if not r["warmup"]]
        for rep in timed:
            if not rep["traced"]:
                continue
            numbers, ratio = self._rep_numbers(rep["rep"])
            numbers["host.loop_ratio"] = rep["loop_s"] / host.REFERENCE_LOOP_S
            # Only the campaign workload reports extras; elsewhere the
            # campaign layer did nothing and its metrics read 0.
            extras = rep["extras"]
            run_point_s = numbers.pop("_run_point_s", 0.0)
            for key in ("cold_s", "warm_s", "cache.hits", "cache.misses",
                        "point_pickle_bytes", "row_json_bytes"):
                numbers[f"bench.campaign.{key}"] = extras.get(key, 0.0)
            numbers["bench.campaign.points"] = len(rep["points"]) if extras else 0
            numbers["bench.campaign.overhead_s"] = extras["cold_s"] - run_point_s if extras else 0.0
            per_rep.append(numbers)
            ratios.append(ratio)
            if abs(ratio - 1.0) > SELF_SUM_TOLERANCE:
                problems.append(
                    f"repetition {rep['rep']}: self times sum to {ratio:.4f} of the root span"
                )
        keys = sorted({k for numbers in per_rep for k in numbers})
        layers = {k: statistics.median(n.get(k, 0.0) for n in per_rep) for k in keys}
        layers["trace.self_sum_ratio"] = statistics.median(ratios)
        traced = statistics.median(r["wall_s"] for r in timed if r["traced"])
        untraced = statistics.median(r["wall_s"] for r in timed if not r["traced"])
        layers["trace.overhead_ratio"] = traced / untraced
        return layers, problems

    def write(self, path: str) -> None:
        """All spans as JSON; ``parent`` is an index into the list, -1 for none."""
        index = {id(s): i for i, s in enumerate(self.spans)}
        rows = [
            {
                "name": s[NAME], "start": s[START], "end": s[END],
                "parent": index[id(s[PARENT])] if s[PARENT] is not None else -1,
                "main_thread": s[ON_MAIN], "workload": s[WORKLOAD],
                "repetition": s[REP], "payload": s[PAYLOAD],
            }
            for s in self.spans
        ]
        with open(path, "w") as handle:
            json.dump({"clock": "time.perf_counter", "spans": rows}, handle)
