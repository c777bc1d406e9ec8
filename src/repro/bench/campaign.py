"""Campaign engine: declarative sweep grids, a parallel executor and a cache.

The paper's evaluation is a large cross-product of schemes × process counts ×
workloads; running every configuration serially in one process fights the
"fast as the hardware allows" goal.  This module turns a sweep into three
separable concerns:

* **Campaigns** — a :class:`CampaignSpec` is a named grid over *registry*
  entries (schemes resolved through :mod:`repro.api`, so third-party locks
  join sweeps for free), expanded into :class:`CampaignPoint` rows.  Built-in
  campaigns register at import time; ``repro campaign list/show/run`` surfaces
  them on the CLI.
* **Parallel execution** — :func:`parallel_map` fans work out over a
  ``multiprocessing`` pool (``jobs`` defaults to ``os.cpu_count()``).  Every
  point carries its own seed and the simulator is fully deterministic, so a
  parallel run produces rows bit-identical to a serial one; the executor
  preserves submission order.  :func:`execute_tasks` is the same pool applied
  to arbitrary benchmark tasks — the figure drivers' sweeps ride on it.
* **Content-addressed result cache** — :class:`ResultCache` keys each point on
  a SHA-256 of its canonical configuration plus the *golden fingerprint
  epoch* (a hash of ``tests/rma/golden/seed_scheduler.json`` and the cache
  schema version).  Re-running a campaign recomputes only new points; a
  re-blessed golden file or schema bump invalidates everything at once.

Every suite (campaign, conformance, faults, traffic, tune, scale) runs its
points through the same machinery: :func:`run_sweep` is the one cache →
pool → store loop, :class:`SweepReport` the one report, :func:`bless_sweep`
the one cold → warm → check → write bless flow, and
:func:`write_manifest_json` the one manifest writer.  A suite supplies its
points, its worker and its suite-specific results (``SweepReport.extra``).

``repro regress`` (:mod:`repro.bench.regress`) runs a campaign through this
engine and gates its rows against the committed ``BENCH_campaign.json``.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import multiprocessing
import os
import platform
import time
from dataclasses import dataclass, field, fields, replace
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.api.registry import (
    UnknownNameError,
    benchmark_names,
    get_benchmark,
    get_runtime,
    get_scheme,
    scheme_names,
)
from repro.bench.harness import default_scheduler, run_lock_benchmark_detailed
from repro.bench.workloads import LockBenchConfig
from repro.topology.builder import cached_machine

__all__ = [
    "BENCHMARK_SELECTORS",
    "SCHEME_SELECTORS",
    "BenchTask",
    "BlessError",
    "CampaignPoint",
    "CampaignSpec",
    "DETERMINISM_FIELDS",
    "PERF_FIELDS",
    "ResultCache",
    "SweepReport",
    "bless_sweep",
    "campaign_names",
    "canonical_json",
    "default_jobs",
    "execute_tasks",
    "get_campaign",
    "golden_epoch",
    "parallel_map",
    "register_campaign",
    "render_campaign_figure",
    "run_campaign",
    "run_point",
    "run_result_sha",
    "run_sweep",
    "write_manifest_json",
]

#: Bump to invalidate every cached row when the row schema changes.
#: 2: every row carries the traffic "percentiles"/"phases" determinism fields.
#: 3: every row carries the "recovery" determinism field (fault/recovery
#:    accounting; empty on unfaulted campaign runs).
CACHE_SCHEMA_VERSION = 3

#: Campaign-row fields that must be bit-identical between two runs of the
#: same tree (and therefore between a run and the committed baseline).
DETERMINISM_FIELDS: Tuple[str, ...] = (
    "fingerprint",
    "elapsed_us",
    "throughput_mln_s",
    "latency_mean_us",
    "latency_p95_us",
    "acquires",
    "reads",
    "writes",
    "rma_ops",
    "op_counts",
    # Open-loop traffic rows only (absent keys are skipped by the gate): the
    # tail-latency percentiles and per-phase rows are bit-exact functions of
    # the point's seed, exactly like the fingerprint.
    "percentiles",
    "phases",
    # Fault/recovery accounting (repro.bench.faults): crash counts, recovery
    # latencies and takeover/fence tallies are deterministic functions of the
    # point's seed and fault plan.  Campaign points run unfaulted, so the
    # field is empty there — but it is still a determinism field: a campaign
    # row growing unexpected recovery content must fail the regress gate.
    "recovery",
)

#: Host-dependent fields gated with tolerances, never bit-exactly.
PERF_FIELDS: Tuple[str, ...] = ("wall_s", "sim_ops_per_s")

#: Scheme selectors understood by :meth:`CampaignSpec.resolve_schemes`, in
#: addition to literal registered scheme names.  ``"conformance"`` selects
#: every scheme the conformance layer can drive: all harness-capable schemes
#: plus the ``harness=False`` ones that registered a ``conformance_adapter``
#: (so third-party ``@register_scheme`` locks are conformance-checked for
#: free the moment they register).
SCHEME_SELECTORS: Tuple[str, ...] = (
    "all", "mcs", "rw", "related-mcs", "related-rw", "conformance",
)

#: Benchmark selectors understood by :meth:`CampaignSpec.resolve_benchmarks`,
#: in addition to literal registered benchmark names.  Each expands to the
#: registered benchmarks carrying that tag (see
#: :class:`repro.api.registry.BenchmarkInfo`): ``"traffic"`` is every
#: open-loop traffic scenario, ``"traffic-rw"`` the subset with a meaningful
#: read/write mix, ``"scale"`` the fluid-scale scenarios of ``repro.scale``
#: (kept out of ``"traffic"`` so the committed traffic baseline is untouched)
#: — so third-party ``register_traffic_scenario`` calls join selector-based
#: campaigns for free, mirroring the scheme selectors.
BENCHMARK_SELECTORS: Tuple[str, ...] = ("traffic", "traffic-rw", "scale")

_REPO_ROOT = Path(__file__).resolve().parents[3]
_GOLDEN_FILE = _REPO_ROOT / "tests" / "rma" / "golden" / "seed_scheduler.json"


# --------------------------------------------------------------------------- #
# Fingerprinting
# --------------------------------------------------------------------------- #

def canonical_value(value: Any) -> Any:
    """Bit-exact canonical form (floats rendered as hex) for hashing."""
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, dict):
        return {str(k): canonical_value(v) for k, v in sorted(value.items())}
    if isinstance(value, (list, tuple)):
        return [canonical_value(v) for v in value]
    return value


def _import_provider(provider: str) -> None:
    """Import the module that registered a scheme (no-op on failure).

    Under a spawn start method a pool worker re-imports :mod:`repro` with
    only the builtin registries; pulling in the provider module re-registers
    third-party schemes.  Import failures fall through so the subsequent
    registry lookup raises its helpful :class:`UnknownNameError`.
    """
    if provider and provider != "__main__":
        try:
            importlib.import_module(provider)
        except ImportError:
            pass


def _config_field_names() -> frozenset:
    """Init-field names of :class:`LockBenchConfig` (direct-kwarg params)."""
    return frozenset(f.name for f in fields(LockBenchConfig) if f.init)


def run_result_sha(result: Any) -> str:
    """SHA-256 over every determinism-relevant field of a ``RunResult``.

    Covers the per-rank finish times, the op counts (total and per rank), the
    makespan and the full per-rank returns (which carry the per-iteration
    latencies), all in the bit-exact canonical form (:func:`canonical_json`).
    Two runs of a deterministic runtime match iff their digests match.
    """
    blob = canonical_json(
        {
            "finish_times_us": list(result.finish_times_us),
            "total_time_us": result.total_time_us,
            "op_counts": dict(result.op_counts),
            "per_rank_op_counts": [dict(c) for c in result.per_rank_op_counts],
            "returns": result.returns,
        }
    )
    return hashlib.sha256(blob.encode()).hexdigest()


class _Unhandled(Exception):
    """A value :func:`_emit_json` does not special-case."""


def _emit_json(value: Any, out: List[str]) -> None:
    """Append the canonical JSON text of ``value`` to ``out``, in one pass.

    Handles exactly ``float``, ``str``, ``int``, ``None``, ``True``,
    ``False``, ``list``, ``tuple`` and ``dict`` with ``str`` keys; anything
    else (numpy scalars, subclasses, other keys) raises :class:`_Unhandled`.
    """
    kind = type(value)
    if kind is float:
        out.append('"' + value.hex() + '"')  # hex digits, "inf" or "nan": nothing to escape
    elif kind is str:
        out.append(encode_basestring_ascii(value))
    elif kind is int:
        out.append(int.__repr__(value))
    elif kind is list or kind is tuple:
        if not value:
            out.append("[]")
            return
        kinds = set(map(type, value))
        if kinds == {float}:
            out.append('["' + '", "'.join(map(float.hex, value)) + '"]')
        elif kinds == {int}:
            out.append("[" + ", ".join(map(int.__repr__, value)) + "]")
        else:
            out.append("[")
            for position, item in enumerate(value):
                if position:
                    out.append(", ")
                _emit_json(item, out)
            out.append("]")
    elif kind is dict:
        if not value:
            out.append("{}")
            return
        if set(map(type, value)) != {str}:
            raise _Unhandled
        keys = sorted(value)
        if set(map(type, value.values())) == {int}:
            out.append("{" + ", ".join(
                [encode_basestring_ascii(key) + ": " + int.__repr__(value[key]) for key in keys]
            ) + "}")
            return
        out.append("{")
        for position, key in enumerate(keys):
            out.append((", " if position else "") + encode_basestring_ascii(key) + ": ")
            _emit_json(value[key], out)
        out.append("}")
    elif value is None:
        out.append("null")
    elif value is True:
        out.append("true")
    elif value is False:
        out.append("false")
    else:
        raise _Unhandled


def canonical_json(value: Any) -> str:
    """``json.dumps(canonical_value(value), sort_keys=True)``, byte for byte.

    Written in one pass for the plain types a run returns (float lists as
    ``map(float.hex)``, int lists as ``map(int.__repr__)``); on any other
    type it falls back to that two-pass form.
    """
    out: List[str] = []
    try:
        _emit_json(value, out)
    except _Unhandled:
        return json.dumps(canonical_value(value), sort_keys=True)
    return "".join(out)


# --------------------------------------------------------------------------- #
# Points and campaigns
# --------------------------------------------------------------------------- #

@dataclass(frozen=True)
class CampaignPoint:
    """One fully-resolved grid point of a campaign (primitives only, so it
    pickles cheaply into pool workers and hashes canonically for the cache)."""

    scheme: str
    benchmark: str
    procs: int
    procs_per_node: int = 8
    iterations: int = 10
    fw: float = 0.02
    seed: int = 1
    scheduler: str = "horizon"
    topology: str = "xc30"
    params: Tuple[Tuple[str, Any], ...] = ()
    #: Module that registered the scheme; imported in pool workers so
    #: third-party locks survive spawn-based start methods (not part of the
    #: cache key — it names the provider, not the configuration).
    provider: str = ""

    @property
    def case(self) -> str:
        """Stable row key joining a run to the committed baseline manifest.

        Every configuration axis that can vary between points appears in the
        name (non-default axes as suffixes), so two distinct points can never
        collide on one baseline row.
        """
        name = (
            f"{self.scheme}-{self.benchmark}-p{self.procs}"
            f"-fw{self.fw:g}-s{self.seed}-i{self.iterations}"
        )
        if self.procs_per_node != 8:
            name += f"-ppn{self.procs_per_node}"
        if self.scheduler != "horizon":
            name += f"-{self.scheduler}"
        if self.topology != "xc30":
            name += f"-{self.topology}"
        if self.params:
            name += "-" + "-".join(f"{k}={v}" for k, v in self.params)
        return name

    def describe(self) -> Dict[str, Any]:
        """Canonical JSON-able description (the cache-key input)."""
        return {
            "scheme": self.scheme,
            "benchmark": self.benchmark,
            "procs": self.procs,
            "procs_per_node": self.procs_per_node,
            "iterations": self.iterations,
            "fw": self.fw,
            "seed": self.seed,
            "scheduler": self.scheduler,
            "topology": self.topology,
            "params": {k: list(v) if isinstance(v, tuple) else v for k, v in self.params},
        }

    def config(self) -> LockBenchConfig:
        _import_provider(self.provider)
        machine = cached_machine(self.procs, self.procs_per_node, self.topology)
        # Params naming a LockBenchConfig field (t_r, warmup_fraction, ...)
        # stay direct constructor kwargs — the historical behavior, and what
        # committed cache entries were keyed under.  Everything else flows
        # through the generic scheme-parameter overlay, so campaign and tune
        # grids can sweep any registered ParamSpec (hbo backoff caps,
        # third-party thresholds) without a dedicated config field.
        fields = _config_field_names()
        direct = {k: v for k, v in self.params if k in fields}
        overlay = tuple((k, v) for k, v in self.params if k not in fields)
        return LockBenchConfig(
            machine=machine,
            scheme=self.scheme,
            benchmark=self.benchmark,
            iterations=self.iterations,
            fw=self.fw,
            seed=self.seed,
            params=overlay,
            **direct,
        )


@dataclass(frozen=True)
class CampaignSpec:
    """A named grid over registry entries.

    ``schemes`` accepts literal registered names and the selectors ``"all"``
    (every harness-capable scheme) or a category name (``"mcs"``, ``"rw"``,
    ``"related-mcs"``, ``"related-rw"``) — resolved against the *live* scheme
    registry at expansion time, so a third-party ``@register_scheme`` lock
    joins every selector-based campaign without touching this module.

    The grid is schemes × benchmarks × process_counts × fw_values; writer
    fractions beyond the first are skipped for non-RW schemes (they ignore
    ``fw``, so the extra points would be duplicate work under new names).
    """

    name: str
    help: str = ""
    schemes: Tuple[str, ...] = ("all",)
    benchmarks: Tuple[str, ...] = ("wcsb",)
    process_counts: Tuple[int, ...] = (8, 32, 64)
    fw_values: Tuple[float, ...] = (0.02,)
    iterations: int = 10
    procs_per_node: int = 8
    seed: int = 1
    scheduler: str = "horizon"
    params: Tuple[Tuple[str, Any], ...] = ()

    def resolve_schemes(self) -> Tuple[str, ...]:
        """Expand selectors through the scheme registry, preserving order."""
        out: List[str] = []
        for token in self.schemes:
            if token == "all":
                names = scheme_names(harness=True)
            elif token == "conformance":
                names = tuple(
                    n
                    for n in scheme_names()
                    if get_scheme(n).harness
                    or get_scheme(n).conformance_adapter is not None
                )
            elif token in SCHEME_SELECTORS:
                names = tuple(
                    n for n in scheme_names(category=token) if get_scheme(n).harness
                )
            else:
                info = get_scheme(token)  # raises UnknownNameError with hints
                if not info.harness and info.conformance_adapter is None:
                    raise ValueError(
                        f"scheme {token!r} does not follow the plain lock-handle "
                        f"protocol and cannot run in a campaign grid"
                    )
                # A harness=False scheme with a conformance adapter (e.g. the
                # striped per-volume lock) is a valid grid citizen: closed-loop
                # benchmarks drive its adapter facade, traffic scenarios its
                # native striped table.
                names = (token,)
            for name in names:
                if name not in out:
                    out.append(name)
        return tuple(out)

    def resolve_benchmarks(self) -> Tuple[str, ...]:
        """Expand benchmark selectors through the registry, preserving order.

        Literal names are validated against the live benchmark registry;
        selector tokens (:data:`BENCHMARK_SELECTORS`) expand to every
        registered benchmark carrying the tag.
        """
        out: List[str] = []
        for token in self.benchmarks:
            if token in BENCHMARK_SELECTORS:
                names = benchmark_names(tag=token)
                if not names:
                    raise ValueError(
                        f"benchmark selector {token!r} matched no registered benchmarks"
                    )
            else:
                get_benchmark(token)  # raises UnknownNameError with hints
                names = (token,)
            for name in names:
                if name not in out:
                    out.append(name)
        return tuple(out)

    def points(self) -> List[CampaignPoint]:
        """The fully-expanded grid, in deterministic order."""
        points: List[CampaignPoint] = []
        benchmarks = self.resolve_benchmarks()
        for scheme in self.resolve_schemes():
            info = get_scheme(scheme)
            provider = getattr(info.builder, "__module__", "") or ""
            fw_axis = self.fw_values if info.rw else self.fw_values[:1]
            for benchmark in benchmarks:
                for procs in self.process_counts:
                    for fw in fw_axis:
                        points.append(
                            CampaignPoint(
                                scheme=scheme,
                                benchmark=benchmark,
                                procs=procs,
                                procs_per_node=self.procs_per_node,
                                iterations=self.iterations,
                                fw=fw,
                                seed=self.seed,
                                scheduler=self.scheduler,
                                params=self.params,
                                provider=provider,
                            )
                        )
        return points


_campaigns: Dict[str, CampaignSpec] = {}


def register_campaign(spec: CampaignSpec, *, replace: bool = False) -> CampaignSpec:
    """Register a campaign under its name (``replace=True`` to override)."""
    if spec.name in _campaigns and not replace:
        raise ValueError(
            f"campaign {spec.name!r} is already registered; pass replace=True to override it"
        )
    _campaigns[spec.name] = spec
    return spec


def unregister_campaign(name: str) -> None:
    """Remove a campaign registration (for tests tearing down custom entries)."""
    _campaigns.pop(name, None)


def get_campaign(name: str) -> CampaignSpec:
    """Look up a registered campaign (raises :class:`UnknownNameError`)."""
    try:
        return _campaigns[name]
    except KeyError:
        raise UnknownNameError("campaign", name, list(_campaigns)) from None


def campaign_names() -> Tuple[str, ...]:
    """Registered campaign names, in registration order."""
    return tuple(_campaigns)


# The built-in campaigns.  ``ci-gate`` is the manifest `repro regress` gates
# on: every harness scheme (all nine built-ins plus whatever third parties
# registered) on WCSB across the contention axis the related RDMA-lock
# studies show flips conclusions.
register_campaign(
    CampaignSpec(
        name="ci-gate",
        help="every harness scheme on wcsb at P in {8, 32, 64} (the regress gate)",
        schemes=("all",),
        benchmarks=("wcsb",),
        process_counts=(8, 32, 64),
        fw_values=(0.02,),
        iterations=8,
        procs_per_node=8,
        seed=1,
    )
)
register_campaign(
    CampaignSpec(
        name="rw-contention",
        help="reader-writer schemes across the writer-fraction axis on ecsb",
        schemes=("rw", "related-rw"),
        benchmarks=("ecsb",),
        process_counts=(8, 32, 64),
        fw_values=(0.002, 0.02, 0.2),
        iterations=10,
        procs_per_node=8,
        seed=2,
    )
)
register_campaign(
    CampaignSpec(
        name="mcs-suite",
        help="mutual-exclusion schemes on all five paper microbenchmarks",
        schemes=("mcs", "related-mcs"),
        benchmarks=("lb", "ecsb", "sob", "wcsb", "warb"),
        process_counts=(8, 32, 64),
        fw_values=(0.0,),
        iterations=8,
        procs_per_node=8,
        seed=3,
    )
)
# The base grid of `repro traffic` (repro.traffic.engine): the open-loop
# scenario sweep across the structurally distinct schemes — centralized
# (fompi-spin/fompi-rw), queue-based (d-mcs), topology-aware (rma-mcs,
# rma-rw) and fine-grained striped (striped-rw, driven as a native lock
# table).  The "traffic" benchmark selector resolves against the live
# registry, so third-party register_traffic_scenario calls join the suite
# automatically; `repro traffic` runs this grid and
# blesses BENCH_traffic.json from it through the campaign cache.
register_campaign(
    CampaignSpec(
        name="traffic-suite",
        help="open-loop traffic scenarios (Zipf/uniform/burst/phased) across schemes",
        schemes=("fompi-spin", "d-mcs", "rma-mcs", "fompi-rw", "rma-rw", "striped-rw"),
        benchmarks=("traffic",),
        process_counts=(64,),
        fw_values=(0.1,),
        iterations=12,
        procs_per_node=8,
        seed=11,
    )
)
# The base grid of `repro conform` (repro.bench.conformance): every
# conformance-capable scheme — including harness=False schemes with an
# adapter and third-party registrations — on the three contention-shaping
# benchmarks.  The conformance engine crosses this grid with the
# perturbation-seed axis; running it through `repro campaign run` is also
# valid (it then measures the unperturbed points without oracles).
register_campaign(
    CampaignSpec(
        name="conformance",
        help="safety/fairness oracle grid for `repro conform` (x perturbation seeds)",
        schemes=("conformance",),
        benchmarks=("ecsb", "wcsb", "warb"),
        process_counts=(8, 32),
        fw_values=(0.2,),
        iterations=6,
        procs_per_node=8,
        seed=5,
    )
)
# The head-to-head report for the competing lock families (ISSUE 9): the
# paper's own designs (fompi-spin baseline, rma-mcs/rma-rw topology-aware)
# against the classic related-work points (ticket, hbo) and the two newly
# ported families — alock (asymmetric local/remote paths, arxiv 2404.17980)
# and lock-server (centralized retry-vs-queue grant queue, arxiv 1507.03274).
# Axes: P for scale, fw for the write mix (meaningful for rma-rw), wcsb for
# raw handoff contention, traffic-zipf vs traffic-uniform for skew, and
# traffic-phased for phase shifts.  `repro regress` gates the blessed rows.
register_campaign(
    CampaignSpec(
        name="lock-families",
        help="paper family vs alock/lock-server across P, fw, skew and phase shifts",
        schemes=("fompi-spin", "ticket", "hbo", "rma-mcs", "rma-rw", "alock", "lock-server"),
        benchmarks=("wcsb", "traffic-zipf", "traffic-uniform", "traffic-phased"),
        process_counts=(8, 32, 64),
        fw_values=(0.02, 0.2),
        iterations=6,
        procs_per_node=8,
        seed=7,
    )
)


# --------------------------------------------------------------------------- #
# Parallel execution
# --------------------------------------------------------------------------- #

def default_jobs() -> int:
    """Worker count used when ``jobs`` is not given: ``REPRO_JOBS`` or all cores."""
    env = os.environ.get("REPRO_JOBS")
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            pass
    return max(1, os.cpu_count() or 1)


def parallel_map(fn: Callable[[Any], Any], items: Sequence[Any], *, jobs: Optional[int] = None) -> List[Any]:
    """``[fn(x) for x in items]`` fanned out over a process pool.

    Order is preserved and ``jobs <= 1`` (or a single item) runs inline, so a
    parallel map is observably identical to the serial loop whenever ``fn`` is
    deterministic — which every simulator workload is, because each item
    carries its own seed and the workers share no state.  ``fn`` and the items
    must be picklable (the pool uses the default start method; under
    ``spawn`` workers re-import :mod:`repro` and the lazy registries reload).
    """
    items = list(items)
    jobs = default_jobs() if jobs is None else max(1, int(jobs))
    jobs = min(jobs, len(items))
    if jobs <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    with multiprocessing.get_context().Pool(processes=jobs) as pool:
        return pool.map(fn, items, chunksize=1)


@dataclass(frozen=True)
class BenchTask:
    """One unit of sweep work for :func:`execute_tasks`.

    ``kind="lock"`` runs the lock microbenchmark harness on ``config`` (a
    :class:`LockBenchConfig`); ``kind="dht"`` runs the Figure-6 hashtable
    workload on a ``DHTWorkloadConfig``.  ``latency``/``fabric`` carry the
    ablations' model overrides; ``scheduler`` pins the runtime backend of a
    lock task (when ``None`` the submitter's process-wide default is captured
    at submit time, so ``using_scheduler`` contexts survive the hop into pool
    workers).  DHT tasks own their runtime construction and reject a
    scheduler override.
    """

    config: Any
    kind: str = "lock"
    latency: Any = None
    fabric: Any = None
    scheduler: Optional[str] = None
    #: Module that registered the scheme (filled in by :func:`execute_tasks`);
    #: imported in pool workers so third-party locks survive spawn.
    provider: str = ""


def _execute_task(task: BenchTask) -> Any:
    _import_provider(task.provider)
    if task.kind == "dht":
        if task.scheduler is not None:
            # run_dht_benchmark owns its runtime construction; silently
            # ignoring a requested backend would measure the wrong core.
            raise ValueError("dht tasks do not support a scheduler override")
        from repro.dht.workload import run_dht_benchmark

        return run_dht_benchmark(task.config)
    if task.kind != "lock":
        raise ValueError(f"unknown bench task kind {task.kind!r}")
    from repro.bench.harness import run_lock_benchmark

    return run_lock_benchmark(
        task.config,
        latency_model=task.latency,
        fabric=task.fabric,
        scheduler=task.scheduler,
    )


def execute_tasks(tasks: Sequence[BenchTask], *, jobs: Optional[int] = None) -> List[Any]:
    """Run benchmark tasks (possibly in parallel), preserving order.

    Results are the same objects the inline calls would return
    (:class:`~repro.bench.harness.LockBenchResult` /
    ``DHTBenchOutcome``), bit-identical to a serial sweep.  The submitter's
    process-wide default scheduler and each scheme's provider module are
    captured here, so ``using_scheduler`` contexts and third-party
    ``@register_scheme`` locks both survive the hop into pool workers
    regardless of the multiprocessing start method.
    """
    scheduler = default_scheduler()
    pinned = []
    for task in tasks:
        updates: Dict[str, Any] = {}
        if task.kind == "lock" and task.scheduler is None:
            updates["scheduler"] = scheduler
        if not task.provider:
            scheme = getattr(task.config, "scheme", "")
            try:
                builder = get_scheme(scheme).builder if scheme else None
            except UnknownNameError:
                builder = None
            if builder is not None:
                updates["provider"] = getattr(builder, "__module__", "") or ""
        pinned.append(replace(task, **updates) if updates else task)
    return parallel_map(_execute_task, pinned, jobs=jobs)


# --------------------------------------------------------------------------- #
# Content-addressed result cache
# --------------------------------------------------------------------------- #

def golden_epoch() -> str:
    """The cache epoch: hash of the golden fingerprints + the cache schema.

    The golden file pins the observable behaviour of the deterministic
    scheduler, so any change to it (a semantic re-bless) must invalidate every
    cached campaign row; ``REPRO_CACHE_EPOCH`` overrides for tests.
    """
    env = os.environ.get("REPRO_CACHE_EPOCH")
    if env:
        return env
    digest = hashlib.sha256(f"schema:{CACHE_SCHEMA_VERSION}".encode())
    if _GOLDEN_FILE.exists():
        digest.update(_GOLDEN_FILE.read_bytes())
    else:
        digest.update(b"no-golden-file")
    return digest.hexdigest()[:16]


class ResultCache:
    """On-disk content-addressed store of campaign rows.

    Layout: ``<root>/<namespace>/<epoch>/<key>.json`` with one JSON row per
    point; ``key`` is the SHA-256 of the point's canonical description plus
    the epoch.  The default root is ``$REPRO_CACHE_DIR`` or
    ``<repo>/.repro-cache``; the default namespace is ``campaign`` (the
    conformance engine stores its verdict rows under ``conformance`` with the
    same epoch machinery, so a golden re-bless invalidates both at once).
    Eviction is by epoch directory: stale epochs are never read again, so
    ``prune()`` (or ``rm -rf``) reclaims them.
    """

    def __init__(
        self,
        root: Optional[Path] = None,
        *,
        epoch: Optional[str] = None,
        namespace: str = "campaign",
    ):
        root = Path(root or os.environ.get("REPRO_CACHE_DIR") or _REPO_ROOT / ".repro-cache")
        self.root = root / namespace
        self.epoch = epoch or golden_epoch()
        self.dir = self.root / self.epoch

    def key(self, point: CampaignPoint) -> str:
        blob = json.dumps(canonical_value(point.describe()), sort_keys=True)
        return hashlib.sha256(f"{self.epoch}|{blob}".encode()).hexdigest()

    def path(self, point: CampaignPoint) -> Path:
        return self.dir / f"{self.key(point)}.json"

    def get(self, point: CampaignPoint) -> Optional[Dict[str, Any]]:
        path = self.path(point)
        try:
            return json.loads(path.read_text())
        except (OSError, ValueError):
            return None

    def put(self, point: CampaignPoint, row: Mapping[str, Any]) -> Path:
        path = self.path(point)
        path.parent.mkdir(parents=True, exist_ok=True)
        stored = {k: v for k, v in row.items() if k != "cached"}
        # Per-process tmp name + atomic rename: concurrent campaign processes
        # computing the same point never tear a row or trip over each other's
        # tmp file (the last rename wins with identical content).
        tmp = path.with_name(f"{path.stem}.{os.getpid()}.tmp")
        tmp.write_text(json.dumps(stored, sort_keys=True))
        tmp.replace(path)
        return path

    def prune(self) -> int:
        """Delete every epoch directory except the current one; returns count."""
        removed = 0
        if not self.root.exists():
            return 0
        for child in self.root.iterdir():
            if child.is_dir() and child.name != self.epoch:
                for entry in child.glob("*"):
                    entry.unlink()
                child.rmdir()
                removed += 1
        return removed


# --------------------------------------------------------------------------- #
# Campaign execution
# --------------------------------------------------------------------------- #

def run_point(point: CampaignPoint) -> Dict[str, Any]:
    """Execute one campaign point and build its row.

    Determinism fields (virtual-time metrics plus the full
    :func:`run_result_sha` fingerprint) are bit-exact functions of the point's
    seed; the trailing perf fields (host wall seconds, simulator ops/s) are
    the only host-dependent entries.
    """
    bench, raw = run_lock_benchmark_detailed(point.config(), scheduler=point.scheduler)
    row: Dict[str, Any] = {
        "case": point.case,
        "scheme": point.scheme,
        "benchmark": point.benchmark,
        "P": point.procs,
        "procs_per_node": point.procs_per_node,
        "iterations": point.iterations,
        "fw": point.fw,
        "seed": point.seed,
        "scheduler": point.scheduler,
        "params": {k: list(v) if isinstance(v, tuple) else v for k, v in point.params},
        # determinism fields (bit-exact across hosts and job counts)
        "fingerprint": run_result_sha(raw),
        "elapsed_us": bench.elapsed_us,
        "throughput_mln_s": bench.throughput_mln_per_s,
        "latency_mean_us": bench.latency_mean_us,
        "latency_p95_us": bench.latency_p95_us,
        "acquires": bench.total_acquires,
        "reads": bench.reads,
        "writes": bench.writes,
        "rma_ops": raw.total_ops(),
        "op_counts": {k: int(v) for k, v in sorted(raw.op_counts.items())},
        # perf fields (host-dependent, tolerance-gated)
        "wall_s": round(raw.wall_time_s, 6),
        "sim_ops_per_s": round(raw.ops_per_sec(), 1),
    }
    # Traffic points fill these with the tail-latency summary and per-phase
    # rows (determinism fields, see DETERMINISM_FIELDS); closed-loop points
    # carry them empty so every row has a uniform shape.
    row["percentiles"] = {k: float(v) for k, v in sorted(bench.percentiles.items())}
    row["phases"] = [dict(phase) for phase in bench.phases]
    # Fault/recovery accounting (a determinism field since schema 3).
    # Campaign points always run unfaulted, so this stays empty here; the
    # fault sweep (repro.bench.faults) fills the equivalent fields in its own
    # verdict rows under the "faults" cache namespace.
    row["recovery"] = {}
    return row


@dataclass
class SweepReport:
    """Outcome of one sweep of any suite: its rows plus the executor's accounting.

    ``jobs`` is the requested worker count; ``workers`` is how many the pool
    actually used (capped by the number of computed points — 0 for a fully
    cached run), which is what timing provenance should cite.  ``extra``
    holds the suite's own results (scheduler list, verdict tables, fluid
    records, best thresholds, ...); :func:`write_manifest_json` writes it
    next to the rows.
    """

    suite: str
    name: str
    rows: List[Dict[str, Any]]
    jobs: int
    wall_s: float
    cache_hits: int
    cache_misses: int
    epoch: str
    workers: int = 0
    extra: Dict[str, Any] = field(default_factory=dict)

    @property
    def points(self) -> int:
        return len(self.rows)

    @property
    def failures(self) -> List[Dict[str, Any]]:
        """Rows carrying a failing ``ok`` verdict (verdict suites only)."""
        return [row for row in self.rows if not row.get("ok", True)]

    @property
    def ok(self) -> bool:
        return not self.failures

    def summary(self, what: str = "points") -> str:
        """The one-line account of the sweep that every suite prints."""
        return (
            f"{self.suite} {self.name!r}: {self.points} {what}, jobs={self.jobs}, "
            f"{self.cache_hits} cached / {self.cache_misses} computed, "
            f"{self.wall_s:.2f}s wall (cache epoch {self.epoch})"
        )


def run_sweep(
    suite: str,
    name: str,
    points: Sequence[Any],
    worker: Callable[[Any], Dict[str, Any]],
    *,
    jobs: Optional[int] = None,
    cache: "ResultCache | bool | None" = None,
    cache_dir: Optional[Path] = None,
    namespace: str = "campaign",
    refresh: bool = False,
    servable: Optional[Callable[[Mapping[str, Any]], bool]] = None,
) -> SweepReport:
    """Run ``worker`` over ``points`` on the pool, consulting the result cache.

    ``cache=False`` disables caching entirely, ``None``/``True`` opens the
    ``namespace`` store under ``cache_dir``, and a :class:`ResultCache`
    object is used as given.  ``refresh=True`` ignores cached rows but still
    stores the fresh results (the cold-timing mode of :func:`bless_sweep`).
    ``servable`` rejects cached rows a sweep must recompute (conformance
    never serves a ``--no-recheck`` row to a rechecking sweep).  Points carry
    their own seeds, so ``jobs=N`` and ``jobs=1`` produce bit-identical rows.
    """
    store: Optional[ResultCache]
    if cache is False:
        store = None
    elif cache is None or cache is True:
        store = ResultCache(cache_dir, namespace=namespace)
    else:
        store = cache

    t0 = time.perf_counter()
    rows: List[Any] = [None] * len(points)
    todo: List[int] = []
    for i, point in enumerate(points):
        cached_row = store.get(point) if (store is not None and not refresh) else None
        if cached_row is not None and (servable is None or servable(cached_row)):
            cached_row["cached"] = True
            rows[i] = cached_row
        else:
            todo.append(i)

    computed = parallel_map(worker, [points[i] for i in todo], jobs=jobs)
    for i, row in zip(todo, computed):
        if store is not None:
            store.put(points[i], row)
        rows[i] = dict(row, cached=False)

    requested = default_jobs() if jobs is None else max(1, int(jobs))
    return SweepReport(
        suite=suite,
        name=name,
        rows=rows,
        jobs=requested,
        wall_s=time.perf_counter() - t0,
        cache_hits=len(points) - len(todo),
        cache_misses=len(todo),
        epoch=store.epoch if store is not None else golden_epoch(),
        workers=min(requested, len(todo)),
    )


def run_campaign(
    spec: "CampaignSpec | str",
    *,
    jobs: Optional[int] = None,
    cache: "ResultCache | bool | None" = None,
    cache_dir: Optional[Path] = None,
    refresh: bool = False,
    scheduler: Optional[str] = None,
) -> SweepReport:
    """Expand ``spec`` and execute it through :func:`run_sweep`.

    ``scheduler`` overrides every point's runtime backend; the cache
    arguments are :func:`run_sweep`'s.
    """
    if isinstance(spec, str):
        spec = get_campaign(spec)
    if scheduler is not None:
        get_runtime(scheduler)  # validate early, helpful UnknownNameError
    points = spec.points()
    if scheduler is not None:
        points = [replace(p, scheduler=scheduler) for p in points]
    return run_sweep(
        "campaign", spec.name, points, run_point,
        jobs=jobs, cache=cache, cache_dir=cache_dir, refresh=refresh,
    )


class BlessError(RuntimeError):
    """A bless refused to record its manifest (cache miss or failed check)."""


def bless_sweep(
    run: Callable[..., SweepReport],
    path: Path,
    *,
    jobs: Optional[int] = None,
    scaling: bool = False,
    checks: Sequence[Callable[[SweepReport, SweepReport], None]] = (),
    cold: Optional[SweepReport] = None,
) -> Tuple[SweepReport, Dict[str, Any]]:
    """Record a suite's manifest at ``path``: cold, then warm, then checks.

    ``run(jobs=..., refresh=...)`` runs the suite once through the cache.
    The cold run refreshes every cached row (``cold`` is reused instead when
    it already computed every point), ``scaling`` adds a cold ``jobs=1`` run
    for the parallel-speedup record, and the warm run must serve every point
    from the cache.  Each check gets ``(cold, warm)`` and raises
    :class:`BlessError` to refuse the bless.  Returns the cold report and the
    timing block written with it.
    """
    if cold is None or cold.cache_misses != cold.points:
        cold = run(jobs=jobs, refresh=True)
    timing: Dict[str, Any] = {
        "cpu_count": os.cpu_count(),
        "jobs": cold.jobs,
        "workers": cold.workers,
        "cold_wall_s": round(cold.wall_s, 3),
    }
    if scaling:
        serial = run(jobs=1, refresh=True)
        timing["jobs1_wall_s"] = round(serial.wall_s, 3)
        if cold.wall_s > 0:
            timing["parallel_speedup"] = round(serial.wall_s / cold.wall_s, 3)
    warm = run(jobs=jobs, refresh=False)
    if warm.cache_hits != warm.points:
        raise BlessError(
            f"warm {cold.suite} run expected {warm.points} cache hits, got "
            f"{warm.cache_hits} — did the cache epoch change (golden re-record, "
            f"REPRO_CACHE_EPOCH) or a concurrent process prune the cache mid-bless?"
        )
    timing["warm_wall_s"] = round(warm.wall_s, 3)
    timing["warm_cache_hits"] = warm.cache_hits
    if cold.wall_s > 0:
        timing["warm_over_cold"] = round(warm.wall_s / cold.wall_s, 4)
    for check in checks:
        check(cold, warm)
    write_manifest_json(cold, path, timing=timing)
    return cold, timing


def write_manifest_json(
    report: SweepReport,
    path: Path,
    *,
    timing: Optional[Mapping[str, Any]] = None,
) -> Path:
    """Write a sweep's manifest: rows + host metadata + ``extra`` + timing.

    The single serialization point for every suite's JSON (the committed
    ``BENCH_*.json`` baselines and the CI reports alike): the transient
    ``cached`` marker is stripped from every row, and the host block records
    where the manifest was measured.
    """
    payload: Dict[str, Any] = {
        "suite": report.suite,
        "campaign": report.name,
        "epoch": report.epoch,
        "host": {
            "platform": platform.platform(),
            "python": platform.python_version(),
            "cpu_count": os.cpu_count(),
        },
        "rows": [{k: v for k, v in row.items() if k != "cached"} for row in report.rows],
    }
    payload.update(report.extra)
    if timing is not None:
        payload["timing"] = dict(timing)
    path = Path(path)
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path


def render_campaign_figure(
    rows: Sequence[Mapping[str, Any]],
    *,
    title: str = "",
    width: int = 64,
    height: int = 14,
) -> str:
    """Render campaign rows as ASCII throughput-vs-P charts, one per panel.

    Rows are grouped into panels by ``(benchmark, fw)``; within a panel every
    scheme becomes one line series over the process-count axis (the paper's
    figure shape).  Panels whose fw axis is degenerate (a single value across
    the whole campaign for that benchmark) drop the fw tag from the title.
    """
    from repro.bench.ascii_plot import line_chart

    panels: Dict[Tuple[str, float], Dict[str, List[Tuple[float, float]]]] = {}
    fw_per_bench: Dict[str, set] = {}
    for row in rows:
        bench = str(row.get("benchmark", ""))
        fw = float(row.get("fw", 0.0))
        fw_per_bench.setdefault(bench, set()).add(fw)
        series = panels.setdefault((bench, fw), {})
        series.setdefault(str(row.get("scheme", "?")), []).append(
            (float(row.get("P", 0)), float(row.get("throughput_mln_s", 0.0)))
        )
    charts: List[str] = []
    for (bench, fw), series in panels.items():
        for points in series.values():
            points.sort()
        tag = f" fw={fw:g}" if len(fw_per_bench[bench]) > 1 else ""
        head = f"{title}: " if title else ""
        charts.append(
            line_chart(
                series,
                width=width,
                height=height,
                title=f"{head}{bench}{tag} — throughput vs P",
                x_label="P",
                y_label="mln/s",
            )
        )
    return "\n\n".join(charts)
