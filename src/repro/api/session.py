"""The Cluster/Session facade: one object that owns machine construction,
runtime selection, window-layout merging and result collection.

``Cluster`` is the entry point users see first::

    from repro.api import Cluster

    with Cluster(procs=64, procs_per_node=8, topology="xc30") as c:
        lock = c.lock("rma-rw", t_r=64)
        result = c.bench(lock, "wcsb", fw=0.02)     # -> LockBenchResult

    # Custom SPMD programs get a Session with the window layout pre-merged:
    with Cluster(procs=32) as c:
        lock = c.lock("rma-mcs", t_l=(4, 8))
        session = c.session(lock, extra_words=1)
        result = session.run(my_program)            # -> RunResult

``Cluster.bench`` routes through the exact same harness path as the
pre-registry dispatch (:func:`repro.bench.harness.run_lock_benchmark`), so the
results it returns are bit-identical to the seed-era ``build_lock_spec``
pipeline — the facade adds reach, not a second code path.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Mapping, Optional, Sequence, Tuple

from repro.api.registry import (
    RuntimeInfo,
    SchemeInfo,
    UnknownNameError,
    get_runtime,
    get_scheme,
)
from repro.core.lock_base import LockHandle, LockSpec
from repro.rma.runtime_base import ProcessContext, RMARuntime, RunResult
from repro.topology.builder import figure2_machine, xc30_like
from repro.topology.machine import Machine

__all__ = ["Cluster", "ClusterLock", "Session", "TOPOLOGIES"]

#: Named topology builders understood by ``Cluster(topology=...)``.
TOPOLOGIES: Tuple[str, ...] = ("xc30", "figure2")


def _build_machine(topology: str, procs: int, procs_per_node: int) -> Machine:
    if topology == "xc30":
        return xc30_like(procs, procs_per_node=procs_per_node)
    if topology == "figure2":
        return figure2_machine(procs_per_node=procs_per_node)
    raise UnknownNameError("topology", topology, TOPOLOGIES)


class ClusterLock:
    """A lock scheme bound to a cluster: the built spec plus its parameters.

    Exposes the spec surface programs need (``window_words``, ``init_window``,
    ``make``) so it can be handed to :meth:`Cluster.session` or used directly
    inside a rank program, while remembering the registry name and parameter
    values for :meth:`Cluster.bench`.
    """

    def __init__(self, info: SchemeInfo, spec: LockSpec, params: Dict[str, Any]):
        self.info = info
        self.spec = spec
        self.params = dict(params)

    @property
    def name(self) -> str:
        return self.info.name

    @property
    def is_rw(self) -> bool:
        return self.info.rw

    @property
    def window_words(self) -> int:
        return self.spec.window_words

    def init_window(self, rank: int) -> Mapping[int, int]:
        return self.spec.init_window(rank)

    def make(self, ctx: ProcessContext) -> LockHandle:
        """Create the per-process handle bound to ``ctx``."""
        return self.spec.make(ctx)

    def __repr__(self) -> str:
        args = ", ".join(f"{k}={v!r}" for k, v in self.params.items())
        return f"ClusterLock({self.name!r}{', ' + args if args else ''})"


class Session:
    """One runtime bound to a merged window layout.

    A session owns a single runtime instance whose window is large enough for
    every spec handed to it (plus ``extra_words`` of scratch space) and whose
    per-rank initial contents are the conflict-checked merge of every spec's
    ``init_window``.  ``run`` executes an SPMD rank program on it.
    """

    def __init__(
        self,
        machine: Machine,
        runtime_info: RuntimeInfo,
        specs: Sequence[Any] = (),
        *,
        extra_words: int = 2,
        window_words: Optional[int] = None,
        seed: int = 0,
        latency: Any = None,
        fabric: Any = None,
    ):
        self.machine = machine
        self.runtime_info = runtime_info
        self.specs = tuple(specs)
        for spec in self.specs:
            if not callable(getattr(spec, "init_window", None)):
                raise TypeError(
                    f"session specs must expose window_words/init_window; got {spec!r}"
                )
        if window_words is None:
            base = max((spec.window_words for spec in self.specs), default=0)
            window_words = base + max(0, int(extra_words))
        self.window_words = max(1, int(window_words))
        self._runtime: RMARuntime = runtime_info.factory(
            machine,
            window_words=self.window_words,
            seed=seed,
            latency=latency,
            fabric=fabric,
        )

    def window_init(self, rank: int) -> Dict[int, int]:
        """Merged initial window contents for ``rank`` across all specs."""
        return LockSpec.merge_inits(*(spec.init_window(rank) for spec in self.specs))

    def window(self, rank: int):
        """Window of ``rank`` (valid after :meth:`run`)."""
        return self._runtime.window(rank)

    def run(
        self,
        program: Callable[..., Any],
        *,
        program_args: Optional[Sequence[Any]] = None,
    ) -> RunResult:
        """Execute ``program`` on every rank with the merged window layout."""
        window_init = self.window_init if self.specs else None
        return self._runtime.run(program, window_init=window_init, program_args=program_args)


class Cluster:
    """Facade over machine construction, registries and the benchmark harness.

    Args:
        procs: Total number of simulated processes.
        procs_per_node: Processes per compute node.
        topology: Named topology (``"xc30"`` — the paper's two-level machine —
            or ``"figure2"`` — the three-level example machine); ignored when
            ``machine`` is given.
        machine: Pre-built :class:`~repro.topology.machine.Machine` overriding
            the named topology.
        runtime: Registered runtime backend (``"horizon"``, or any name
            added via ``@register_runtime``).  :meth:`session` programs may
            be step programs or ordinary blocking code, which horizon runs
            through its per-rank thread bridge.
        seed: Default seed for benchmarks and sessions.
        latency_model: Optional end-point latency model override.
        fabric: Optional link-level contention model.
    """

    def __init__(
        self,
        procs: int = 64,
        procs_per_node: int = 8,
        topology: str = "xc30",
        *,
        machine: Optional[Machine] = None,
        runtime: str = "horizon",
        seed: int = 1,
        latency_model: Any = None,
        fabric: Any = None,
    ):
        self.machine = machine if machine is not None else _build_machine(topology, procs, procs_per_node)
        self.runtime_name = runtime
        self.runtime_info = get_runtime(runtime)  # validate eagerly, helpful error
        self.seed = int(seed)
        self.latency_model = latency_model
        self.fabric = fabric

    # -- context manager ---------------------------------------------------- #

    def __enter__(self) -> "Cluster":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False

    # -- introspection ------------------------------------------------------ #

    @property
    def num_processes(self) -> int:
        return self.machine.num_processes

    def describe(self) -> str:
        """Human-readable one-liner: machine plus runtime backend."""
        return f"{self.machine.describe()} [runtime={self.runtime_name}]"

    # -- construction ------------------------------------------------------- #

    def lock(self, scheme: str, **params: Any) -> ClusterLock:
        """Build a registered lock scheme for this cluster's machine.

        Parameter names are validated against the scheme's declared
        :class:`~repro.api.registry.ParamSpec` list; unknown names raise an
        :class:`~repro.api.registry.UnknownNameError` with a close-match
        suggestion.
        """
        info = get_scheme(scheme)
        spec = info.build(self.machine, **params)
        return ClusterLock(info, spec, params)

    def session(
        self,
        *specs: Any,
        extra_words: int = 2,
        window_words: Optional[int] = None,
        seed: Optional[int] = None,
    ) -> Session:
        """Create a :class:`Session` whose window fits every spec in ``specs``."""
        return Session(
            self.machine,
            self.runtime_info,
            specs,
            extra_words=extra_words,
            window_words=window_words,
            seed=self.seed if seed is None else int(seed),
            latency=self.latency_model,
            fabric=self.fabric,
        )

    # -- benchmarking ------------------------------------------------------- #

    def bench(
        self,
        lock: Any,
        benchmark: str = "ecsb",
        *,
        iterations: int = 20,
        fw: float = 0.002,
        seed: Optional[int] = None,
        cs_compute_us: Tuple[float, float] = (1.0, 4.0),
        wait_after_release_us: Tuple[float, float] = (1.0, 4.0),
        warmup_fraction: float = 0.1,
        **lock_params: Any,
    ):
        """Run one lock microbenchmark and return its ``LockBenchResult``.

        ``lock`` is a :class:`ClusterLock` from :meth:`lock` or a scheme name
        (then ``lock_params`` are forwarded to :meth:`lock`).  The benchmark
        runs through :func:`repro.bench.harness.run_lock_benchmark` on this
        cluster's runtime, so results match the classic config-driven path
        bit for bit.
        """
        from repro.bench.harness import run_lock_benchmark
        from repro.bench.workloads import LockBenchConfig

        if isinstance(lock, str):
            lock = self.lock(lock, **lock_params)
        elif lock_params:
            raise TypeError("lock_params are only accepted when `lock` is a scheme name")

        # The already-built spec is authoritative — the harness never rebuilds
        # it from the config's threshold fields when ``spec=`` is passed.
        config = LockBenchConfig(
            machine=self.machine,
            scheme=lock.name,
            benchmark=benchmark,
            iterations=iterations,
            fw=fw,
            seed=self.seed if seed is None else int(seed),
            cs_compute_us=cs_compute_us,
            wait_after_release_us=wait_after_release_us,
            warmup_fraction=warmup_fraction,
        )
        return run_lock_benchmark(
            config,
            latency_model=self.latency_model,
            fabric=self.fabric,
            scheduler=self.runtime_name,
            spec=lock.spec,
            is_rw=lock.is_rw,
        )
