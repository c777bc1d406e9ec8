"""Self-registering catalogues of lock schemes, benchmarks and runtimes.

This module is the extension seam of the public API: every lock module
(:mod:`repro.core`, :mod:`repro.related`, :mod:`repro.dht.striped_lock`),
every microbenchmark (:mod:`repro.bench.workloads`) and every runtime backend
(:mod:`repro.rma`) registers itself here at import time.  Everything that used
to be an if-chain — ``build_lock_spec``, the ``SCHEMES``/``BENCHMARKS``
tuples, the CLI's threshold flags, the runtime lookup — is derived from
these registries, so adding a new lock or benchmark is purely additive:

    from repro.api import ParamSpec, register_scheme

    @register_scheme("my-lock", category="custom", params=(
        ParamSpec("home_rank", int, 0, "rank hosting the lock word"),
    ))
    def _build_my_lock(machine, home_rank=0):
        return MyLockSpec(num_processes=machine.num_processes, home_rank=home_rank)

After that, ``Cluster.lock("my-lock")``, ``LockBenchConfig(scheme="my-lock")``
and ``run_lock_benchmark`` all work without touching the harness.

The registries live below the rest of the package (they import nothing from
``repro``), so lock modules can import the decorators without cycles; the
``load_builtin_*`` helpers import the built-in provider modules on demand so
lookups never observe a half-populated catalogue.
"""

from __future__ import annotations

import difflib
import importlib
from dataclasses import dataclass, fields
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple

__all__ = [
    "BenchmarkInfo",
    "ParamSpec",
    "RuntimeInfo",
    "SchemeInfo",
    "UnknownNameError",
    "benchmark_names",
    "get_benchmark",
    "get_runtime",
    "get_scheme",
    "load_builtin_benchmarks",
    "load_builtin_runtimes",
    "load_builtin_schemes",
    "register_benchmark",
    "register_benchmark_info",
    "register_runtime",
    "register_scheme",
    "runtime_names",
    "scheme_names",
    "unregister",
]


class UnknownNameError(ValueError):
    """Lookup of a name that is not registered (a :class:`ValueError`).

    The message lists every registered name and, when one is close enough,
    a ``difflib`` "did you mean" suggestion.
    """

    def __init__(self, kind: str, name: str, known: Sequence[str]):
        known = sorted(known)
        message = f"unknown {kind} {name!r}; registered {kind}s: {', '.join(known) or '(none)'}"
        matches = difflib.get_close_matches(name, known, n=1, cutoff=0.5)
        if matches:
            message += f". Did you mean {matches[0]!r}?"
        super().__init__(message)
        self.kind = kind
        self.name = name
        self.known = tuple(known)
        self.suggestion = matches[0] if matches else None

    def __reduce__(self):
        # Default exception pickling replays __init__ with the stored message
        # only, which fails for this 3-argument signature; without this a
        # worker raising UnknownNameError would kill the multiprocessing
        # pool's result handler and hang the campaign executor forever.
        return (UnknownNameError, (self.kind, self.name, list(self.known)))


@dataclass(frozen=True)
class ParamSpec:
    """Typed, documented description of one constructor parameter of a scheme.

    Args:
        name: Keyword name, e.g. ``"t_r"``.
        type: Element type used to coerce values (``int``, ``float``, ...).
        default: Value used when the caller does not pass the parameter.
        help: One-line description (surfaces in generated CLI flags).
        sequence: The parameter takes a sequence of ``type`` (e.g. the
            per-level ``t_l`` thresholds); mappings pass through untouched.
        from_config: Optional extractor used by the benchmark harness to pull
            the value out of a ``LockBenchConfig``-like object.  Defaults to
            ``getattr(config, name, default)``.
        tunable: Whether the parameter is a performance threshold that sweep
            tools (``repro tune``, policy tables) may vary without changing
            the lock's placement or semantics.  ``None`` (the default) infers
            from the metadata: numeric scalar and sequence parameters are
            tunable, everything else is not.  Placement-style parameters
            (``home_rank``) should be registered with ``tunable=False``.
    """

    name: str
    type: Callable[[Any], Any] = int
    default: Any = None
    help: str = ""
    sequence: bool = False
    from_config: Optional[Callable[[Any], Any]] = None
    tunable: Optional[bool] = None

    @property
    def is_tunable(self) -> bool:
        if self.tunable is not None:
            return self.tunable
        return self.type in (int, float)

    def coerce(self, value: Any) -> Any:
        """Coerce ``value`` to the declared type (``None`` passes through)."""
        if value is None:
            return None
        if self.sequence:
            if isinstance(value, Mapping):
                return value
            return tuple(self.type(v) for v in value)
        return self.type(value)

    def extract(self, config: Any) -> Any:
        """Pull this parameter's value out of a benchmark configuration."""
        if self.from_config is not None:
            return self.from_config(config)
        return getattr(config, self.name, self.default)


#: Sentinel for the lazily-cached swap-compatibility verdict.
_UNSET = object()


@dataclass(frozen=True)
class SchemeInfo:
    """One registered lock scheme.

    ``builder(machine, **params)`` returns the lock spec; ``params`` documents
    the accepted keywords.  ``harness`` marks schemes whose handles follow the
    plain ``LockHandle``/``RWLockHandle`` protocols and can therefore run
    under the lock microbenchmark harness (the striped per-volume lock, whose
    handle takes a volume argument, registers with ``harness=False``).
    """

    name: str
    builder: Callable[..., Any]
    rw: bool = False
    category: str = "custom"
    params: Tuple[ParamSpec, ...] = ()
    help: str = ""
    harness: bool = True
    #: Optional ``bound(P) -> int``: the scheme's bounded-bypass (starvation)
    #: guarantee — the maximum number of foreign critical-section entries a
    #: waiter can observe after its ordering RMW (see
    #: :mod:`repro.verification.oracles`).  FIFO queues declare ``P - 1``;
    #: ``None`` means no declared bound (backoff locks, threshold-passing
    #: hierarchies), so conformance reports the observed maximum only.
    fairness_bound: Optional[Callable[[int], int]] = None
    #: Optional ``adapter(machine) -> LockSpec`` for schemes whose native
    #: handles do not follow the plain lock protocol (``harness=False``): the
    #: adapter produces a harness-compatible spec (e.g. the striped per-volume
    #: lock bound to one stripe) so the conformance sweep can still check the
    #: scheme's safety invariants.
    conformance_adapter: Optional[Callable[..., Any]] = None

    def param(self, name: str) -> ParamSpec:
        for spec in self.params:
            if spec.name == name:
                return spec
        raise UnknownNameError(f"{self.name} parameter", name, [p.name for p in self.params])

    def build(self, machine: Any, **params: Any) -> Any:
        """Validate and coerce ``params``, then build the lock spec."""
        known = {p.name: p for p in self.params}
        values: Dict[str, Any] = {}
        for key, value in params.items():
            if key not in known:
                raise UnknownNameError(f"{self.name} parameter", key, list(known))
            values[key] = known[key].coerce(value)
        return self.builder(machine, **values)

    def params_from_config(self, config: Any) -> Dict[str, Any]:
        """Extract every declared parameter from a benchmark configuration.

        The legacy per-field extraction (``config.t_r`` etc.) runs first;
        the configuration's generic ``params`` overlay — ``(name, value)``
        pairs or a mapping, see ``LockBenchConfig.params`` — is applied on
        top, coerced and validated against this scheme's declarations, so
        third-party schemes are parameterizable without dedicated config
        fields.
        """
        values = {spec.name: spec.extract(config) for spec in self.params}
        overlay = getattr(config, "params", None) or ()
        items = overlay.items() if isinstance(overlay, Mapping) else overlay
        for key, value in items:
            values[key] = self.param(key).coerce(value)
        return values

    def tunable_params(self) -> Tuple[ParamSpec, ...]:
        """The subset of declared parameters sweep tools may vary.

        Derived from :class:`ParamSpec` metadata (see ``ParamSpec.tunable``),
        so ``repro tune`` grids and generated CLI flags cover third-party
        ``@register_scheme`` locks without any hard-coded flag lists.
        """
        return tuple(spec for spec in self.params if spec.is_tunable)

    def swap_incompatible_reason(self) -> Optional[str]:
        """Why this scheme cannot be installed into a lock-table scheme slot.

        ``TableEntry.place`` (the adaptive control plane's swap seam) needs a
        frozen dataclass spec with a ``base_offset`` init field so it can
        re-base the layout into an existing slab.  Returns ``None`` when the
        scheme satisfies the contract, else a one-line human-readable reason.
        The structural probe builds the default spec on a tiny two-rank
        machine once and caches the verdict on the info object.
        """
        cached = getattr(self, "_swap_reason", _UNSET)
        if cached is not _UNSET:
            return cached
        reason: Optional[str] = None
        if not self.harness:
            reason = (
                "does not follow the plain lock-handle protocol "
                "(registered with harness=False)"
            )
        else:
            import dataclasses

            from repro.topology.machine import Machine

            try:
                probe = self.build(Machine.single_node(2))
            except Exception as exc:  # structural probe, never raises outward
                reason = f"default spec cannot be built for a probe machine ({exc})"
            else:
                if not dataclasses.is_dataclass(probe):
                    reason = f"spec type {type(probe).__name__} is not a dataclass"
                elif not any(
                    f.name == "base_offset" and f.init
                    for f in dataclasses.fields(probe)
                ):
                    reason = (
                        f"spec type {type(probe).__name__} has no re-basable "
                        f"'base_offset' init field"
                    )
        object.__setattr__(self, "_swap_reason", reason)
        return reason

    @property
    def swap_compatible(self) -> bool:
        """Whether ``TableEntry.place``/``swap_spec`` can install this scheme."""
        return self.swap_incompatible_reason() is None


@dataclass(frozen=True)
class BenchmarkInfo:
    """One registered microbenchmark.

    The five paper benchmarks share the harness's default rank program and
    differ only in the declarative fields: ``cs_kind`` picks the critical
    section body (``"empty"``, ``"single-op"`` — one remote access — or
    ``"counter-compute"`` — a shared-counter increment plus 1-4 µs of local
    work) and ``post_release_wait`` adds the WARB-style random wait after the
    release.  Third-party benchmarks may instead supply ``program_factory``,
    a drop-in replacement for :func:`repro.bench.harness.make_lock_program`
    with the same ``(config, spec, is_rw, shared_offset)`` signature.

    ``spec_transform(config, spec, is_rw) -> spec`` lets a benchmark replace
    the single lock spec the harness built with a larger structure sized for
    its workload — the traffic scenarios use it to swap in a whole
    :class:`~repro.traffic.table.LockTableSpec`, so the runtime's window
    covers every table entry.  ``tags`` group benchmarks for campaign
    selectors (e.g. ``"traffic"``, ``"traffic-rw"``).
    """

    name: str
    help: str = ""
    cs_kind: str = "empty"
    post_release_wait: bool = False
    program_factory: Optional[Callable[..., Any]] = None
    spec_transform: Optional[Callable[..., Any]] = None
    tags: Tuple[str, ...] = ()

    #: Critical-section bodies the harness's default program understands.
    CS_KINDS = ("empty", "single-op", "counter-compute")

    def __post_init__(self) -> None:
        # A typo here would silently select the empty critical section and
        # report wrong benchmark numbers, so validate eagerly.
        if self.program_factory is None and self.cs_kind not in self.CS_KINDS:
            raise UnknownNameError("cs_kind", self.cs_kind, self.CS_KINDS)


@dataclass(frozen=True)
class RuntimeInfo:
    """One registered runtime backend.

    ``factory(machine, *, window_words, seed, latency, fabric)``
    returns an :class:`~repro.rma.runtime_base.RMARuntime` whose virtual-time
    results are bit-exactly reproducible (README "The determinism contract").
    The factory also accepts the ``perturbation``, ``observer`` and
    ``fault_plan`` keywords when the caller sets them.  The one built-in
    backend is ``horizon``.
    """

    name: str
    factory: Callable[..., Any]
    help: str = ""


class _Registry:
    """Name -> info mapping with lazy builtin loading and helpful errors."""

    def __init__(self, kind: str, info_type: type, builtin_modules: Sequence[str] = ()):
        self.kind = kind
        self._fields = tuple(f.name for f in fields(info_type))
        self._entries: Dict[str, Any] = {}
        self._builtin_modules = tuple(builtin_modules)
        self._loaded = False
        self._loading = False

    def load_builtins(self) -> None:
        """Import the builtin provider modules (idempotent, re-entrant).

        The in-progress flag (not the done flag) guards re-entrancy: provider
        modules may consult this registry while they are being imported (e.g.
        workloads derives its tuples from the scheme registry after the lock
        modules registered).  ``_loaded`` is only set after every import
        succeeded, so a failing builtin does not poison the catalogue — the
        next lookup retries and surfaces the real ImportError again.
        """
        if self._loaded or self._loading:
            return
        self._loading = True
        try:
            for module in self._builtin_modules:
                importlib.import_module(module)
            self._loaded = True
        finally:
            self._loading = False

    def register(self, info: Any, *, replace: bool = False) -> None:
        existing = self._entries.get(info.name)
        if existing is not None and not replace and not self._same_provider(existing, info):
            raise ValueError(
                f"{self.kind} {info.name!r} is already registered; "
                f"pass replace=True to override it"
            )
        self._entries[info.name] = info

    @staticmethod
    def _same_provider(existing: Any, info: Any) -> bool:
        """True when ``info`` re-registers the same provider as ``existing``.

        ``importlib.reload`` of a provider module re-executes its registration
        calls with fresh (but identically named) builder/factory objects;
        treating that as a silent refresh keeps the modules reload-safe in
        notebook/REPL workflows while a genuinely different provider claiming
        an existing name still raises.
        """
        if existing == info:
            return True
        for attr in ("builder", "factory", "program_factory"):
            old = getattr(existing, attr, None)
            new = getattr(info, attr, None)
            if callable(old) and callable(new):
                return (old.__module__, old.__qualname__) == (new.__module__, new.__qualname__)
        return False

    def unregister(self, name: str) -> None:
        self._entries.pop(name, None)

    def get(self, name: str) -> Any:
        self.load_builtins()
        try:
            return self._entries[name]
        except KeyError:
            raise UnknownNameError(self.kind, name, list(self._entries)) from None

    def names(self, **filters: Any) -> Tuple[str, ...]:
        for key in filters:
            if key not in self._fields:
                raise UnknownNameError(f"{self.kind} filter", key, self._fields)
        self.load_builtins()
        out: List[str] = []
        for name, info in self._entries.items():
            if all(getattr(info, key) == value for key, value in filters.items()):
                out.append(name)
        return tuple(out)


#: Import order fixes the registration (and therefore catalogue) order, which
#: the figure drivers rely on: fompi-spin, d-mcs, rma-mcs / fompi-rw, rma-rw.
_SCHEME_MODULES = (
    "repro.core.baselines",
    "repro.core.dmcs",
    "repro.core.rma_mcs",
    "repro.core.rma_rw",
    "repro.related.ticket",
    "repro.related.hbo",
    "repro.related.cohort",
    "repro.related.numa_rw",
    "repro.related.alock",
    "repro.related.lock_server",
    "repro.dht.striped_lock",
    "repro.fault.lease_lock",
    "repro.fault.repair_mcs",
)
_BENCHMARK_MODULES = (
    "repro.bench.workloads",
    "repro.traffic.scenarios",
    "repro.fault.traffic",
    "repro.scale.elastic",
    "repro.scale.rehome",
)
_RUNTIME_MODULES = ("repro.rma.sim_runtime",)

_schemes = _Registry("scheme", SchemeInfo, _SCHEME_MODULES)
_benchmarks = _Registry("benchmark", BenchmarkInfo, _BENCHMARK_MODULES)
_runtimes = _Registry("runtime", RuntimeInfo, _RUNTIME_MODULES)


# --------------------------------------------------------------------------- #
# Decorators
# --------------------------------------------------------------------------- #

def register_scheme(
    name: str,
    *,
    rw: bool = False,
    category: str = "custom",
    params: Sequence[ParamSpec] = (),
    help: str = "",
    harness: bool = True,
    fairness_bound: Optional[Callable[[int], int]] = None,
    conformance_adapter: Optional[Callable[..., Any]] = None,
    replace: bool = False,
) -> Callable[[Callable[..., Any]], Callable[..., Any]]:
    """Decorator: register the decorated ``builder(machine, **params)``.

    ``fairness_bound`` and ``conformance_adapter`` feed the conformance layer
    (see :class:`SchemeInfo`); both are optional and have no effect on the
    benchmark harness.
    """

    def decorator(builder: Callable[..., Any]) -> Callable[..., Any]:
        doc = (builder.__doc__ or "").strip()
        _schemes.register(
            SchemeInfo(
                name=name,
                builder=builder,
                rw=rw,
                category=category,
                params=tuple(params),
                help=help or (doc.splitlines()[0] if doc else ""),
                harness=harness,
                fairness_bound=fairness_bound,
                conformance_adapter=conformance_adapter,
            ),
            replace=replace,
        )
        return builder

    return decorator


def register_benchmark(
    name: str,
    *,
    help: str = "",
    cs_kind: str = "empty",
    post_release_wait: bool = False,
    spec_transform: Optional[Callable[..., Any]] = None,
    tags: Sequence[str] = (),
    replace: bool = False,
) -> Callable[[Callable[..., Any]], Callable[..., Any]]:
    """Decorator: register a custom benchmark whose decorated function is the
    program factory (``factory(config, spec, is_rw, shared_offset)``).

    ``spec_transform`` and ``tags`` are forwarded to :class:`BenchmarkInfo`;
    the traffic scenarios (:mod:`repro.traffic.scenarios`) use both.
    """

    def decorator(factory: Callable[..., Any]) -> Callable[..., Any]:
        _benchmarks.register(
            BenchmarkInfo(
                name=name,
                help=help,
                cs_kind=cs_kind,
                post_release_wait=post_release_wait,
                program_factory=factory,
                spec_transform=spec_transform,
                tags=tuple(tags),
            ),
            replace=replace,
        )
        return factory

    return decorator


def register_benchmark_info(info: BenchmarkInfo, *, replace: bool = False) -> BenchmarkInfo:
    """Register a declarative benchmark (the built-ins use the harness body)."""
    _benchmarks.register(info, replace=replace)
    return info


def register_runtime(
    name: str,
    *,
    help: str = "",
    replace: bool = False,
) -> Callable[[Callable[..., Any]], Callable[..., Any]]:
    """Decorator: register the decorated runtime factory.

    The factory is called as ``factory(machine, *, window_words, seed,
    latency, fabric)`` and must return an RMA runtime instance (see
    :class:`RuntimeInfo` for the optional keywords).
    """

    def decorator(factory: Callable[..., Any]) -> Callable[..., Any]:
        _runtimes.register(RuntimeInfo(name=name, factory=factory, help=help), replace=replace)
        return factory

    return decorator


# --------------------------------------------------------------------------- #
# Lookups
# --------------------------------------------------------------------------- #

def get_scheme(name: str) -> SchemeInfo:
    """Look up a registered scheme (raises :class:`UnknownNameError`)."""
    return _schemes.get(name)


def get_benchmark(name: str) -> BenchmarkInfo:
    """Look up a registered benchmark (raises :class:`UnknownNameError`)."""
    return _benchmarks.get(name)


def get_runtime(name: str) -> RuntimeInfo:
    """Look up a registered runtime (raises :class:`UnknownNameError`)."""
    return _runtimes.get(name)


def scheme_names(*, category: Optional[str] = None, harness: Optional[bool] = None) -> Tuple[str, ...]:
    """Registered scheme names, optionally filtered by category / harness-use."""
    filters: Dict[str, Any] = {}
    if category is not None:
        filters["category"] = category
    if harness is not None:
        filters["harness"] = harness
    return _schemes.names(**filters)


def benchmark_names(*, tag: Optional[str] = None) -> Tuple[str, ...]:
    """Registered benchmark names, in registration order.

    ``tag`` filters to benchmarks carrying that tag (e.g. ``"traffic"`` for
    the open-loop traffic scenarios) — the basis of the campaign engine's
    benchmark selectors.
    """
    names = _benchmarks.names()
    if tag is None:
        return names
    return tuple(n for n in names if tag in _benchmarks.get(n).tags)


def runtime_names(*, deterministic: Optional[bool] = None) -> Tuple[str, ...]:
    """Registered runtime names, in registration order.

    Every runtime is a deterministic simulator, so ``deterministic=True``
    returns every name and a false ``deterministic`` returns none.
    """
    return () if deterministic is False else _runtimes.names()


def unregister(kind: str, name: str) -> None:
    """Remove a registration (primarily for tests tearing down custom entries)."""
    registry = {"scheme": _schemes, "benchmark": _benchmarks, "runtime": _runtimes}.get(kind)
    if registry is None:
        raise UnknownNameError("registry", kind, ["scheme", "benchmark", "runtime"])
    registry.unregister(name)


def load_builtin_schemes() -> None:
    """Import every builtin lock module so its schemes are registered."""
    _schemes.load_builtins()


def load_builtin_benchmarks() -> None:
    """Import the builtin benchmark definitions."""
    _benchmarks.load_builtins()


def load_builtin_runtimes() -> None:
    """Import the builtin runtime backends."""
    _runtimes.load_builtins()
