"""Public API of the repro package: registries plus the Cluster/Session facade.

Quickstart::

    from repro.api import Cluster

    with Cluster(procs=64, procs_per_node=8, topology="xc30") as c:
        lock = c.lock("rma-rw", t_r=64)
        result = c.bench(lock, "wcsb", fw=0.02)
        print(result.as_row())

Extension points (see :mod:`repro.api.registry`):

* ``@register_scheme`` — add a lock scheme; it becomes usable from
  ``Cluster.lock``, ``LockBenchConfig`` and the benchmark harness.
* ``@register_benchmark`` — add a microbenchmark program factory.
* ``@register_runtime`` — add a runtime backend; ``Cluster(runtime=...)``
  runs on it.

This module imports only the registries eagerly; the facade (which pulls in
the benchmark harness) is loaded lazily via PEP 562 so that lock and runtime
modules can import the decorators without cycles.
"""

from repro.api.registry import (
    BenchmarkInfo,
    ParamSpec,
    RuntimeInfo,
    SchemeInfo,
    UnknownNameError,
    benchmark_names,
    get_benchmark,
    get_runtime,
    get_scheme,
    load_builtin_benchmarks,
    load_builtin_runtimes,
    load_builtin_schemes,
    register_benchmark,
    register_benchmark_info,
    register_runtime,
    register_scheme,
    runtime_names,
    scheme_names,
    unregister,
)

__all__ = [
    "BenchmarkInfo",
    "Cluster",
    "ClusterLock",
    "ParamSpec",
    "RuntimeInfo",
    "SchemeInfo",
    "Session",
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

_LAZY = {"Cluster", "ClusterLock", "Session"}


def __getattr__(name):
    if name in _LAZY:
        from repro.api import session as _session

        return getattr(_session, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | _LAZY)
