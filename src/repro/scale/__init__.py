"""Fluid-scale traffic: load modeling, elastic tables, hot-key re-homing.

Three cooperating layers lift the open-loop traffic subsystem
(:mod:`repro.traffic`) from thousands of simulated clients to the
millions-per-second regime the paper's deployment targets, without giving
up the repo's bit-reproducibility contract:

* :mod:`repro.scale.fluid` — deterministic fluid-flow aggregates per
  (entry, phase) advanced in closed form, with a seeded sampled-request
  cohort threaded through the real simulator (dedicated Philox lane) to
  recover p50–p99.9; validated against exactly materialized schedules.
* :mod:`repro.scale.elastic` — lock tables that grow and shrink their
  active entry range at phase boundaries, re-sharding the key space
  mid-run: the plan supplies the fold and its installs, the open-loop
  client's one drain-reinit-install crossing (shared with the control
  plane's swaps) applies them.
* :mod:`repro.scale.rehome` — per-entry traffic statistics driving a
  topology-aware policy action that moves a hot entry's home rank toward
  the node originating most of its traffic.

The ``scale-*`` benchmarks (tag ``"scale"``) load with the other built-in
benchmarks and the ``scale-suite`` campaign with the other built-in
campaigns; ``repro scale`` is the CLI entry point and ``BENCH_scale.json``
the blessed baseline (see README, section *Fluid-scale traffic &
elasticity*).  The names below resolve lazily (PEP 562), so the built-in
load that imports :mod:`repro.scale.elastic` and :mod:`repro.scale.rehome`
pulls in neither the fluid model nor the sweep engine.
"""

import importlib

#: Public name -> the submodule defining it.
_EXPORTS = {
    **dict.fromkeys(
        ("ELASTIC_PLAN", "ELASTIC_SCENARIO", "ElasticPlan", "EntryRegrow", "ResizeEvent"),
        "elastic",
    ),
    **dict.fromkeys(("REHOME_POLICY", "REHOME_SCENARIO", "STATIC_HOT_SCENARIO"), "rehome"),
    **dict.fromkeys(
        (
            "FLUID_LANE", "FLUID_MEGA", "FLUID_PHASED", "FLUID_SCENARIOS", "FluidPhase",
            "FluidProfile", "FluidScenario", "fluid_profile", "get_fluid_scenario",
            "register_fluid_scenario", "run_sampled", "sampled_scenario", "validate_fluid",
        ),
        "fluid",
    ),
    **dict.fromkeys(("rehome_comparison", "run_scale", "scale_display_rows", "scale_spec"), "engine"),
}


def __getattr__(name):
    if name in _EXPORTS:
        return getattr(importlib.import_module(f"repro.scale.{_EXPORTS[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(_EXPORTS))


__all__ = sorted(_EXPORTS)
