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

Importing this package registers the ``scale-*`` benchmarks (tag
``"scale"``), the fluid scenario catalogue and the ``scale-suite``
campaign; ``repro scale`` is the CLI entry point and ``BENCH_scale.json``
the blessed baseline (see README, section *Fluid-scale traffic &
elasticity*).
"""

from repro.scale.elastic import (
    ELASTIC_PLAN,
    ELASTIC_SCENARIO,
    ElasticPlan,
    EntryRegrow,
    ResizeEvent,
)
from repro.scale.rehome import REHOME_POLICY, REHOME_SCENARIO, STATIC_HOT_SCENARIO
from repro.scale.fluid import (
    FLUID_LANE,
    FLUID_MEGA,
    FLUID_PHASED,
    FLUID_SCENARIOS,
    FluidPhase,
    FluidProfile,
    FluidScenario,
    fluid_profile,
    get_fluid_scenario,
    register_fluid_scenario,
    run_sampled,
    sampled_scenario,
    validate_fluid,
)
from repro.scale.engine import (
    SCALE_SUITE,
    rehome_comparison,
    run_scale,
    scale_display_rows,
    scale_spec,
)

__all__ = [
    "ELASTIC_PLAN",
    "ELASTIC_SCENARIO",
    "ElasticPlan",
    "EntryRegrow",
    "FLUID_LANE",
    "FLUID_MEGA",
    "FLUID_PHASED",
    "FLUID_SCENARIOS",
    "FluidPhase",
    "FluidProfile",
    "FluidScenario",
    "REHOME_POLICY",
    "REHOME_SCENARIO",
    "ResizeEvent",
    "SCALE_SUITE",
    "STATIC_HOT_SCENARIO",
    "fluid_profile",
    "get_fluid_scenario",
    "register_fluid_scenario",
    "rehome_comparison",
    "run_sampled",
    "run_scale",
    "sampled_scenario",
    "scale_display_rows",
    "scale_spec",
    "validate_fluid",
]
