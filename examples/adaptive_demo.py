#!/usr/bin/env python3
"""The adaptive control plane — policy-switched lock tables, end to end.

The paper's sensitivity analysis (Section 5, Figure 4) shows the best lock
design depends on the workload: reader-writer locks with long reader leases
win read-heavy phases, queue-based MCS handoff wins write storms.  The
control plane (:mod:`repro.control`) turns that into a runtime mechanism —
every lock-table entry is a mutable *scheme slot*, and a declarative
:class:`~repro.control.policy.PolicyTable` swaps schemes per entry at traffic
phase boundaries, deterministically.

This example shows the whole story on a third-party lock:

1. Register a third-party lock (``demo-tas``) with ``@register_scheme``,
   declaring a tunable backoff threshold — no control-plane code at all.
2. Write a policy whose rules target built-in schemes *and* the third-party
   lock, and register a phased scenario carrying that policy.
3. Run it through the ordinary harness, twice: the swap plan derives from
   virtual-time statistics only, so the re-run is bit-identical — swaps
   included.  (``demo-tas`` is blocking-only, so each run bridges one rank
   thread per rank into the scheduling loop.)

Run with:  python examples/adaptive_demo.py
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Mapping

from repro.api import ParamSpec, register_scheme
from repro.bench.campaign import run_result_sha
from repro.bench.harness import run_lock_benchmark_detailed
from repro.bench.workloads import LockBenchConfig
from repro.control import PolicyRule, PolicyTable
from repro.core.layout import LayoutAllocator
from repro.core.lock_base import LockHandle, LockSpec
from repro.rma.runtime_base import ProcessContext
from repro.topology.builder import xc30_like
from repro.traffic import Phase, TrafficScenario, register_traffic_scenario

ITERATIONS = int(os.environ.get("REPRO_EXAMPLE_ITERATIONS", "10"))
NODES = int(os.environ.get("REPRO_EXAMPLE_NODES", "2"))
PROCS_PER_NODE = int(os.environ.get("REPRO_EXAMPLE_PROCS_PER_NODE", "4"))


# --------------------------------------------------------------------------- #
# 1. A third-party lock with a tunable threshold.
# --------------------------------------------------------------------------- #

@dataclass(frozen=True)
class DemoTASLockSpec(LockSpec):
    """A centralized test-and-set lock word with proportional backoff."""

    num_processes: int
    home_rank: int = 0
    max_backoff_us: float = 6.0
    base_offset: int = 0
    lock_offset: int = field(init=False, default=0)

    def __post_init__(self) -> None:
        alloc = LayoutAllocator(base=self.base_offset)
        object.__setattr__(self, "lock_offset", alloc.field("tas_word"))

    @property
    def window_words(self) -> int:
        return self.lock_offset + 1

    def init_window(self, rank: int) -> Mapping[int, int]:
        return {self.lock_offset: 0}

    def make(self, ctx: ProcessContext) -> "DemoTASLockHandle":
        return DemoTASLockHandle(self, ctx)


class DemoTASLockHandle(LockHandle):
    def __init__(self, spec: DemoTASLockSpec, ctx: ProcessContext):
        self.spec = spec
        self.ctx = ctx

    def acquire(self) -> None:
        ctx, spec = self.ctx, self.spec
        backoff = 0.2
        while True:
            prev = ctx.cas(1, 0, spec.home_rank, spec.lock_offset)
            ctx.flush(spec.home_rank)
            if prev == 0:
                return
            ctx.compute(float(ctx.rng.uniform(0.0, backoff)))
            backoff = min(backoff * 2.0, spec.max_backoff_us)

    def release(self) -> None:
        self.ctx.put(0, self.spec.home_rank, self.spec.lock_offset)
        self.ctx.flush(self.spec.home_rank)


@register_scheme(
    "demo-tas",
    category="custom",
    params=(
        ParamSpec("home_rank", int, 0, "rank hosting the lock word", tunable=False),
        ParamSpec("max_backoff_us", float, 6.0, "backoff cap in microseconds"),
    ),
    help="centralized TAS lock with proportional backoff (adaptive demo)",
    replace=True,  # keep the example re-runnable within one process
)
def _build_demo_tas(machine, home_rank=0, max_backoff_us=6.0):
    return DemoTASLockSpec(
        num_processes=machine.num_processes,
        home_rank=home_rank,
        max_backoff_us=max_backoff_us,
    )


# --------------------------------------------------------------------------- #
# 2. A policy mixing built-in and third-party targets, on a phased scenario.
#    Rule order is priority: write storms take the MCS queue, read-heavy
#    entries take the RW lock with a long reader lease, and everything else
#    (the lukewarm middle) falls through to the third-party TAS lock with a
#    tightened backoff cap.
# --------------------------------------------------------------------------- #

DEMO_POLICY = PolicyTable(
    rules=(
        PolicyRule(name="write-storm", scheme="d-mcs", max_read_fraction=0.3,
                   min_requests=4),
        PolicyRule(name="read-heavy", scheme="rma-rw", params=(("t_r", 256),),
                   min_read_fraction=0.7, min_requests=4),
        PolicyRule(name="lukewarm", scheme="demo-tas",
                   params=(("max_backoff_us", 1.5),), min_requests=4),
    ),
    max_swaps_per_boundary=4,
)

DEMO_SCENARIO = register_traffic_scenario(
    TrafficScenario(
        name="traffic-adaptive-demo",
        help="mixed warm-up -> write-storm -> read-heavy tail, demo policy attached",
        num_locks=12,
        arrival="poisson",
        mean_gap_us=8.0,
        key_dist="zipf",
        zipf_exponent=1.1,
        fw=0.05,
        phases=(
            Phase(duration_us=40.0, rate_scale=1.0, fw=0.5, name="mixed-warmup"),
            Phase(duration_us=60.0, rate_scale=2.0, fw=0.95, name="write-storm"),
            Phase(duration_us=None, rate_scale=0.75, fw=0.05, name="read-heavy-tail"),
        ),
    ),
    policy=DEMO_POLICY,
    tags=("traffic-demo",),
    replace=True,
)


# --------------------------------------------------------------------------- #
# 3. Run it — and check the determinism contract on a re-run.
# --------------------------------------------------------------------------- #

def main() -> None:
    machine = xc30_like(NODES * PROCS_PER_NODE, procs_per_node=PROCS_PER_NODE)
    config = LockBenchConfig(
        machine=machine,
        scheme="fompi-spin",
        benchmark="traffic-adaptive-demo",
        iterations=ITERATIONS,
        fw=0.2,
        seed=7,
    )

    print(f"Scenario {DEMO_SCENARIO.name}: {DEMO_SCENARIO.num_locks} locks, "
          f"{len(DEMO_SCENARIO.phases)} phases, {len(DEMO_POLICY.rules)} policy rules")

    shas = []
    for run in ("run", "re-run"):
        result, raw = run_lock_benchmark_detailed(config)
        shas.append(run_result_sha(raw))
        swaps = int(result.percentiles["swaps_total"])
        print(f"  {run:>6}: p99 {result.percentiles['e2e_p99_us']:8.2f} us, "
              f"{swaps} scheme swaps, fingerprint {shas[-1][:16]}...")

    assert shas[0] == shas[1], "the re-run diverged!"
    print("OK: the adaptive run is bit-identical on a re-run, swaps included.")

    # The third-party rule really fired: the cooldown phase is a 50/50 mix,
    # which neither the write-storm nor the read-heavy window accepts.
    from repro.control import build_swap_plan
    from repro.control.policy import policy_min_entry_words
    from repro.traffic.table import build_lock_table

    table, _ = build_lock_table(
        machine, config.scheme, DEMO_SCENARIO.num_locks,
        min_entry_words=policy_min_entry_words(machine, DEMO_POLICY),
    )
    plan = build_swap_plan(DEMO_SCENARIO, config, table, DEMO_POLICY)
    by_rule = {}
    for swap in plan.swaps:
        by_rule[swap.rule] = by_rule.get(swap.rule, 0) + 1
    print(f"Swap plan: {len(plan.swaps)} swaps across {plan.num_boundaries} "
          f"boundaries, by rule: {dict(sorted(by_rule.items()))}")
    assert by_rule.get("lukewarm"), "the third-party demo-tas rule never fired"
    print("OK: the third-party lock joined the policy-switched table.")


if __name__ == "__main__":
    main()
