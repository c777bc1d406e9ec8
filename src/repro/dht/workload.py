"""Workload generation and the Figure 6 benchmark program for the DHT.

The paper's DHT benchmark (Section 5.3) lets ``P - 1`` processes hammer the
local volume of one selected process with a mix of inserts and reads directed
at random elements; the fraction of inserts corresponds to the writer
fraction ``F_W``.  Three synchronization variants are compared:

* ``fompi-a``  — no lock; correctness relies on the CAS/FAO insert protocol,
* ``fompi-rw`` — every operation is bracketed by the centralized RW lock,
* ``rma-rw``   — every operation is bracketed by the topology-aware RMA-RW lock.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Literal, Optional, Sequence

from repro.api.registry import get_scheme
from repro.core.lock_base import RWLockSpec, program_for_spec
from repro.dht.distributions import DISTRIBUTIONS, KeyDistribution
from repro.dht.hashtable import DHTSpec
from repro.dht.striped_lock import StripedRWLockSpec
from repro.rma.runtime_base import BARRIER, ProcessContext
from repro.rma.sim_runtime import SimRuntime
from repro.topology.machine import Machine

__all__ = ["DHTWorkloadConfig", "DHTBenchOutcome", "build_dht_setup", "run_dht_benchmark"]

#: Synchronization variants of the DHT benchmark.  The paper compares the
#: first three (Figure 6); ``striped-rw`` adds fine-grained per-volume locks
#: (one reader-writer lock per local volume) as a structural alternative to a
#: single global lock.
SchemeName = Literal["fompi-a", "fompi-rw", "rma-rw", "striped-rw"]

#: How the benchmark picks the local volume each operation targets.
#:   "victim"  — every operation goes to ``victim_rank``'s volume (Figure 6);
#:   "by-key"  — every operation goes to the volume owning its key, i.e. the
#:               scattered access pattern of a real key-value store.
ACCESS_PATTERNS = ("victim", "by-key")


@dataclass(frozen=True)
class DHTWorkloadConfig:
    """Configuration of one Figure 6 data point.

    Beyond the paper's setup (uniform keys, single victim volume), the
    workload can draw keys from a skewed distribution
    (:mod:`repro.dht.distributions`) and scatter operations across all local
    volumes (``access_pattern="by-key"``), which models a realistic key-value
    store instead of the worst-case single-volume hot spot.
    """

    machine: Machine
    scheme: SchemeName = "rma-rw"
    ops_per_process: int = 20
    fw: float = 0.02
    victim_rank: int = 0
    key_space: int = 1 << 20
    table_size: int = 64
    heap_size: Optional[int] = None
    seed: int = 7
    t_dc: Optional[int] = None
    t_l: Optional[Sequence[int]] = None
    t_r: int = 64
    distribution: str = "uniform"
    distinct_keys: int = 4096
    zipf_exponent: float = 0.99
    access_pattern: str = "victim"

    def __post_init__(self) -> None:
        if not 0.0 <= self.fw <= 1.0:
            raise ValueError("fw must be within [0, 1]")
        if self.ops_per_process < 1:
            raise ValueError("ops_per_process must be >= 1")
        if not 0 <= self.victim_rank < self.machine.num_processes:
            raise ValueError("victim_rank out of range")
        if self.distribution not in DISTRIBUTIONS:
            raise ValueError(
                f"unknown distribution {self.distribution!r}; expected one of {DISTRIBUTIONS}"
            )
        if self.access_pattern not in ACCESS_PATTERNS:
            raise ValueError(
                f"unknown access_pattern {self.access_pattern!r}; expected one of {ACCESS_PATTERNS}"
            )

    def key_distribution(self) -> KeyDistribution:
        """The key sampler this configuration describes."""
        return KeyDistribution.make(
            self.distribution,
            self.key_space,
            distinct_keys=self.distinct_keys,
            zipf_exponent=self.zipf_exponent,
        )


@dataclass
class DHTBenchOutcome:
    """Result of one DHT benchmark run."""

    scheme: str
    num_processes: int
    fw: float
    total_time_us: float
    total_ops: int
    inserts: int
    lookups: int
    op_counts: Dict[str, int] = field(default_factory=dict)

    @property
    def total_time_s(self) -> float:
        return self.total_time_us / 1e6

    @property
    def ops_per_second(self) -> float:
        if self.total_time_us <= 0:
            return 0.0
        return self.total_ops / self.total_time_s


def build_dht_setup(config: DHTWorkloadConfig):
    """Build the DHT spec, optional lock spec and combined window initializer."""
    machine = config.machine
    p = machine.num_processes
    heap_size = config.heap_size
    if heap_size is None:
        # Every process may direct all of its inserts at the victim volume.
        heap_size = max(4, (p - 1) * config.ops_per_process + 8)

    # "fompi-a" is lock-free; every other variant is built through the scheme
    # registry, so any registered reader-writer lock (including third-party
    # ones) can bracket the DHT operations.
    lock_spec: Optional[RWLockSpec | StripedRWLockSpec]
    if config.scheme == "fompi-a":
        lock_spec = None
    else:
        info = get_scheme(config.scheme)
        if not info.rw:
            raise ValueError(
                f"DHT scheme {config.scheme!r} must be a reader-writer lock "
                f"(or 'fompi-a' for the lock-free variant)"
            )
        lock_spec = info.build(machine, **info.params_from_config(config))

    dht_base = lock_spec.window_words if lock_spec is not None else 0
    dht_spec = DHTSpec(
        num_processes=p,
        table_size=config.table_size,
        heap_size=heap_size,
        base_offset=dht_base,
    )

    def window_init(rank: int) -> Dict[int, int]:
        values: Dict[int, int] = dict(dht_spec.init_window(rank))
        if lock_spec is not None:
            values.update(lock_spec.init_window(rank))
        return values

    return dht_spec, lock_spec, window_init


def _dht_program(dht_spec: DHTSpec, lock_spec, config: DHTWorkloadConfig):
    """Build the rank program executed by every process (a step program)."""
    distribution = config.key_distribution()
    by_key = config.access_pattern == "by-key"

    def program(ctx: ProcessContext):
        dht = dht_spec.make(ctx)
        locks = lock_spec.make(ctx) if lock_spec is not None else None
        # The striped lock is one lock per volume; any other guards them all.
        lock_of = getattr(locks, "stripe", lambda volume: locks)
        draw = ctx.random
        yield (BARRIER,)
        start = ctx.now()
        inserts = 0
        lookups = 0
        if by_key or ctx.rank != config.victim_rank:
            keys = distribution.sample(ctx.rng, config.ops_per_process)
            for key in keys:
                key = int(key)
                target = None if by_key else config.victim_rank
                volume = dht_spec.home_rank(key) if target is None else target
                is_insert = bool(draw() < config.fw)
                lock = lock_of(volume)
                if is_insert:
                    if lock is not None:
                        yield from lock.acquire_write_steps()
                    yield from dht.insert_steps(key, key + 1, target_rank=target)
                    if lock is not None:
                        yield from lock.release_write_steps()
                    inserts += 1
                else:
                    if lock is not None:
                        yield from lock.acquire_read_steps()
                    yield from dht.lookup_steps(key, target_rank=target)
                    if lock is not None:
                        yield from lock.release_read_steps()
                    lookups += 1
        yield (BARRIER,)
        return {"start": start, "end": ctx.now(), "inserts": inserts, "lookups": lookups}

    if lock_spec is None:
        return program
    # A registered reader-writer lock may be blocking-only (a third-party handle).
    return program_for_spec(lock_spec, config.machine, program)


def run_dht_benchmark(
    config: DHTWorkloadConfig,
    *,
    runtime: Optional[SimRuntime] = None,
) -> DHTBenchOutcome:
    """Run one Figure 6 data point and return its outcome.

    It runs on ``runtime`` when given, else on a fresh ``horizon`` runtime.
    """
    dht_spec, lock_spec, window_init = build_dht_setup(config)
    window_words = dht_spec.window_words + 2
    if runtime is None:
        runtime = SimRuntime(config.machine, window_words=window_words, seed=config.seed)
    elif runtime.window_words < window_words:
        raise ValueError("provided runtime's window is too small for this DHT configuration")

    program = _dht_program(dht_spec, lock_spec, config)
    result = runtime.run(program, window_init=window_init)

    starts = [r["start"] for r in result.returns]
    ends = [r["end"] for r in result.returns]
    elapsed = max(ends) - min(starts)
    inserts = sum(r["inserts"] for r in result.returns)
    lookups = sum(r["lookups"] for r in result.returns)
    return DHTBenchOutcome(
        scheme=config.scheme,
        num_processes=config.machine.num_processes,
        fw=config.fw,
        total_time_us=elapsed,
        total_ops=inserts + lookups,
        inserts=inserts,
        lookups=lookups,
        op_counts=dict(result.op_counts),
    )
