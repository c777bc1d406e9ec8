"""Seeded open-loop traffic generators: arrivals, key popularity, phases.

The benchmark harness drives every lock in a *closed loop*: each rank issues
its next acquire the moment the previous one completes, so the only operating
point ever measured is saturation.  Real lock services (RDMA lock managers,
key-value stores, graph stores) see *open-loop* traffic instead — requests
arrive on their own schedule, queueing delay is part of the latency a client
observes, and the arrival process itself has structure: skewed (Zipf) key
popularity, diurnal/bursty rate changes, shifting read/write mixes.  This
module generates those request schedules deterministically:

* **Arrival processes** — ``poisson`` (exponential inter-arrival gaps),
  ``uniform`` (gaps uniform in ``[0.5, 1.5] x`` the mean) and ``burst``
  (geometric-length back-to-back bursts separated by long idle gaps).
* **Key popularity** — ``zipf`` (lock ``k`` drawn with probability
  ``(k+1)^-s / H_{N,s}``; lock 0 is the hottest) or ``uniform`` over the
  ``num_locks``-entry lock table.
* **Phases** — a :class:`Phase` schedule shifts the arrival rate, the Zipf
  exponent, the writer fraction and the critical-section scale at fixed
  virtual-time boundaries, modelling load ramps and hot-set migrations
  mid-run.

Determinism contract: a schedule is a pure function of ``(scenario, seed,
rank)``.  Draws come from a dedicated Philox counter lane
(:func:`traffic_rng`) — disjoint from both the workload streams of
:func:`repro.util.rng.rank_rng` (lane 0) and the chaos streams of
:mod:`repro.rma.perturbation` — and the whole schedule is materialized
*before* the simulated run starts, so it is bit-identical across repeat
runs, ``--jobs`` settings and the reference interpreter.
Being pure, it is drawn once per process and shared, read-only, by every
reader of the same inputs (:func:`generate_schedule`).
"""

from __future__ import annotations

import math
import threading
from bisect import bisect_right
from collections import OrderedDict
from dataclasses import dataclass
from functools import lru_cache
from typing import List, Optional, Sequence, Tuple

import numpy as np

__all__ = [
    "ARRIVAL_KINDS",
    "KEY_DISTRIBUTIONS",
    "Phase",
    "RequestSchedule",
    "TrafficScenario",
    "generate_schedule",
    "traffic_rng",
    "zipf_cdf",
    "zipf_head_frequencies",
]

#: Arrival processes understood by :func:`generate_schedule`.
ARRIVAL_KINDS = ("poisson", "uniform", "burst")

#: Key-popularity distributions over the lock table.
KEY_DISTRIBUTIONS = ("zipf", "uniform")

#: Philox counter lane reserved for traffic schedules.  ``rank_rng`` uses
#: lane 0 and the perturbation model uses 0x7C5EED, so a schedule sharing the
#: workload's seed still draws from a provably disjoint stream.
_TRAFFIC_LANE = 0x7AF1C0

#: Gap shape of the burst arrival process, relative to the mean gap: requests
#: inside a burst are near back-to-back, bursts are separated by idle gaps of
#: ``burst_size`` mean gaps.
_BURST_INNER_GAP = 0.05


def traffic_rng(seed: int, rank: int, lane: Optional[int] = None) -> np.random.Generator:
    """Independent schedule generator for ``(seed, rank)``.

    Stable across runs and disjoint from the per-rank workload streams of
    :func:`repro.util.rng.rank_rng` even when both use the same seed.
    ``lane`` overrides the Philox counter lane — the fluid-scale engine's
    sampled-request sub-streams (:mod:`repro.scale.fluid`) draw from their own
    lane so a sampled cohort never replays the exact engine's schedules.
    """
    if rank < 0:
        raise ValueError(f"rank must be non-negative, got {rank}")
    return np.random.Generator(
        np.random.Philox(
            key=seed,
            counter=[_TRAFFIC_LANE if lane is None else int(lane), 0, 0, rank],
        )
    )


@lru_cache(maxsize=64)
def _zipf_cdf_cached(num_locks: int, exponent: float) -> np.ndarray:
    ranks = np.arange(1, num_locks + 1, dtype=np.float64)
    weights = ranks ** (-exponent)
    cdf = np.cumsum(weights / weights.sum())
    cdf[-1] = 1.0
    cdf.flags.writeable = False
    return cdf


def zipf_cdf(num_locks: int, exponent: float) -> np.ndarray:
    """Cumulative Zipf probabilities over lock indices ``0..num_locks-1``.

    Lock ``k`` has weight ``(k + 1) ** -exponent``; index 0 is the hottest
    key, which keeps the analytic head frequencies directly comparable to the
    sampler (no scattering — lock *placement* is the table's concern).

    Memoized on ``(num_locks, exponent)``: the O(num_locks) cumsum is shared
    by every schedule materialization and by the fluid-scale load model,
    which sweeps 10^6-entry tables.  The returned array is read-only — all
    callers share one instance.
    """
    _check_zipf(num_locks, exponent)
    return _zipf_cdf_cached(int(num_locks), float(exponent))


def _check_zipf(num_locks: int, exponent: float) -> None:
    if num_locks < 1:
        raise ValueError("num_locks must be >= 1")
    if exponent < 0:
        raise ValueError("zipf exponent must be non-negative")


def zipf_head_frequencies(num_locks: int, exponent: float, count: int = 3) -> np.ndarray:
    """Analytic access frequencies of the ``count`` hottest locks.

    The generator property tests compare the empirical head of the sampler
    against these closed-form values.  Accepts what :func:`zipf_cdf` accepts
    and raises its ``ValueError`` otherwise.
    """
    _check_zipf(num_locks, exponent)
    ranks = np.arange(1, num_locks + 1, dtype=np.float64)
    weights = ranks ** (-float(exponent))
    return (weights / weights.sum())[: max(1, count)]


@dataclass(frozen=True)
class Phase:
    """One segment of a phased load schedule.

    Args:
        duration_us: Virtual-time length of the phase; ``None`` marks the
            final, open-ended phase (only valid in last position).
        rate_scale: Multiplier on the scenario's base arrival rate (2.0 means
            gaps half as long — a load spike).
        zipf_exponent: Overrides the scenario's key-popularity skew for this
            phase (``None`` keeps the scenario default; ignored for uniform
            keys).
        fw: Overrides the writer fraction for this phase (``None`` keeps the
            effective scenario/config value).
        cs_scale: Multiplier on the drawn critical-section times.
        name: Label surfaced in per-phase report rows.
    """

    duration_us: Optional[float] = None
    rate_scale: float = 1.0
    zipf_exponent: Optional[float] = None
    fw: Optional[float] = None
    cs_scale: float = 1.0
    name: str = ""

    def __post_init__(self) -> None:
        if self.duration_us is not None and self.duration_us <= 0:
            raise ValueError("phase duration_us must be positive (or None for the final phase)")
        if self.rate_scale <= 0:
            raise ValueError("phase rate_scale must be positive")
        if self.cs_scale < 0:
            raise ValueError("phase cs_scale must be non-negative")
        if self.fw is not None and not 0.0 <= self.fw <= 1.0:
            raise ValueError("phase fw must be within [0, 1]")
        if self.zipf_exponent is not None and self.zipf_exponent < 0:
            raise ValueError("phase zipf_exponent must be non-negative")


@dataclass(frozen=True)
class TrafficScenario:
    """One named open-loop traffic shape over an ``num_locks``-entry table.

    A scenario is registered as a *benchmark* (see
    :mod:`repro.traffic.scenarios`), so ``LockBenchConfig`` supplies the lock
    scheme, the machine, the seed and the per-rank request count
    (``iterations``); the scenario fixes everything about the traffic itself.

    Args:
        name: Benchmark-registry name (``traffic-*`` by convention).
        help: One-line description for catalogues.
        num_locks: Size of the lock table keys are drawn over.
        arrival: One of :data:`ARRIVAL_KINDS`.
        mean_gap_us: Mean inter-arrival gap per rank at ``rate_scale`` 1.
        key_dist: One of :data:`KEY_DISTRIBUTIONS`.
        zipf_exponent: Skew of the ``zipf`` key distribution.
        fw: Writer fraction; ``None`` defers to the benchmark config's ``fw``
            (so campaign ``fw`` axes apply), a value pins the scenario's mix.
        cs_us: ``(low, high)`` bounds of the uniform critical-section time.
        think_us: ``(low, high)`` bounds of the uniform post-completion think
            time (0 keeps the loop purely open-loop; a positive value models
            clients that pace themselves after a response).
        burst_size: Mean burst length of the ``burst`` arrival process.
        phases: Optional :class:`Phase` schedule; empty means one steady
            phase for the whole run.
        bias_ranks: Optional half-open ``[lo, hi)`` rank range whose clients
            are *hot-key biased*: with probability ``bias_fraction`` a biased
            rank's key draw lands on ``bias_key`` instead of the base
            distribution (the remaining mass is rescaled, so exactly one draw
            is consumed either way and unbiased ranks are bit-identical to a
            bias-free scenario).  Models a service whose hot key's traffic
            originates from one node — the input to topology-aware re-homing
            (:mod:`repro.scale.rehome`).
        bias_fraction: Hot-key probability of a biased rank's draws.
        bias_key: The key the biased draws land on.
        reservoir_cap: Optional per-run bound for the accounting layer's
            :class:`~repro.traffic.accounting.LatencyReservoir`; ``None``
            keeps the default.  Sampled-request sub-streams declare small
            caps so their percentile memory matches their sample count.
    """

    name: str
    help: str = ""
    num_locks: int = 1024
    arrival: str = "poisson"
    mean_gap_us: float = 8.0
    key_dist: str = "zipf"
    zipf_exponent: float = 1.0
    fw: Optional[float] = None
    cs_us: Tuple[float, float] = (0.4, 1.2)
    think_us: Tuple[float, float] = (0.0, 0.0)
    burst_size: int = 8
    phases: Tuple[Phase, ...] = ()
    bias_ranks: Optional[Tuple[int, int]] = None
    bias_fraction: float = 0.0
    bias_key: int = 0
    reservoir_cap: Optional[int] = None

    def __post_init__(self) -> None:
        if self.num_locks < 1:
            raise ValueError("num_locks must be >= 1")
        if self.arrival not in ARRIVAL_KINDS:
            raise ValueError(f"unknown arrival {self.arrival!r}; expected one of {ARRIVAL_KINDS}")
        if self.key_dist not in KEY_DISTRIBUTIONS:
            raise ValueError(
                f"unknown key_dist {self.key_dist!r}; expected one of {KEY_DISTRIBUTIONS}"
            )
        if self.mean_gap_us <= 0:
            raise ValueError("mean_gap_us must be positive")
        if self.zipf_exponent < 0:
            raise ValueError("zipf_exponent must be non-negative")
        if self.fw is not None and not 0.0 <= self.fw <= 1.0:
            raise ValueError("fw must be within [0, 1] (or None)")
        lo, hi = self.cs_us
        if lo < 0 or hi < lo:
            raise ValueError("cs_us must be a non-negative (low, high) pair")
        lo, hi = self.think_us
        if lo < 0 or hi < lo:
            raise ValueError("think_us must be a non-negative (low, high) pair")
        if self.burst_size < 1:
            raise ValueError("burst_size must be >= 1")
        for i, phase in enumerate(self.phases):
            if phase.duration_us is None and i != len(self.phases) - 1:
                raise ValueError("only the final phase may have duration_us=None")
        if not 0.0 <= self.bias_fraction <= 1.0:
            raise ValueError("bias_fraction must be within [0, 1]")
        if self.bias_ranks is not None:
            lo, hi = self.bias_ranks
            if lo < 0 or hi <= lo:
                raise ValueError("bias_ranks must be a half-open [lo, hi) rank range")
            if self.bias_fraction <= 0.0:
                raise ValueError("bias_ranks needs a positive bias_fraction")
        if not 0 <= self.bias_key < self.num_locks:
            raise ValueError("bias_key must index the lock table")
        if self.reservoir_cap is not None and self.reservoir_cap < 16:
            raise ValueError("reservoir_cap must be >= 16 (or None for the default)")

    @property
    def rw(self) -> bool:
        """True when the scenario pins a meaningful read/write mix itself."""
        return self.fw is not None and 0.0 < self.fw < 1.0

    def effective_phases(self) -> Tuple[Phase, ...]:
        """The phase schedule, with an implicit single phase when empty."""
        if self.phases:
            return self.phases
        return (Phase(duration_us=None, name="steady"),)


#: A schedule's columns in order, with the dtype each one reads as.
_COLUMN_DTYPES = (np.float64, np.int64, np.bool_, np.float64, np.float64, np.int64)


class RequestSchedule:
    """The materialized per-rank request stream of one scenario run.

    Six columns with one entry per request: ``arrival_us`` (relative to the
    rank's open time, the post-barrier ``now()``, strictly increasing),
    ``lock_index``, ``is_write``, ``cs_us``, ``think_us`` and ``phase``.

    Read-only, because :func:`generate_schedule` hands one instance to every
    reader of the same inputs.  :meth:`columns` returns the columns as
    tuples, which is what the open-loop rank programs iterate, so a run makes
    no list → array → list round trip.  Each attribute is a numpy array,
    converted from its tuple the first time it is read and not writeable.
    """

    __slots__ = ("_columns", "_arrays", "_shape")

    def __init__(
        self,
        arrival_us: Sequence[float],
        lock_index: Sequence[int],
        is_write: Sequence[bool],
        cs_us: Sequence[float],
        think_us: Sequence[float],
        phase: Sequence[int],
        num_locks: int = 0,
        num_phases: int = 1,
    ):
        self._columns = tuple(
            tuple(c.tolist() if isinstance(c, np.ndarray) else c)
            for c in (arrival_us, lock_index, is_write, cs_us, think_us, phase)
        )
        self._arrays: List[Optional[np.ndarray]] = [None] * len(self._columns)
        self._shape = (int(num_locks), int(num_phases))

    def _array(self, position: int) -> np.ndarray:
        array = self._arrays[position]
        if array is None:
            array = np.array(self._columns[position], dtype=_COLUMN_DTYPES[position])
            array.flags.writeable = False
            self._arrays[position] = array
        return array

    arrival_us = property(lambda self: self._array(0))
    lock_index = property(lambda self: self._array(1))
    is_write = property(lambda self: self._array(2))
    cs_us = property(lambda self: self._array(3))
    think_us = property(lambda self: self._array(4))
    phase = property(lambda self: self._array(5))
    num_locks = property(lambda self: self._shape[0])
    num_phases = property(lambda self: self._shape[1])

    def columns(self) -> Tuple[tuple, ...]:
        """The six columns, in the order above, as tuples."""
        return self._columns

    def __len__(self) -> int:
        return len(self._columns[0])


class _ScheduleCache:
    """The schedules :func:`generate_schedule` shares, least recently used
    first out, holding at most ``budget`` requests over all of them.

    A schedule longer than the whole budget is returned unshared.
    """

    def __init__(self, budget: int):
        self.budget = budget
        self.requests = 0
        self._entries: "OrderedDict[tuple, RequestSchedule]" = OrderedDict()
        self._lock = threading.Lock()

    def get(self, key: tuple, draw) -> RequestSchedule:
        with self._lock:
            schedule = self._entries.get(key)
            if schedule is not None:
                self._entries.move_to_end(key)
                return schedule
        schedule = draw(*key)
        # An empty schedule counts as one request, so the entries are bounded too.
        size = max(1, len(schedule))
        if size > self.budget:
            return schedule
        with self._lock:
            # Another thread may have drawn the same key meanwhile: share its.
            shared = self._entries.setdefault(key, schedule)
            if shared is schedule:
                self.requests += size
                while self.requests > self.budget:
                    _, evicted = self._entries.popitem(last=False)
                    self.requests -= max(1, len(evicted))
        return shared


#: Requests held by the shared schedules, over all of them (a request costs
#: about 0.2 kB): a traffic-suite sweep at P = 64 holds 3 840.
_SCHEDULES = _ScheduleCache(1 << 16)


def generate_schedule(
    scenario: TrafficScenario,
    seed: int,
    rank: int,
    requests: int,
    fw_default: float = 0.0,
    *,
    lane: Optional[int] = None,
) -> RequestSchedule:
    """Rank ``rank``'s request stream for ``scenario``: shared and read-only.

    ``fw_default`` is the writer fraction used when neither the scenario nor
    the current phase pins one (the benchmark config's ``fw`` — how campaign
    writer-fraction axes reach traffic scenarios).  ``lane`` overrides the
    Philox counter lane (see :func:`traffic_rng`); the default is the shared
    traffic lane every registered scenario uses.

    A schedule is a pure function of these six inputs, so it is drawn once
    per process and every later call with equal inputs returns the same
    :class:`RequestSchedule`: the rank programs of every scheme, the swap and
    re-homing planners, the hot-key report and the fluid validator all read
    one instance.  The shared schedules are bounded by their total request
    count and evicted least recently used first; a scenario that cannot be
    hashed is drawn afresh on every call.

    Exactly five draws are consumed per request in a fixed order (gap, key,
    role, CS time, think time) regardless of which values a phase overrides,
    so schedules for the same ``(scenario, seed, rank)`` are always
    bit-identical — the determinism half of the traffic engine's contract.
    A hot-key bias (``bias_ranks``) folds into the single key draw: the unit
    draw below ``bias_fraction`` selects ``bias_key``, the rest is rescaled
    back onto the base distribution, so biased and unbiased ranks consume
    the same five draws per request.

    The loop makes no numpy call but the draws and, for Zipf keys, one
    ``searchsorted`` on the phase's CDF: phases are looked up with
    ``bisect`` over a list of phase ends, and every per-phase constant is
    resolved before the loop.
    """
    if requests < 0:
        raise ValueError("requests must be non-negative")
    key = (scenario, seed, rank, requests, fw_default, lane)
    try:
        return _SCHEDULES.get(key, _draw_schedule)
    except TypeError:  # an unhashable custom scenario
        return _draw_schedule(*key)


def _draw_schedule(
    scenario: TrafficScenario,
    seed: int,
    rank: int,
    requests: int,
    fw_default: float,
    lane: Optional[int],
) -> RequestSchedule:
    rng = traffic_rng(seed, rank, lane=lane)
    phases = scenario.effective_phases()
    # ends[i] is the *end* time of phase i; the final phase's end is +inf
    # (the schedule never outlives the phase plan), so bisect_right always
    # lands on a valid index.
    ends = []
    t_end = 0.0
    for phase in phases:
        t_end = math.inf if phase.duration_us is None else t_end + float(phase.duration_us)
        ends.append(t_end)
    ends[-1] = math.inf

    num_locks = scenario.num_locks
    uniform_keys = scenario.key_dist == "uniform"
    base_gap = float(scenario.mean_gap_us)
    default_fw = scenario.fw if scenario.fw is not None else fw_default
    mean_gaps = [base_gap / phase.rate_scale for phase in phases]
    fws = [phase.fw if phase.fw is not None else default_fw for phase in phases]
    cs_scales = [phase.cs_scale for phase in phases]
    # zipf_cdf is memoized process-wide, so phase-override exponents resolve
    # to shared read-only arrays; each phase keeps its CDF's bound searchsorted.
    key_lookups = [
        None
        if uniform_keys
        else zipf_cdf(
            num_locks,
            phase.zipf_exponent if phase.zipf_exponent is not None else scenario.zipf_exponent,
        ).searchsorted
        for phase in phases
    ]

    bias_p = 0.0
    if scenario.bias_ranks is not None:
        b_lo, b_hi = scenario.bias_ranks
        if b_lo <= rank < b_hi:
            bias_p = float(scenario.bias_fraction)
    bias_key = int(scenario.bias_key)
    cs_lo, cs_hi = (float(v) for v in scenario.cs_us)
    think_lo, think_hi = (float(v) for v in scenario.think_us)
    burst = int(scenario.burst_size)
    in_burst_p = 1.0 - 1.0 / burst
    arrival_kind = scenario.arrival

    arrivals: List[float] = []
    lock_index: List[int] = []
    is_write: List[bool] = []
    cs_times: List[float] = []
    think_times: List[float] = []
    phase_ids: List[int] = []

    t = 0.0
    rng_random = rng.random
    # rng.exponential(scale) is defined as scale * standard_exponential().
    rng_exponential = rng.standard_exponential
    for _ in range(requests):
        mean_gap = mean_gaps[bisect_right(ends, t)]
        if arrival_kind == "poisson":
            gap = mean_gap * rng_exponential()
        elif arrival_kind == "uniform":
            gap = mean_gap * (0.5 + rng_random())
        else:  # burst
            if rng_random() < in_burst_p:
                gap = mean_gap * _BURST_INNER_GAP
            else:
                gap = mean_gap * burst
        t += gap
        arrival_phase = bisect_right(ends, t)
        arrivals.append(t)
        phase_ids.append(arrival_phase)

        u_key = rng_random()
        if bias_p > 0.0 and u_key < bias_p:
            lock_index.append(bias_key)
        else:
            if bias_p > 0.0:
                # Rescale the remaining mass onto the base distribution, so
                # the bias consumes no extra draw.
                u_key = (u_key - bias_p) / (1.0 - bias_p) if bias_p < 1.0 else 0.0
            if uniform_keys:
                lock_index.append(min(int(u_key * num_locks), num_locks - 1))
            else:
                lock_index.append(int(key_lookups[arrival_phase](u_key)))

        is_write.append(rng_random() < fws[arrival_phase])
        cs_times.append((cs_lo + (cs_hi - cs_lo) * rng_random()) * cs_scales[arrival_phase])
        think_times.append(think_lo + (think_hi - think_lo) * rng_random())

    return RequestSchedule(
        arrivals, lock_index, is_write, cs_times, think_times, phase_ids,
        num_locks=num_locks, num_phases=len(phases),
    )
