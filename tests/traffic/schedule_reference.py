"""The per-request numpy schedule generator, kept as the reference.

``generate_schedule`` as it stood before it drew from Python lists: one
``np.searchsorted`` per phase look-up and key, ``rng.exponential`` for Poisson
gaps, and six ``np.empty`` arrays filled item by item.  The body is copied
verbatim; ``tests/traffic/test_generators.py`` asserts that the current
generator returns the same bytes and dtypes on all six arrays.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.traffic.generators import (
    _BURST_INNER_GAP,
    RequestSchedule,
    TrafficScenario,
    traffic_rng,
    zipf_cdf,
)


def _phase_at(boundaries: np.ndarray, t: float) -> int:
    """Index of the phase containing virtual time ``t`` (clamped to the last)."""
    # boundaries[i] is the *end* time of phase i; the final phase's boundary
    # is +inf, so searchsorted always lands on a valid index.
    return int(np.searchsorted(boundaries, t, side="right"))


def reference_schedule(
    scenario: TrafficScenario,
    seed: int,
    rank: int,
    requests: int,
    fw_default: float = 0.0,
    *,
    lane: Optional[int] = None,
) -> RequestSchedule:
    if requests < 0:
        raise ValueError("requests must be non-negative")
    rng = traffic_rng(seed, rank, lane=lane)
    phases = scenario.effective_phases()
    ends = []
    t_end = 0.0
    for phase in phases:
        t_end = np.inf if phase.duration_us is None else t_end + float(phase.duration_us)
        ends.append(t_end)
    if ends:
        ends[-1] = np.inf  # the schedule never outlives the phase plan
    boundaries = np.asarray(ends, dtype=np.float64)

    # zipf_cdf is memoized process-wide, so phase-override exponents resolve
    # to shared read-only arrays without a per-call cache.
    def cdf_for(exponent: float) -> np.ndarray:
        return zipf_cdf(scenario.num_locks, exponent)

    uniform_keys = scenario.key_dist == "uniform"
    bias_p = 0.0
    if scenario.bias_ranks is not None:
        b_lo, b_hi = scenario.bias_ranks
        if b_lo <= rank < b_hi:
            bias_p = float(scenario.bias_fraction)
    bias_key = int(scenario.bias_key)
    base_gap = float(scenario.mean_gap_us)
    cs_lo, cs_hi = (float(v) for v in scenario.cs_us)
    think_lo, think_hi = (float(v) for v in scenario.think_us)
    burst = int(scenario.burst_size)
    in_burst_p = 1.0 - 1.0 / burst
    arrival_kind = scenario.arrival
    scenario_fw = scenario.fw

    arrivals = np.empty(requests, dtype=np.float64)
    lock_index = np.empty(requests, dtype=np.int64)
    is_write = np.empty(requests, dtype=np.bool_)
    cs_times = np.empty(requests, dtype=np.float64)
    think_times = np.empty(requests, dtype=np.float64)
    phase_ids = np.empty(requests, dtype=np.int64)

    t = 0.0
    rng_random = rng.random
    rng_exponential = rng.exponential
    for i in range(requests):
        phase_idx = _phase_at(boundaries, t)
        phase = phases[phase_idx]
        mean_gap = base_gap / phase.rate_scale
        if arrival_kind == "poisson":
            gap = float(rng_exponential(mean_gap))
        elif arrival_kind == "uniform":
            gap = float(mean_gap * (0.5 + rng_random()))
        else:  # burst
            if rng_random() < in_burst_p:
                gap = mean_gap * _BURST_INNER_GAP
            else:
                gap = mean_gap * burst
        t += gap
        arrival_phase = _phase_at(boundaries, t)
        arrivals[i] = t
        phase_ids[i] = arrival_phase

        arrival_phase_spec = phases[arrival_phase]
        u_key = rng_random()
        if bias_p > 0.0 and u_key < bias_p:
            lock_index[i] = bias_key
        else:
            if bias_p > 0.0:
                # Rescale the remaining mass onto the base distribution, so
                # the bias consumes no extra draw.
                u_key = (u_key - bias_p) / (1.0 - bias_p) if bias_p < 1.0 else 0.0
            if uniform_keys:
                lock_index[i] = min(int(u_key * scenario.num_locks), scenario.num_locks - 1)
            else:
                exponent = (
                    arrival_phase_spec.zipf_exponent
                    if arrival_phase_spec.zipf_exponent is not None
                    else scenario.zipf_exponent
                )
                lock_index[i] = int(np.searchsorted(cdf_for(exponent), u_key, side="left"))

        u_role = rng_random()
        if arrival_phase_spec.fw is not None:
            fw = arrival_phase_spec.fw
        elif scenario_fw is not None:
            fw = scenario_fw
        else:
            fw = fw_default
        is_write[i] = u_role < fw

        cs_times[i] = (cs_lo + (cs_hi - cs_lo) * rng_random()) * arrival_phase_spec.cs_scale
        think_times[i] = think_lo + (think_hi - think_lo) * rng_random()

    return RequestSchedule(
        arrival_us=arrivals,
        lock_index=lock_index,
        is_write=is_write,
        cs_us=cs_times,
        think_us=think_times,
        phase=phase_ids,
        num_locks=scenario.num_locks,
        num_phases=len(phases),
    )
