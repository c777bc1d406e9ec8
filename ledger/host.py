"""Host-speed calibration: a fixed pure-Python loop, no ``repro`` code.

The sandbox hosts this benchmark runs on change speed in phases of seconds
to tens of seconds: the same loop pinned to one CPU takes 11, 13 or 19 ms
from one second to the next (noisy neighbours, frequency steps), and the
medians of two back-to-back 14 s runs of one deterministic workload differed
by 15-17 % for that reason alone.  The loop is therefore timed before and
after every repetition, and a repetition's host time is reported scaled to
:data:`REFERENCE_LOOP_S`; with that, the same medians agree within 2-4 %.
The raw seconds are kept beside the scaled ones in every result file.
"""

from __future__ import annotations

import statistics
import time

LOOP_ITERATIONS = 200_000

#: What :func:`py_loop_s` reads on the host the first baseline was taken on
#: (2.1 GHz Xeon, CPython 3.11) in its usual state, so that scaled seconds
#: are close to real seconds there.
REFERENCE_LOOP_S = 0.0065


def _loop() -> int:
    total = 0
    for i in range(LOOP_ITERATIONS):
        total += i & 7
    return total


def py_loop_s() -> float:
    """Median of three timings of the calibration loop."""
    samples = []
    for _ in range(3):
        t0 = time.perf_counter()
        _loop()
        samples.append(time.perf_counter() - t0)
    return statistics.median(samples)


def scale(raw_s: float, loop_s: float) -> float:
    """``raw_s`` as it would read on a host whose loop takes the reference time."""
    return raw_s * REFERENCE_LOOP_S / loop_s
