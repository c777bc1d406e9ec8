"""Probe observers for fault placement.

Before the fault sweep (:mod:`repro.bench.faults`) can kill a *holder* or a
*waiter*, it has to know when a rank actually holds or waits for the lock —
the answer depends on the scheme, the machine shape, and the benchmark.  A
:class:`TimelineObserver` records exactly that during an unfaulted probe run:
per-rank hold intervals (``acquired`` to ``released``) and wait intervals
(``wait_start`` to ``acquired``).  The sweep then draws a victim interval
from the probe timeline with the dedicated fault Philox lane and schedules
the kill inside it.

Like every :class:`~repro.rma.runtime_base.RunObserver`, it issues no RMA
calls, so probed runs stay bit-identical to unobserved ones.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.rma.runtime_base import RunObserver

__all__ = ["Interval", "TimelineObserver"]


@dataclass(frozen=True)
class Interval:
    """One closed lock-related interval of one rank's timeline."""

    rank: int
    start_us: float
    end_us: float

    @property
    def length_us(self) -> float:
        return self.end_us - self.start_us


class TimelineObserver(RunObserver):
    """Record per-rank hold and wait intervals of one observed run."""

    def __init__(self) -> None:
        self.on_run_start(0)

    def on_run_start(self, nranks: int) -> None:
        #: Completed critical sections, in grant order.
        self.holds: List[Interval] = []
        #: Completed acquire waits, in grant order.
        self.waits: List[Interval] = []
        self._open_hold: Dict[int, float] = {}
        self._open_wait: Dict[int, float] = {}

    def wait_start(self, rank: int, mode: str, t: float) -> None:
        self._open_wait[rank] = t

    def acquired(self, rank: int, mode: str, t: float) -> None:
        started = self._open_wait.pop(rank, None)
        if started is not None:
            self.waits.append(Interval(rank=rank, start_us=started, end_us=t))
        self._open_hold[rank] = t

    def released(self, rank: int, mode: str, t: float) -> None:
        started = self._open_hold.pop(rank, None)
        if started is not None:
            self.holds.append(Interval(rank=rank, start_us=started, end_us=t))

    # -- probe queries ------------------------------------------------------ #

    def intervals(self, kind: str, *, rank: Optional[int] = None) -> List[Interval]:
        """All recorded ``"hold"`` or ``"wait"`` intervals, optionally per rank."""
        if kind == "hold":
            pool = self.holds
        elif kind == "wait":
            pool = self.waits
        else:
            raise ValueError(f"unknown interval kind {kind!r}")
        if rank is None:
            return list(pool)
        return [iv for iv in pool if iv.rank == rank]
