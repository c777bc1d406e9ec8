"""Seeded, deterministic fault plans: rank crashes and optional restarts.

A :class:`FaultPlan` tells a deterministic runtime to *kill* a rank once its
virtual clock reaches a chosen time, and optionally to *restart* it (re-run
its rank program from the top) at a later virtual time.  Plans are plain
data: the runtimes execute them, the sweep engine (:mod:`repro.bench.faults`)
draws them from a dedicated Philox lane so that every crash site is a pure
function of a small integer seed — the same discipline as
:mod:`repro.rma.perturbation`.

Kill semantics (shared by ``horizon`` and the reference interpreter,
``tests/reference.py``): a rank is killed at the first *public context call* (``put``,
``get``, ``accumulate``, ``fao``, ``cas``, ``flush``, ``compute``,
``barrier``, ``spin_on_cells``) it issues with its virtual clock at or past
``kill_us``.  The clock observed at a context-call boundary is part of the
deterministic scheduling contract, so the crash lands on the same operation
— bit-reproducibly — on every repeat run, under any ``--jobs`` setting and
on the reference interpreter.  A
killed rank's window stays accessible: RMA is one-sided, so survivors keep
reading and writing the dead rank's memory exactly as the paper's model
allows (that is what makes lease takeover and queue repair implementable at
all).

Failure detection: the simulated contexts of a faulted run expose the plan
as ``ctx.fault``, and :meth:`FaultPlan.dead_at` answers "is ``rank`` dead at
virtual time ``t``".  This models a *perfect* failure detector; a production
system would approximate it with heartbeats or the lease terms themselves
(see "Using RDMA for Lock Management", arxiv 1507.03274).

Times are integral-valued microseconds so that every comparison against a
rank clock is exact float arithmetic — no epsilon, no run-to-run drift.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Optional, Tuple

import numpy as np

from repro.rma.runtime_base import FaultHorizonError, RuntimeError_

__all__ = [
    "FAULT_SCENARIOS",
    "FaultHorizonError",
    "FaultPlan",
    "LockTimeout",
    "RankFault",
    "RecoveryInfo",
    "declare_recovery",
    "fault_rng",
    "recovery_info",
]

#: Philox counter lane reserved for fault-plan draws.  Distinct from the
#: rank-program lane (0), the perturbation lane (0x7C5EED) and the traffic
#: lane (0x7AF1C0), so a fault seed never correlates with any other stream.
_FAULT_LANE = 0x0FA017


def fault_rng(seed: int, stream: int = 0) -> np.random.Generator:
    """The deterministic generator for fault draws under ``seed``.

    ``stream`` separates independent draw sequences under the same seed
    (the sweep engine uses one stream per sweep point).
    """
    bitgen = np.random.Philox(key=seed, counter=[_FAULT_LANE, 0, 0, stream])
    return np.random.Generator(bitgen)


class LockTimeout(RuntimeError_):
    """A fault-aware lock gave up waiting (bounded virtual-time patience).

    Raised by recovery protocols whose waiters poll with a patience bound;
    the sweep engine maps it to an *unavailability* verdict, never a hang.
    """


# FaultHorizonError lives next to the other runtime errors in
# repro.rma.runtime_base (the runtimes raise it without importing this
# package) and is re-exported through __all__ as part of the fault API.


@dataclass(frozen=True)
class RankFault:
    """One rank's crash (and optional restart) schedule.

    Args:
        rank: The victim rank.
        kill_us: Virtual time (integral microseconds) at which the rank dies:
            the first public context call it issues at ``clock >= kill_us``
            raises the kill.
        restart_us: Optional absolute virtual time at which the rank is
            revived and re-runs its program from the top (fresh handles,
            fresh state; its window keeps whatever survivors wrote to it).
    """

    rank: int
    kill_us: float
    restart_us: Optional[float] = None

    def __post_init__(self) -> None:
        if self.rank < 0:
            raise ValueError("rank must be >= 0")
        kill = float(self.kill_us)
        if kill < 0 or kill != int(kill):
            raise ValueError(f"kill_us must be a non-negative integral time, got {self.kill_us}")
        object.__setattr__(self, "kill_us", kill)
        if self.restart_us is not None:
            restart = float(self.restart_us)
            if restart != int(restart) or restart <= kill:
                raise ValueError(
                    f"restart_us must be an integral time after kill_us, got {self.restart_us}"
                )
            object.__setattr__(self, "restart_us", restart)


@dataclass(frozen=True)
class FaultPlan:
    """A deterministic crash schedule for one run.

    Attributes:
        faults: At most one :class:`RankFault` per rank.
        horizon_us: Optional virtual-time ceiling for the whole run (see
            :class:`FaultHorizonError`); ``None`` means no ceiling.
    """

    faults: Tuple[RankFault, ...] = ()
    horizon_us: Optional[float] = None

    def __post_init__(self) -> None:
        faults = tuple(sorted(self.faults, key=lambda f: f.rank))
        ranks = [f.rank for f in faults]
        if len(set(ranks)) != len(ranks):
            raise ValueError(f"duplicate ranks in fault plan: {ranks}")
        object.__setattr__(self, "faults", faults)
        if self.horizon_us is not None:
            horizon = float(self.horizon_us)
            if horizon <= 0:
                raise ValueError("horizon_us must be positive")
            object.__setattr__(self, "horizon_us", horizon)

    @classmethod
    def single(
        cls,
        rank: int,
        kill_us: float,
        *,
        restart_us: Optional[float] = None,
        horizon_us: Optional[float] = None,
    ) -> "FaultPlan":
        """Convenience: a plan killing exactly one rank."""
        return cls(
            faults=(RankFault(rank=rank, kill_us=kill_us, restart_us=restart_us),),
            horizon_us=horizon_us,
        )

    @property
    def is_null(self) -> bool:
        """True when the plan changes nothing (no faults, no ceiling).

        Runtimes skip every fault code path for a null plan, so a run under
        ``FaultPlan()`` is bit-identical to a run with no plan at all (pinned
        by the property tests).
        """
        return not self.faults and self.horizon_us is None

    def fault_for(self, rank: int) -> Optional[RankFault]:
        for fault in self.faults:
            if fault.rank == rank:
                return fault
        return None

    def dead_at(self, rank: int, t: float) -> bool:
        """Perfect failure detector: is ``rank`` dead at virtual time ``t``?"""
        fault = self.fault_for(rank)
        if fault is None or t < fault.kill_us:
            return False
        return fault.restart_us is None or t < fault.restart_us

    def validate_for(self, nranks: int) -> None:
        """Reject plans naming ranks the runtime does not have."""
        for fault in self.faults:
            if fault.rank >= nranks:
                raise ValueError(
                    f"fault plan kills rank {fault.rank} but the runtime has {nranks} ranks"
                )


# --------------------------------------------------------------------------- #
# Recovery capability registry
# --------------------------------------------------------------------------- #

#: The crash scenarios the sweep engine generates (see repro.bench.faults).
FAULT_SCENARIOS = ("holder-crash", "waiter-crash", "restart")


@dataclass(frozen=True)
class RecoveryInfo:
    """What a scheme declared about its crash behaviour.

    ``scenarios`` names the :data:`FAULT_SCENARIOS` the scheme recovers from
    (run must complete with clean recovery oracles); any other scenario is
    *expected-unavailable* for it.  ``lease_us`` is the scheme's lease term
    when it uses lease-expiry recovery — the oracle needs it to judge whether
    a post-crash grant waited out the lease.
    """

    scenarios: FrozenSet[str]
    lease_us: Optional[float] = None


_RECOVERY: Dict[str, RecoveryInfo] = {}


def declare_recovery(scheme: str, scenarios, *, lease_us: Optional[float] = None) -> None:
    """Declare that ``scheme`` recovers from the named crash scenarios.

    Called at import time by fault-aware scheme modules (next to their
    ``@register_scheme``).  Undeclared schemes default to "recovers from
    nothing", which the sweep reports as expected-unavailable — never as a
    false pass.
    """
    names = frozenset(scenarios)
    unknown = names - set(FAULT_SCENARIOS)
    if unknown:
        raise ValueError(f"unknown fault scenarios {sorted(unknown)}; known: {FAULT_SCENARIOS}")
    _RECOVERY[scheme] = RecoveryInfo(scenarios=names, lease_us=lease_us)


def recovery_info(scheme: str) -> RecoveryInfo:
    """The declared recovery capabilities of ``scheme`` (empty if undeclared)."""
    return _RECOVERY.get(scheme, RecoveryInfo(scenarios=frozenset()))
