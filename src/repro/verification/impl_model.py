"""Crash models of the recovery protocols, for the interleaving checker.

The registered schemes are model-checked on their own step programs by
:mod:`repro.verification.explorer`, but only without crashes: time stands
still there and no rank dies.  The two models here extend a hand-written
transcription of :mod:`repro.fault.lease_lock` and
:mod:`repro.fault.repair_mcs` with virtual crash and lease-expiry processes,
so :class:`~repro.verification.interleaving.ModelChecker` enumerates every
crash timing at P = 2-3.  Every RMA call of the real code is one model
transition, in the order the implementation issues them.  ``repro faults``
(:mod:`repro.bench.faults`) uses the repair model as the exhaustive half of
its ``repair-mcs-racy`` verdict.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.core.constants import NULL_RANK
from repro.verification.lock_models import ModelSpec

__all__ = [
    "lease_impl_model",
    "repair_queue_impl_model",
]

_NIL = NULL_RANK


# --------------------------------------------------------------------------- #
# Crash-extended models (the fault subsystem's exhaustive counterpart)
# --------------------------------------------------------------------------- #
#
# The live fault sweep (repro faults) kills ranks at *one* seeded point per
# run; these models let the checker explore *every* crash timing at P=2-3.
# Crashes and lease expiry are modelled as virtual processes appended after
# the real ones: their single job is "fire the event if its guard allows,
# else finish as a no-op", so the checker's interleaving enumeration doubles
# as an enumeration of crash/expiry timings.  A crashed process's pc becomes
# "dead", which counts as done — death must not read as a deadlock.

def lease_impl_model(
    num_processes: int = 2,
    *,
    rounds: int = 1,
    crash_pid: int = 0,
    mutant: Optional[str] = None,
) -> ModelSpec:
    """The lease lock of :mod:`repro.fault.lease_lock` with a crashing holder.

    Real processes ``0 .. num_processes-1`` run ``rounds`` acquire/release
    pairs against a single abstract lock word ``(owner, epoch, expired)``.
    Two virtual processes follow: a **crash process** that kills
    ``crash_pid`` at any reachable point (the checker explores all of them),
    and an **expiry process** whose guard is the failure-detector contract —
    it may mark the lease expired only while the word's owner is the crashed
    process (a lease term far above every critical-section length means an
    unexpired lease implies a live holder; see the scheme's docstring).

    Mutants:

    * ``"no-lease"`` — the expiry process never fires: a holder death inside
      the critical section strands every waiter (the checker reports the
      deadlock — the lost-lock hazard of non-recovering locks).
    * ``"early-expiry"`` — the expiry guard drops the holder-is-dead clause:
      expiry can hit a *live* holder mid-CS and the takeover double-grants
      (the checker reports the mutual-exclusion violation — the hazard a
      too-short lease term creates in production).
    """
    if num_processes < 1:
        raise ValueError("need at least one real process")
    if not 0 <= crash_pid < num_processes:
        raise ValueError(f"crash_pid {crash_pid} out of range")
    if mutant not in (None, "no-lease", "early-expiry"):
        raise ValueError(f"unknown mutant {mutant!r}")
    no_lease = mutant == "no-lease"
    early_expiry = mutant == "early-expiry"
    crash_proc = num_processes
    expiry_proc = num_processes + 1

    initial_state = {
        "owner": _NIL,
        "epoch": 0,
        "expired": False,
        "cs": [],
        "crashed": _NIL,
        "procs": [
            {"pc": "a_poll", "my_epoch": -1, "rounds": 0}
            for _ in range(num_processes)
        ]
        + [{"pc": "fire"}, {"pc": "fire"}],
    }

    def step(state: Dict, pid: int) -> bool:  # noqa: C901 - mirrors the impl
        # -- virtual crash process ------------------------------------------ #
        if pid == crash_proc:
            victim = state["procs"][crash_pid]
            if victim["pc"] not in ("done", "dead"):
                state["crashed"] = crash_pid
                if crash_pid in state["cs"]:
                    state["cs"].remove(crash_pid)
                victim["pc"] = "dead"
            state["procs"][pid]["pc"] = "done"
            return True
        # -- virtual lease-expiry process ----------------------------------- #
        if pid == expiry_proc:
            owner = state["owner"]
            can_expire = owner != _NIL and not state["expired"] and (
                early_expiry or owner == state["crashed"]
            )
            if can_expire and not no_lease:
                state["expired"] = True
                state["procs"][pid]["pc"] = "done"
                return True
            if all(
                state["procs"][p]["pc"] in ("done", "dead")
                for p in range(num_processes)
            ):
                # Nothing left to recover: retire without firing.  (Finishing
                # earlier would let the checker discard the expiry exactly in
                # the branches that need it.)
                state["procs"][pid]["pc"] = "done"
                return True
            return False

        # -- real processes: LeaseLockHandle, one RMA per transition -------- #
        me = state["procs"][pid]
        pc = me["pc"]
        if pc == "a_poll":
            # get + CAS folded into one atomic transition each way: the real
            # lock's get/CAS pair retries on interference, which the model
            # expresses by only stepping when the claim would succeed.
            if state["owner"] == _NIL:
                state["owner"] = pid
                state["epoch"] += 1
                state["expired"] = False
                me["my_epoch"] = state["epoch"]
                me["pc"] = "cs_enter"
            elif state["expired"]:
                # Lease takeover: bump the epoch so the stale release fences.
                state["owner"] = pid
                state["epoch"] += 1
                state["expired"] = False
                me["my_epoch"] = state["epoch"]
                me["pc"] = "cs_enter"
            else:
                return False  # polling: blocked until free or expired
        elif pc == "cs_enter":
            state["cs"].append(pid)
            me["pc"] = "cs_exit"
        elif pc == "cs_exit":
            state["cs"].remove(pid)
            me["pc"] = "rel"
        elif pc == "rel":
            # Full-word CAS: only the exact installed (owner, epoch) unlocks;
            # a takeover bumped the epoch, so the stale release is a no-op.
            if state["owner"] == pid and state["epoch"] == me["my_epoch"]:
                state["owner"] = _NIL
                state["expired"] = False
            me["rounds"] += 1
            me["pc"] = "done" if me["rounds"] >= rounds else "a_poll"
        else:  # pragma: no cover - done/dead filtered by is_done
            return False
        return True

    def is_done(state: Dict, pid: int) -> bool:
        return state["procs"][pid]["pc"] in ("done", "dead")

    def invariant(state: Dict) -> bool:
        return len(state["cs"]) <= 1

    variant = f",{mutant}" if mutant else ""
    return ModelSpec(
        name=f"lease_impl[P={num_processes},crash={crash_pid}{variant}]",
        num_processes=num_processes + 2,
        initial_state=initial_state,
        step=step,
        is_done=is_done,
        invariant=invariant,
        invariant_name="mutual exclusion under holder crash (lease model)",
    )


def repair_queue_impl_model(
    num_processes: int = 3,
    *,
    crash_pid: int = 1,
    racy: bool = False,
) -> ModelSpec:
    """The repair-MCS queue of :mod:`repro.fault.repair_mcs` with a dying waiter.

    Real processes each acquire once through the MCS enqueue (reset node,
    tail swap, predecessor link, status spin) and release through the repair
    walk, one RMA call per transition.  A virtual crash process kills
    ``crash_pid`` — but only while it is *parked* on its status word with the
    grant still pending, which is the waiter-crash scenario the scheme
    declares.  (A crash between the tail swap and the predecessor link
    strands the releaser behind a link that never comes; no queue-repair
    scheme can recover that without leases, which is exactly why the fault
    sweep's kill placement targets the parked phase and why holder crashes
    are expected-unavailable.)

    The checker explores every interleaving of the crash against the other
    processes' enqueues, which includes the repair walk's hardest case: the
    dead waiter sits at the tail while a racer is mid-enqueue behind it.  The
    correct walk re-polls the dead node's next pointer after the closing CAS
    fails; the ``racy=True`` mutant treats the failed CAS as "queue drained",
    orphans the racer, and the checker reports the resulting deadlock.
    """
    if num_processes < 2:
        raise ValueError("need at least two real processes")
    if not 0 <= crash_pid < num_processes:
        raise ValueError(f"crash_pid {crash_pid} out of range")
    crash_proc = num_processes
    wait, granted = 0, 1

    initial_state = {
        "tail": _NIL,
        "next": [_NIL] * num_processes,
        "status": [wait] * num_processes,
        "cs": [],
        "crashed": _NIL,
        "procs": [
            {"pc": "init", "pred": _NIL, "succ": _NIL} for _ in range(num_processes)
        ]
        + [{"pc": "fire"}],
    }

    def step(state: Dict, pid: int) -> bool:  # noqa: C901 - mirrors the impl
        # -- virtual crash process ------------------------------------------ #
        if pid == crash_proc:
            victim = state["procs"][crash_pid]
            window_open = victim["pc"] == "spin" and state["status"][crash_pid] == wait
            # A releaser at g_grant already consulted the failure detector
            # (g_check) and committed to this successor; a crash inside that
            # write is a grant-to-a-corpse TOCTOU no detector-based repair can
            # see, i.e. a holder crash — outside the declared scenario, so
            # the crash process waits it out.
            committed = any(
                p["pc"] == "g_grant" and p["succ"] == crash_pid
                for p in state["procs"][:num_processes]
            )
            if window_open and not committed:
                state["crashed"] = crash_pid
                victim["pc"] = "dead"
                state["procs"][pid]["pc"] = "done"
                return True
            if victim["pc"] in ("init", "swap", "link", "spin"):
                return False  # the parked window may still open: wait for it
            state["procs"][pid]["pc"] = "done"  # window closed: retire unfired
            return True

        # -- real processes: RepairMCSLockHandle ----------------------------- #
        me = state["procs"][pid]
        pc = me["pc"]
        if pc == "init":
            state["next"][pid] = _NIL
            state["status"][pid] = wait
            me["pc"] = "swap"
        elif pc == "swap":
            me["pred"] = state["tail"]
            state["tail"] = pid
            me["pc"] = "cs_enter" if me["pred"] == _NIL else "link"
        elif pc == "link":
            state["next"][me["pred"]] = pid
            me["pc"] = "spin"
        elif pc == "spin":
            if state["status"][pid] == wait:
                return False
            me["pc"] = "cs_enter"
        elif pc == "cs_enter":
            state["cs"].append(pid)
            me["pc"] = "cs_exit"
        elif pc == "cs_exit":
            state["cs"].remove(pid)
            me["pc"] = "rel_read"
        elif pc == "rel_read":
            me["succ"] = state["next"][pid]
            me["pc"] = "g_check" if me["succ"] != _NIL else "rel_cas"
        elif pc == "rel_cas":
            if state["tail"] == pid:
                state["tail"] = _NIL
                me["pc"] = "done"
            else:
                me["pc"] = "rel_waitnext"
        elif pc == "rel_waitnext":
            if state["next"][pid] == _NIL:
                return False
            me["succ"] = state["next"][pid]
            me["pc"] = "g_check"
        # -- the repair walk (_grant) --------------------------------------- #
        elif pc == "g_check":
            if state["crashed"] == me["succ"]:
                me["pc"] = "g_read_next"
            else:
                me["pc"] = "g_grant"
        elif pc == "g_read_next":
            nn = state["next"][me["succ"]]
            if nn == _NIL:
                me["pc"] = "g_cas"
            else:
                me["succ"] = nn
                me["pc"] = "g_check"
        elif pc == "g_cas":
            if state["tail"] == me["succ"]:
                state["tail"] = _NIL
                me["pc"] = "done"  # queue drained over the dead tail
            elif racy:
                me["pc"] = "done"  # WRONG: the mid-enqueue racer is orphaned
            else:
                me["pc"] = "g_settle"
        elif pc == "g_settle":
            # The closing CAS lost: re-poll the dead node's next pointer
            # until the racer's link write lands.
            if state["next"][me["succ"]] == _NIL:
                return False
            me["succ"] = state["next"][me["succ"]]
            me["pc"] = "g_check"
        elif pc == "g_grant":
            state["status"][me["succ"]] = granted
            me["pc"] = "done"
        else:  # pragma: no cover - done/dead filtered by is_done
            return False
        return True

    def is_done(state: Dict, pid: int) -> bool:
        return state["procs"][pid]["pc"] in ("done", "dead")

    def invariant(state: Dict) -> bool:
        return len(state["cs"]) <= 1

    variant = ",racy" if racy else ""
    return ModelSpec(
        name=f"repair_queue_impl[P={num_processes},crash={crash_pid}{variant}]",
        num_processes=num_processes + 1,
        initial_state=initial_state,
        step=step,
        is_done=is_done,
        invariant=invariant,
        invariant_name="mutual exclusion under waiter crash (repair-MCS model)",
    )

