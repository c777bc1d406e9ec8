"""Small-P abstract model *generated from* :mod:`repro.core.rma_rw`.

The hand-written :func:`~repro.verification.lock_models.rw_counter_model`
abstracts the writer queue to a single test-and-set word; this module builds
the model the paper's Section 4.4 SPIN experiment actually calls for: the
**implementation's own state machine**, extracted step by step from
``RMARWLockHandle``'s writer and reader acquire/release paths at ``N = 1``
(one tree level, one physical counter — the shape of
``Machine.single_node(P)``).

Fidelity rules:

* every RMA call of the real code (``put``/``fao``/``cas``/``accumulate``/
  ``get``) is one atomic model transition, in the exact order the
  implementation issues them — including the *non-atomic, multi-step counter
  reset* of ``DistributedCounterHandle.reset_counter`` whose read/accumulate
  race is the subtlest part of the protocol;
* every spin (``spin_while`` / ``spin_on_cells``) is a blocked transition
  guarded by the same predicate the implementation evaluates, including the
  ``ARRIVE > T_R`` deviation from Listing 9 and the stranded-counter
  recovery path of ``spin_until_read_mode_steps``;
* the protocol constants (``NULL_RANK``, ``STATUS_WAIT``,
  ``STATUS_MODE_CHANGE``, ``ACQUIRE_START``, ``WRITE_FLAG``) are imported
  from :mod:`repro.core.constants` — the very objects the implementation
  uses — and the thresholds default to the values of a real
  :class:`~repro.core.rma_rw.RMARWLockSpec` built through the scheme
  registry for the same process count.

``mutant`` deliberately re-introduces known-unsafe variants so the
test-suite can prove the checker finds real violations in *this* state
machine, not just in toy models:

* ``"skip-drain"`` — the writer skips the reader-drain wait of Section 4.1
  (an invented bug; the checker finds the reader/writer overlap);
* ``"racy-reset"`` — the counter reset as the seed port implemented it: two
  unconditional accumulates from a stale read, clearing the WRITE flag in
  every caller.  This is the **actual bug this model found** (see
  ``DistributedCounterHandle.reset_counter``): a reader's saturation reset
  racing a writer's mode switch erases the WRITE flag and lets a reader and
  the writer coexist in the critical section; racing resets can also drive
  ``DEPART`` negative and deadlock every participant.  The live chaos sweep
  reproduced the deadlock (``t_r=1``, perturbation seed 51); the fixed
  CAS-claimed reset passes both the checker and the sweep.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.core.constants import (
    ACQUIRE_START,
    NULL_RANK,
    STATUS_MODE_CHANGE,
    STATUS_WAIT,
    WRITE_FLAG,
)
from repro.verification.lock_models import ModelSpec

__all__ = [
    "alock_impl_model",
    "lease_impl_model",
    "lock_server_impl_model",
    "repair_queue_impl_model",
    "rma_rw_impl_model",
]

_NIL = NULL_RANK


def _real_spec(num_processes: int, t_r: Optional[int], t_w: Optional[int]):
    """Build the real RMA-RW spec through the registry (single-node shape)."""
    from repro.api.registry import get_scheme
    from repro.topology.machine import Machine

    machine = Machine.single_node(num_processes)
    params: Dict[str, int] = {}
    if t_r is not None:
        params["t_r"] = t_r
    if t_w is not None:
        params["t_w"] = t_w
    return get_scheme("rma-rw").build(machine, **params)


def rma_rw_impl_model(
    num_readers: int = 2,
    num_writers: int = 1,
    *,
    t_r: Optional[int] = 1,
    t_w: Optional[int] = 2,
    reader_rounds: int = 1,
    writer_rounds: int = 1,
    mutant: Optional[str] = None,
) -> ModelSpec:
    """The RMA-RW root protocol as implemented, ready for the model checker.

    Process ids ``0 .. num_readers-1`` are readers, the rest writers.
    ``t_r``/``t_w`` default to the listed small values to keep the state
    space exhaustive-checkable; passing ``None`` adopts the real spec's
    defaults instead.  ``mutant="skip-drain"`` removes the writer's
    reader-drain wait (the bug the paper's Section 4.1 argument rules out).
    """
    if num_readers < 0 or num_writers < 0 or num_readers + num_writers < 1:
        raise ValueError("need at least one process")
    if mutant not in (None, "skip-drain", "racy-reset"):
        raise ValueError(f"unknown mutant {mutant!r}")
    num_processes = num_readers + num_writers
    spec = _real_spec(num_processes, t_r, t_w)
    if spec.counter.num_counters != 1:
        raise ValueError("the N=1 model assumes a single physical counter")
    t_r_val = spec.reader_threshold
    t_w_val = spec.writer_threshold
    skip_drain = mutant == "skip-drain"
    racy_reset = mutant == "racy-reset"

    initial_state = {
        "tail": _NIL,
        "next": [_NIL] * num_processes,
        "status": [0] * num_processes,
        "arrive": 0,
        "depart": 0,
        "readers_in": 0,
        "writers_in": 0,
        "procs": [
            {
                "pc": "r_top" if pid < num_readers else "w_set_next",
                "pred": _NIL,
                "succ": _NIL,
                "s": 0,
                "nstat": 0,
                "creset": False,
                "prev": 0,
                "tail_snap": _NIL,
                "a_snap": 0,
                "d_snap": 0,
                "cont": "",
                "clear": False,
                "barrier": False,
                "rounds": 0,
            }
            for pid in range(num_processes)
        ],
    }

    def active_readers(state: Dict) -> int:
        arrive = state["arrive"]
        if arrive >= WRITE_FLAG:
            arrive -= WRITE_FLAG
        return arrive - state["depart"]

    def step(state: Dict, pid: int) -> bool:  # noqa: C901 - mirrors the impl
        me = state["procs"][pid]
        pc = me["pc"]

        # -- DistributedCounterHandle.reset_counter (Listing 6, middle) ----- #
        # One RMA call per transition, in the implementation's issue order.
        # The fixed algorithm CAS-claims the depart fold and clears the WRITE
        # flag only when me["clear"] (writer paths); the "racy-reset" mutant
        # replays the seed port's unconditional stale-read accumulates.
        if pc == "rst_read_arrive":
            me["a_snap"] = state["arrive"]
            me["pc"] = "rst_read_depart"
        elif pc == "rst_read_depart":
            me["d_snap"] = state["depart"]
            me["pc"] = "rst_apply_arrive" if racy_reset else "rst_claim"
        elif pc == "rst_claim":
            # cas(0, d_snap) on DEPART: claim exactly the observed departures.
            if state["depart"] != me["d_snap"]:
                me["pc"] = "rst_read_arrive"  # lost the race; re-read
            else:
                state["depart"] = 0
                me["pc"] = "rst_fold"
        elif pc == "rst_fold":
            sub = -me["d_snap"]
            if me["clear"] and me["a_snap"] >= WRITE_FLAG:
                sub -= WRITE_FLAG
            state["arrive"] += sub
            me["pc"] = me["cont"]
        elif pc == "rst_apply_arrive":  # racy-reset mutant only
            sub = -me["d_snap"]
            if me["a_snap"] >= WRITE_FLAG:
                sub -= WRITE_FLAG
            state["arrive"] += sub
            me["pc"] = "rst_apply_depart"
        elif pc == "rst_apply_depart":  # racy-reset mutant only
            state["depart"] += -me["d_snap"]
            me["pc"] = me["cont"]

        # -- Reader: RMARWLockHandle.acquire_read (Listing 9) --------------- #
        elif pc == "r_top":
            me["pc"] = "r_wait" if me["barrier"] else "r_arrive"
        elif pc == "r_arrive":
            # dc.reader_arrive(): FAO(+1) on ARRIVE.
            me["prev"] = state["arrive"]
            state["arrive"] += 1
            me["pc"] = "r_check"
        elif pc == "r_check":
            if me["prev"] < t_r_val:
                me["pc"] = "r_enter"
            else:
                me["barrier"] = True
                me["pc"] = "r_read_tail" if me["prev"] == t_r_val else "r_backoff"
        elif pc == "r_read_tail":
            # First to saturate: defer to a queued writer, else reset ourselves.
            if state["tail"] == _NIL:
                me["cont"] = "r_reset_done"
                me["clear"] = False  # reader resets never clear the flag
                me["pc"] = "rst_read_arrive"
            else:
                me["pc"] = "r_backoff"
        elif pc == "r_reset_done":
            me["barrier"] = False
            me["pc"] = "r_backoff"
        elif pc == "r_backoff":
            # dc.reader_backoff(): undo the optimistic arrival.
            state["arrive"] -= 1
            me["pc"] = "r_top"
        elif pc == "r_wait":
            # dc.spin_until_read_mode_steps: spin while saturated (ARRIVE > T_R —
            # the implementation's liveness deviation from Listing 9), in
            # WRITE mode, or while admitted readers are still inside.
            arrive = state["arrive"]
            if arrive > t_r_val and (arrive >= WRITE_FLAG or active_readers(state) > 0):
                return False
            if arrive <= t_r_val:
                me["pc"] = "r_arrive"
            else:
                # Stranded: saturated, READ mode, nobody active.
                me["pc"] = "r_stranded_tail"
        elif pc == "r_stranded_tail":
            # writer_waiting(): a queued root writer will reset the counter.
            if state["tail"] != _NIL:
                me["pc"] = "r_stranded_spin"
            else:
                me["cont"] = "r_arrive"
                me["clear"] = False  # recovery is a reader reset
                me["pc"] = "rst_read_arrive"
        elif pc == "r_stranded_spin":
            if state["arrive"] > t_r_val:
                return False
            me["pc"] = "r_arrive"
        elif pc == "r_enter":
            state["readers_in"] += 1
            me["pc"] = "r_exit"
        elif pc == "r_exit":
            state["readers_in"] -= 1
            me["pc"] = "r_depart"
        elif pc == "r_depart":
            # release_read -> dc.reader_depart(): accumulate(+1) on DEPART.
            state["depart"] += 1
            me["rounds"] += 1
            me["pc"] = "done" if me["rounds"] >= reader_rounds else "r_top"

        # -- Writer: RMARWLockHandle._writer_acquire_root (Listing 7) ------- #
        elif pc == "w_set_next":
            state["next"][pid] = _NIL
            me["pc"] = "w_set_status"
        elif pc == "w_set_status":
            state["status"][pid] = STATUS_WAIT
            me["pc"] = "w_swap"
        elif pc == "w_swap":
            # FAO(REPLACE) on the root tail.
            me["pred"] = state["tail"]
            state["tail"] = pid
            me["pc"] = "w_to_write" if me["pred"] == _NIL else "w_link"
        elif pc == "w_link":
            state["next"][me["pred"]] = pid
            me["pc"] = "w_spin"
        elif pc == "w_spin":
            if state["status"][pid] == STATUS_WAIT:
                return False
            me["s"] = state["status"][pid]
            if me["s"] == STATUS_MODE_CHANGE:
                # The readers have the lock; win it back.
                me["pc"] = "w_to_write"
            else:
                # Passed directly in WRITE mode with its count intact.
                me["pc"] = "w_enter"
        elif pc == "w_to_write":
            # dc.set_counters_to_write(): accumulate(+WRITE_FLAG) on ARRIVE.
            state["arrive"] += WRITE_FLAG
            me["pc"] = "w_enter" if skip_drain else "w_drain"
        elif pc == "w_drain":
            # dc.wait_readers_drained(): Section 4.1's re-check.
            if active_readers(state) > 0:
                return False
            me["pc"] = "w_ack"
        elif pc == "w_ack":
            state["status"][pid] = ACQUIRE_START
            me["pc"] = "w_enter"
        elif pc == "w_enter":
            state["writers_in"] += 1
            me["pc"] = "w_exit"
        elif pc == "w_exit":
            state["writers_in"] -= 1
            me["pc"] = "wr_read_stat"

        # -- Writer: RMARWLockHandle._writer_release_root (Listing 8) ------- #
        elif pc == "wr_read_stat":
            me["nstat"] = state["status"][pid] + 1
            me["creset"] = False
            if me["nstat"] >= t_w_val:
                # T_W reached: reset the counter, pass to the readers.
                me["cont"] = "wr_reset_tw_done"
                me["clear"] = True  # the writer clears its own flag
                me["pc"] = "rst_read_arrive"
            else:
                me["pc"] = "wr_read_succ"
        elif pc == "wr_reset_tw_done":
            me["nstat"] = STATUS_MODE_CHANGE
            me["creset"] = True
            me["pc"] = "wr_read_succ"
        elif pc == "wr_read_succ":
            me["succ"] = state["next"][pid]
            if me["succ"] != _NIL:
                me["pc"] = "wr_pass"
            elif not me["creset"]:
                # Nobody known to wait: let the readers in.
                me["cont"] = "wr_reset_nosucc_done"
                me["clear"] = True
                me["pc"] = "rst_read_arrive"
            else:
                me["pc"] = "wr_cas"
        elif pc == "wr_reset_nosucc_done":
            me["nstat"] = STATUS_MODE_CHANGE
            me["pc"] = "wr_cas"
        elif pc == "wr_cas":
            if state["tail"] == pid:
                state["tail"] = _NIL
                me["pc"] = "w_round"
            else:
                me["pc"] = "wr_waitnext"
        elif pc == "wr_waitnext":
            if state["next"][pid] == _NIL:
                return False
            me["succ"] = state["next"][pid]
            me["pc"] = "wr_pass"
        elif pc == "wr_pass":
            state["status"][me["succ"]] = me["nstat"]
            me["pc"] = "w_round"
        elif pc == "w_round":
            me["rounds"] += 1
            me["pc"] = "done" if me["rounds"] >= writer_rounds else "w_set_next"
        else:  # pragma: no cover - "done" filtered by is_done
            return False
        return True

    def is_done(state: Dict, pid: int) -> bool:
        return state["procs"][pid]["pc"] == "done"

    def invariant(state: Dict) -> bool:
        if state["writers_in"] > 1:
            return False
        if state["writers_in"] == 1 and state["readers_in"] > 0:
            return False
        return True

    variant = f",{mutant}" if mutant else ""
    return ModelSpec(
        name=(
            f"rma_rw_impl[r={num_readers},w={num_writers},"
            f"T_R={t_r_val},T_W={t_w_val}{variant}]"
        ),
        num_processes=num_processes,
        initial_state=initial_state,
        step=step,
        is_done=is_done,
        invariant=invariant,
        invariant_name="reader/writer exclusion (implementation model)",
    )


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


# --------------------------------------------------------------------------- #
# Competing lock families (the PR-9 gauntlet entries)
# --------------------------------------------------------------------------- #

def alock_impl_model(
    num_local: int = 1,
    num_remote: int = 2,
    *,
    rounds: int = 1,
    mutant: Optional[str] = None,
) -> ModelSpec:
    """The asymmetric lock of :mod:`repro.related.alock`, one RMA per step.

    Process ids ``0 .. num_local-1`` are node-local fast-path ranks (a
    blocked CAS transition on the owner word — the model's analogue of the
    backoff retry loop); the rest are remote ranks running the MCS enqueue,
    the status park and the head-only owner claim, in the implementation's
    issue order.  The safety argument the checker certifies is exactly the
    one the scheme's docstring makes: both paths enter only through
    ``CAS(free -> rank)`` on the single owner word, so no interleaving of
    barging locals, parked waiters and queue hand-offs can double-grant.

    ``mutant="skip-owner-cas"`` replays the tempting wrong design where a
    granted remote head trusts the queue hand-off and enters without
    claiming the owner word — the checker finds the mutual-exclusion
    violation against a barging local.
    """
    if num_local < 0 or num_remote < 0 or num_local + num_remote < 1:
        raise ValueError("need at least one process")
    if mutant not in (None, "skip-owner-cas"):
        raise ValueError(f"unknown mutant {mutant!r}")
    skip_owner_cas = mutant == "skip-owner-cas"
    num_processes = num_local + num_remote

    initial_state = {
        "owner": _NIL,
        "tail": _NIL,
        "next": [_NIL] * num_processes,
        "head": [False] * num_processes,
        "cs": [],
        "procs": [
            {
                "pc": "l_claim" if pid < num_local else "r_init",
                "pred": _NIL,
                "succ": _NIL,
                "rounds": 0,
            }
            for pid in range(num_processes)
        ],
    }

    def is_local(pid: int) -> bool:
        return pid < num_local

    def step(state: Dict, pid: int) -> bool:  # noqa: C901 - mirrors the impl
        me = state["procs"][pid]
        pc = me["pc"]

        # -- shared owner-word claim (the CAS retry loop, both paths) ------- #
        if pc in ("l_claim", "r_claim"):
            if state["owner"] != _NIL:
                return False  # CAS lost: the impl backs off and retries
            state["owner"] = pid
            me["pc"] = "cs_enter"
        elif pc == "cs_enter":
            state["cs"].append(pid)
            me["pc"] = "cs_exit"
        elif pc == "cs_exit":
            state["cs"].remove(pid)
            me["pc"] = "rel_owner"
        elif pc == "rel_owner":
            state["owner"] = _NIL
            me["pc"] = "round_done" if is_local(pid) else "rel_read"

        # -- remote slow path: MCS enqueue + head-only claim ---------------- #
        elif pc == "r_init":
            state["next"][pid] = _NIL
            state["head"][pid] = False
            me["pc"] = "r_swap"
        elif pc == "r_swap":
            me["pred"] = state["tail"]
            state["tail"] = pid
            if me["pred"] == _NIL:
                me["pc"] = "cs_enter" if skip_owner_cas else "r_claim"
            else:
                me["pc"] = "r_link"
        elif pc == "r_link":
            state["next"][me["pred"]] = pid
            me["pc"] = "r_spin"
        elif pc == "r_spin":
            if not state["head"][pid]:
                return False
            me["pc"] = "cs_enter" if skip_owner_cas else "r_claim"

        # -- remote release: hand the headship down the queue --------------- #
        elif pc == "rel_read":
            me["succ"] = state["next"][pid]
            me["pc"] = "r_notify" if me["succ"] != _NIL else "rel_cas"
        elif pc == "rel_cas":
            if state["tail"] == pid:
                state["tail"] = _NIL
                me["pc"] = "round_done"
            else:
                me["pc"] = "rel_waitnext"
        elif pc == "rel_waitnext":
            if state["next"][pid] == _NIL:
                return False
            me["succ"] = state["next"][pid]
            me["pc"] = "r_notify"
        elif pc == "r_notify":
            state["head"][me["succ"]] = True
            me["pc"] = "round_done"

        elif pc == "round_done":
            me["rounds"] += 1
            if me["rounds"] >= rounds:
                me["pc"] = "done"
            else:
                me["pc"] = "l_claim" if is_local(pid) else "r_init"
        else:  # pragma: no cover - "done" filtered by is_done
            return False
        return True

    def is_done(state: Dict, pid: int) -> bool:
        return state["procs"][pid]["pc"] == "done"

    def invariant(state: Dict) -> bool:
        return len(state["cs"]) <= 1

    variant = f",{mutant}" if mutant else ""
    return ModelSpec(
        name=f"alock_impl[l={num_local},r={num_remote}{variant}]",
        num_processes=num_processes,
        initial_state=initial_state,
        step=step,
        is_done=is_done,
        invariant=invariant,
        invariant_name="mutual exclusion (asymmetric-lock model)",
    )


def lock_server_impl_model(
    num_processes: int = 3,
    *,
    queue_threshold: int = 1,
    rounds: int = 1,
    mutant: Optional[str] = None,
) -> ModelSpec:
    """The lock-server grant queue of :mod:`repro.related.lock_server`.

    Every client runs the implementation's decision loop with the real read
    granularity: the ``next_ticket`` read, the ``grant`` read and the claim
    RMW are three separate transitions, so the checker explores exactly the
    stale-snapshot races the retry path is exposed to.  The claim CAS on
    ``next_ticket`` validates the snapshot the way the implementation does;
    the queue path is an unconditional FAO.  The invariant is the ticket
    invariant: at most one client holds (and it owns ticket ``grant``).

    ``mutant="blind-fast-path"`` replays the naive retry design the paper
    warns against: a client that *observed* an empty queue enters without
    the claim RMW.  Two clients sharing the observation double-grant — the
    checker reports the mutual-exclusion violation.
    """
    if num_processes < 1:
        raise ValueError("need at least one process")
    if queue_threshold < 0:
        raise ValueError("queue_threshold must be >= 0")
    if mutant not in (None, "blind-fast-path"):
        raise ValueError(f"unknown mutant {mutant!r}")
    blind = mutant == "blind-fast-path"

    initial_state = {
        "nxt": 0,
        "grant": 0,
        "cs": [],
        "procs": [
            {"pc": "c_read_next", "t": 0, "g": 0, "ticket": -1, "rounds": 0}
            for _ in range(num_processes)
        ],
    }

    def step(state: Dict, pid: int) -> bool:  # noqa: C901 - mirrors the impl
        me = state["procs"][pid]
        pc = me["pc"]
        if pc == "c_read_next":
            me["t"] = state["nxt"]
            me["pc"] = "c_read_grant"
        elif pc == "c_read_grant":
            me["g"] = state["grant"]
            me["pc"] = "c_decide"
        elif pc == "c_decide":
            depth = me["t"] - me["g"]
            if depth > queue_threshold:
                me["pc"] = "c_enqueue"
            elif depth == 0:
                me["pc"] = "c_blind_enter" if blind else "c_cas"
            else:
                # Retry mode: poll until the queue drains or overflows.  The
                # guard keeps the transition blocked while the *current*
                # state still reads as mid-depth, so polling does not spin
                # the checker through unchanged states.
                cur_depth = state["nxt"] - state["grant"]
                if 0 < cur_depth <= queue_threshold:
                    return False
                me["pc"] = "c_read_next"
        elif pc == "c_cas":
            # CAS(next_ticket: t -> t+1): the claim validates the snapshot.
            if state["nxt"] == me["t"]:
                state["nxt"] += 1
                me["ticket"] = me["t"]
                me["pc"] = "c_spin"
            else:
                me["pc"] = "c_read_next"
        elif pc == "c_blind_enter":  # blind-fast-path mutant only
            me["ticket"] = state["grant"]
            me["pc"] = "cs_enter"
        elif pc == "c_enqueue":
            me["ticket"] = state["nxt"]
            state["nxt"] += 1
            me["pc"] = "c_spin"
        elif pc == "c_spin":
            if state["grant"] != me["ticket"]:
                return False
            me["pc"] = "cs_enter"
        elif pc == "cs_enter":
            state["cs"].append(pid)
            me["pc"] = "cs_exit"
        elif pc == "cs_exit":
            state["cs"].remove(pid)
            me["pc"] = "c_rel"
        elif pc == "c_rel":
            state["grant"] += 1
            me["ticket"] = -1
            me["rounds"] += 1
            me["pc"] = "done" if me["rounds"] >= rounds else "c_read_next"
        else:  # pragma: no cover - "done" filtered by is_done
            return False
        return True

    def is_done(state: Dict, pid: int) -> bool:
        return state["procs"][pid]["pc"] == "done"

    def invariant(state: Dict) -> bool:
        return len(state["cs"]) <= 1

    variant = f",{mutant}" if mutant else ""
    return ModelSpec(
        name=f"lock_server_impl[P={num_processes},Q={queue_threshold}{variant}]",
        num_processes=num_processes,
        initial_state=initial_state,
        step=step,
        is_done=is_done,
        invariant=invariant,
        invariant_name="mutual exclusion (lock-server model)",
    )
