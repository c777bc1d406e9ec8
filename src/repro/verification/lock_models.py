"""Reduced lock models for the interleaving checker (the PROMELA-model analogue).

Each model is a :class:`ModelSpec` bundling the pieces
:class:`~repro.verification.interleaving.ModelChecker` needs: the number of
processes, the initial shared state, a per-process step function, a
termination predicate and the safety invariant.  The models capture the
synchronization skeleton of the real protocols — the shared words, the atomic
read-modify-write steps and the spin waits — while abstracting away window
offsets and latencies, exactly like the paper's SPIN models abstract the MPI
implementation.

Provided models:

* :func:`mcs_model` — the MCS queue lock (the skeleton of D-MCS and of every
  DQ); invariant: at most one process in the critical section.
* :func:`rw_counter_model` — the distributed-counter reader/writer root
  protocol of RMA-RW (arrive/depart counter, WRITE flag, reader threshold
  ``T_R``, writer drain); invariant: never a writer together with a reader or
  another writer.
* :func:`broken_test_and_set_model` — a deliberately broken lock (non-atomic
  test-then-set) used to show the checker actually finds mutual-exclusion
  violations.
* :func:`dining_deadlock_model` — two processes taking two locks in opposite
  order, used to show the checker detects deadlocks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict

from repro.verification.interleaving import ModelChecker

__all__ = [
    "ModelSpec",
    "broken_test_and_set_model",
    "build_checker",
    "dining_deadlock_model",
    "mcs_model",
    "rw_counter_model",
]

#: Stand-in for the WRITE flag added to the arrive counter (must exceed any
#: reachable reader count and T_R in the model configurations).
_FLAG = 1000

#: Null rank inside the models.
_NIL = -1


@dataclass(frozen=True)
class ModelSpec:
    """Everything needed to model-check one protocol configuration."""

    name: str
    num_processes: int
    initial_state: Dict
    step: Callable[[Dict, int], bool]
    is_done: Callable[[Dict, int], bool]
    invariant: Callable[[Dict], bool]
    invariant_name: str


def build_checker(model: ModelSpec, *, max_states: int = 500_000, check_deadlock: bool = True) -> ModelChecker:
    """Create a :class:`ModelChecker` for ``model``."""
    return ModelChecker(
        num_processes=model.num_processes,
        step=model.step,
        initial_state=model.initial_state,
        is_done=model.is_done,
        invariant=model.invariant,
        invariant_name=model.invariant_name,
        max_states=max_states,
        check_deadlock=check_deadlock,
    )


# --------------------------------------------------------------------------- #
# MCS queue lock
# --------------------------------------------------------------------------- #

def mcs_model(num_processes: int = 2, rounds: int = 1) -> ModelSpec:
    """The MCS queue lock with ``num_processes`` each acquiring ``rounds`` times."""

    initial_state = {
        "tail": _NIL,
        "next": [_NIL] * num_processes,
        "wait": [0] * num_processes,
        "cs": [],
        "procs": [{"pc": "init", "pred": _NIL, "acquired": 0} for _ in range(num_processes)],
    }

    def step(state: Dict, pid: int) -> bool:
        me = state["procs"][pid]
        pc = me["pc"]
        if pc == "init":
            state["next"][pid] = _NIL
            state["wait"][pid] = 1
            me["pc"] = "swap"
        elif pc == "swap":
            me["pred"] = state["tail"]
            state["tail"] = pid
            me["pc"] = "cs_enter" if me["pred"] == _NIL else "link"
        elif pc == "link":
            state["next"][me["pred"]] = pid
            me["pc"] = "spin"
        elif pc == "spin":
            if state["wait"][pid] != 0:
                return False
            me["pc"] = "cs_enter"
        elif pc == "cs_enter":
            state["cs"].append(pid)
            me["pc"] = "cs_exit"
        elif pc == "cs_exit":
            state["cs"].remove(pid)
            me["pc"] = "rel_check"
        elif pc == "rel_check":
            me["pc"] = "notify" if state["next"][pid] != _NIL else "rel_cas"
        elif pc == "rel_cas":
            if state["tail"] == pid:
                state["tail"] = _NIL
                me["pc"] = "round_done"
            else:
                me["pc"] = "rel_wait"
        elif pc == "rel_wait":
            if state["next"][pid] == _NIL:
                return False
            me["pc"] = "notify"
        elif pc == "notify":
            state["wait"][state["next"][pid]] = 0
            me["pc"] = "round_done"
        elif pc == "round_done":
            me["acquired"] += 1
            me["pc"] = "done" if me["acquired"] >= rounds else "init"
        else:  # pragma: no cover - "done" is filtered by is_done
            return False
        return True

    def is_done(state: Dict, pid: int) -> bool:
        return state["procs"][pid]["pc"] == "done"

    def invariant(state: Dict) -> bool:
        return len(state["cs"]) <= 1

    return ModelSpec(
        name=f"mcs[{num_processes}x{rounds}]",
        num_processes=num_processes,
        initial_state=initial_state,
        step=step,
        is_done=is_done,
        invariant=invariant,
        invariant_name="mutual exclusion",
    )


# --------------------------------------------------------------------------- #
# Reader/writer counter protocol (the RMA-RW root)
# --------------------------------------------------------------------------- #

def rw_counter_model(
    num_readers: int = 2,
    num_writers: int = 1,
    t_r: int = 2,
    reader_rounds: int = 1,
    writer_rounds: int = 1,
    paper_spin_predicate: bool = False,
) -> ModelSpec:
    """The distributed-counter reader/writer protocol with one physical counter.

    Readers follow Listing 9/10 (arrive, threshold check, optional reset,
    back-off, spin); writers follow the root protocol with the writer queue
    abstracted to one atomic test-and-set word (``wlock``): set the WRITE
    flag, wait for the readers to drain, enter, and reset the counter on exit.
    Process ids ``0 .. num_readers-1`` are readers, the rest are writers.

    ``paper_spin_predicate`` selects the saturated-reader spin condition:
    ``False`` (default) spins while ``ARRIVE > T_R``, which is what
    :mod:`repro.core.rma_rw` implements; ``True`` spins while
    ``ARRIVE >= T_R`` exactly as written in Listing 9 of the paper.  The
    literal predicate admits a reachable state in which the counter rests at
    exactly ``T_R`` with every reader blocked and no writer left to reset it —
    the model checker finds that deadlock, which is precisely why the
    implementation deviates (see ``DistributedCounterHandle.spin_until_read_mode_steps``).
    """

    num_processes = num_readers + num_writers
    initial_state = {
        "arrive": 0,
        "depart": 0,
        "wlock": 0,
        "readers_in": 0,
        "writers_in": 0,
        "procs": [{"pc": "start", "prev": 0, "rounds": 0} for _ in range(num_processes)],
    }

    def is_reader(pid: int) -> bool:
        return pid < num_readers

    def step(state: Dict, pid: int) -> bool:
        me = state["procs"][pid]
        pc = me["pc"]

        if is_reader(pid):
            if pc == "start":
                me["pc"] = "r_arrive"
            elif pc == "r_arrive":
                me["prev"] = state["arrive"]
                state["arrive"] += 1
                me["pc"] = "r_check"
            elif pc == "r_check":
                if me["prev"] < t_r:
                    me["pc"] = "r_cs_enter"
                elif me["prev"] == t_r and state["wlock"] == 0 and state["arrive"] < _FLAG:
                    me["pc"] = "r_reset"
                else:
                    me["pc"] = "r_backoff_wait"
            elif pc == "r_reset":
                state["arrive"] -= state["depart"]
                state["depart"] = 0
                me["pc"] = "r_backoff_free"
            elif pc in ("r_backoff_wait", "r_backoff_free"):
                state["arrive"] -= 1
                me["pc"] = "r_spin" if pc == "r_backoff_wait" else "r_arrive"
            elif pc == "r_spin":
                saturated = state["arrive"] >= t_r if paper_spin_predicate else state["arrive"] > t_r
                if saturated:
                    return False
                me["pc"] = "r_arrive"
            elif pc == "r_cs_enter":
                state["readers_in"] += 1
                me["pc"] = "r_cs_exit"
            elif pc == "r_cs_exit":
                state["readers_in"] -= 1
                me["pc"] = "r_depart"
            elif pc == "r_depart":
                state["depart"] += 1
                me["rounds"] += 1
                me["pc"] = "done" if me["rounds"] >= reader_rounds else "r_arrive"
            else:  # pragma: no cover
                return False
            return True

        # Writer
        if pc == "start":
            me["pc"] = "w_lock"
        elif pc == "w_lock":
            if state["wlock"] != 0:
                return False
            state["wlock"] = 1
            me["pc"] = "w_flag"
        elif pc == "w_flag":
            state["arrive"] += _FLAG
            me["pc"] = "w_drain"
        elif pc == "w_drain":
            if state["arrive"] - _FLAG != state["depart"]:
                return False
            me["pc"] = "w_cs_enter"
        elif pc == "w_cs_enter":
            state["writers_in"] += 1
            me["pc"] = "w_cs_exit"
        elif pc == "w_cs_exit":
            state["writers_in"] -= 1
            me["pc"] = "w_reset"
        elif pc == "w_reset":
            state["arrive"] -= _FLAG + state["depart"]
            state["depart"] = 0
            me["pc"] = "w_unlock"
        elif pc == "w_unlock":
            state["wlock"] = 0
            me["rounds"] += 1
            me["pc"] = "done" if me["rounds"] >= writer_rounds else "w_lock"
        else:  # pragma: no cover
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

    variant = "paper" if paper_spin_predicate else "impl"
    return ModelSpec(
        name=f"rw_counter[r={num_readers},w={num_writers},T_R={t_r},{variant}]",
        num_processes=num_processes,
        initial_state=initial_state,
        step=step,
        is_done=is_done,
        invariant=invariant,
        invariant_name="reader/writer exclusion",
    )


# --------------------------------------------------------------------------- #
# Negative controls
# --------------------------------------------------------------------------- #

def broken_test_and_set_model(num_processes: int = 2) -> ModelSpec:
    """A non-atomic test-then-set lock: the checker must find the ME violation."""

    initial_state = {
        "lock": 0,
        "cs": [],
        "procs": [{"pc": "test"} for _ in range(num_processes)],
    }

    def step(state: Dict, pid: int) -> bool:
        me = state["procs"][pid]
        pc = me["pc"]
        if pc == "test":
            if state["lock"] != 0:
                return False
            me["pc"] = "set"  # the race: the test and the set are separate steps
        elif pc == "set":
            state["lock"] = 1
            me["pc"] = "cs_enter"
        elif pc == "cs_enter":
            state["cs"].append(pid)
            me["pc"] = "cs_exit"
        elif pc == "cs_exit":
            state["cs"].remove(pid)
            me["pc"] = "unlock"
        elif pc == "unlock":
            state["lock"] = 0
            me["pc"] = "done"
        else:  # pragma: no cover
            return False
        return True

    def is_done(state: Dict, pid: int) -> bool:
        return state["procs"][pid]["pc"] == "done"

    def invariant(state: Dict) -> bool:
        return len(state["cs"]) <= 1

    return ModelSpec(
        name=f"broken_tas[{num_processes}]",
        num_processes=num_processes,
        initial_state=initial_state,
        step=step,
        is_done=is_done,
        invariant=invariant,
        invariant_name="mutual exclusion",
    )


def dining_deadlock_model() -> ModelSpec:
    """Two processes taking two locks in opposite order: a guaranteed deadlock."""

    initial_state = {
        "lock_a": 0,
        "lock_b": 0,
        "procs": [{"pc": "take_first"} for _ in range(2)],
    }
    order = {0: ("lock_a", "lock_b"), 1: ("lock_b", "lock_a")}

    def step(state: Dict, pid: int) -> bool:
        me = state["procs"][pid]
        first, second = order[pid]
        pc = me["pc"]
        if pc == "take_first":
            if state[first] != 0:
                return False
            state[first] = 1
            me["pc"] = "take_second"
        elif pc == "take_second":
            if state[second] != 0:
                return False
            state[second] = 1
            me["pc"] = "release"
        elif pc == "release":
            state[first] = 0
            state[second] = 0
            me["pc"] = "done"
        else:  # pragma: no cover
            return False
        return True

    def is_done(state: Dict, pid: int) -> bool:
        return state["procs"][pid]["pc"] == "done"

    def invariant(state: Dict) -> bool:
        return True

    return ModelSpec(
        name="dining_deadlock",
        num_processes=2,
        initial_state=initial_state,
        step=step,
        is_done=is_done,
        invariant=invariant,
        invariant_name="trivially true",
    )
