"""Hand-written models for the interleaving checker (the PROMELA-model analogue).

Each model is a :class:`ModelSpec` bundling the pieces
:class:`~repro.verification.interleaving.ModelChecker` needs: the number of
processes, the initial shared state, a per-process step function, a
termination predicate and the safety invariant.  The registered schemes are
checked on their own step programs by :mod:`repro.verification.explorer`;
what stays here is what has no step program: the crash models of
:mod:`repro.verification.impl_model` build on :class:`ModelSpec`, and two
negative controls show the checker finds what it should:

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
]


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
