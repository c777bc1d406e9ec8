"""Explicit-state interleaving model checker.

The paper verifies mutual exclusion and deadlock freedom of RMA-RW with SPIN
(Section 4.4).  SPIN is not available offline, so this module provides a
small native equivalent.

A *model* consists of ``num_processes`` identical (or per-process) step
functions operating on a shared state dictionary.  The per-process control
state (program counter, local variables) lives under ``state["procs"][pid]``
so the entire system state is one picklable value.  A step function

* returns ``True`` after performing exactly one atomic transition, or
* returns ``False`` without modifying the state when the process is currently
  *blocked* (e.g. a spin-wait whose condition is unmet).

The checker explores every reachable interleaving depth-first, de-duplicating
states, and reports

* **invariant violations** — a reachable state where a user-supplied safety
  predicate is false (e.g. two writers in the critical section), and
* **deadlocks** — a reachable state where no unfinished process can step.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

__all__ = [
    "CheckResult",
    "ModelChecker",
    "StateExplosionError",
]

#: A process step function: ``step(state, pid) -> moved`` (see module docstring).
StepFn = Callable[[Dict, int], bool]
#: Predicate deciding whether process ``pid`` has terminated in ``state``.
DoneFn = Callable[[Dict, int], bool]
#: Safety invariant over the shared state.
InvariantFn = Callable[[Dict], bool]


class StateExplosionError(RuntimeError):
    """The exploration exceeded the configured state budget."""


@dataclass
class CheckResult:
    """Outcome of an exhaustive exploration."""

    states_explored: int
    transitions: int
    complete: bool
    violation: Optional[str] = None
    witness: Optional[Dict] = None
    trace: List[Tuple[int, int]] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.violation is None


def _freeze(value):
    """Recursively convert a state value into a hashable fingerprint."""
    if isinstance(value, dict):
        return tuple(sorted((k, _freeze(v)) for k, v in value.items()))
    if isinstance(value, (list, tuple)):
        return tuple(_freeze(v) for v in value)
    if isinstance(value, set):
        return tuple(sorted(_freeze(v) for v in value))
    return value


class ModelChecker:
    """Exhaustive DFS over the interleavings of a small concurrent model."""

    def __init__(
        self,
        *,
        num_processes: int,
        step: StepFn,
        initial_state: Dict,
        is_done: DoneFn,
        invariant: Optional[InvariantFn] = None,
        invariant_name: str = "safety invariant",
        max_states: int = 500_000,
        check_deadlock: bool = True,
    ):
        if num_processes < 1:
            raise ValueError("num_processes must be >= 1")
        self.num_processes = num_processes
        self.step = step
        self.initial_state = initial_state
        self.is_done = is_done
        self.invariant = invariant
        self.invariant_name = invariant_name
        self.max_states = max_states
        self.check_deadlock = check_deadlock

    # ------------------------------------------------------------------ #

    def check(self) -> CheckResult:
        """Explore every reachable interleaving and return the outcome."""
        initial = copy.deepcopy(self.initial_state)
        seen = {_freeze(initial)}
        # Stack entries: (state, trace) where trace is a list of (pid, step_no).
        stack: List[Tuple[Dict, List[Tuple[int, int]]]] = [(initial, [])]
        explored = 0
        transitions = 0

        while stack:
            state, trace = stack.pop()
            explored += 1
            if explored > self.max_states:
                raise StateExplosionError(
                    f"exceeded the budget of {self.max_states} explored states"
                )

            if self.invariant is not None and not self.invariant(state):
                return CheckResult(
                    states_explored=explored,
                    transitions=transitions,
                    complete=False,
                    violation=f"{self.invariant_name} violated",
                    witness=state,
                    trace=trace,
                )

            moved_any = False
            all_done = True
            for pid in range(self.num_processes):
                if self.is_done(state, pid):
                    continue
                all_done = False
                candidate = copy.deepcopy(state)
                if not self.step(candidate, pid):
                    continue  # blocked in this state
                moved_any = True
                transitions += 1
                fp = _freeze(candidate)
                if fp in seen:
                    continue
                seen.add(fp)
                stack.append((candidate, trace + [(pid, len(trace))]))

            if self.check_deadlock and not all_done and not moved_any:
                return CheckResult(
                    states_explored=explored,
                    transitions=transitions,
                    complete=False,
                    violation="deadlock: unfinished processes exist but none can step",
                    witness=state,
                    trace=trace,
                )

        return CheckResult(
            states_explored=explored,
            transitions=transitions,
            complete=True,
            violation=None,
        )
