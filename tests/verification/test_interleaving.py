"""Tests for the explicit-state interleaving model checker."""

from __future__ import annotations

import pytest

from repro.verification.interleaving import ModelChecker, StateExplosionError


def simple_counter_model(num_processes: int, rounds: int = 1):
    """Each process increments a shared counter `rounds` times (race-free by atomic step)."""
    initial = {"counter": 0, "procs": [{"pc": 0} for _ in range(num_processes)]}

    def step(state, pid):
        me = state["procs"][pid]
        if me["pc"] >= rounds:
            return False
        state["counter"] += 1
        me["pc"] += 1
        return True

    def is_done(state, pid):
        return state["procs"][pid]["pc"] >= rounds

    return initial, step, is_done


class TestBasicExploration:
    def test_terminates_and_reports_states(self):
        initial, step, is_done = simple_counter_model(2, rounds=2)
        checker = ModelChecker(
            num_processes=2, step=step, initial_state=initial, is_done=is_done,
            invariant=lambda s: s["counter"] <= 4,
        )
        result = checker.check()
        assert result.ok
        assert result.complete
        assert result.states_explored > 1
        assert result.transitions >= result.states_explored - 1

    def test_single_process(self):
        initial, step, is_done = simple_counter_model(1, rounds=3)
        result = ModelChecker(
            num_processes=1, step=step, initial_state=initial, is_done=is_done
        ).check()
        assert result.ok

    def test_invariant_violation_found(self):
        initial, step, is_done = simple_counter_model(2, rounds=2)
        checker = ModelChecker(
            num_processes=2, step=step, initial_state=initial, is_done=is_done,
            invariant=lambda s: s["counter"] <= 2,
            invariant_name="counter bound",
        )
        result = checker.check()
        assert not result.ok
        assert "counter bound" in result.violation
        assert result.witness is not None

    def test_deadlock_detection(self):
        # one process that blocks forever on a condition nobody establishes
        initial = {"flag": 0, "procs": [{"pc": 0}]}

        def step(state, pid):
            if state["flag"] == 0:
                return False
            state["procs"][pid]["pc"] = 1
            return True

        checker = ModelChecker(
            num_processes=1, step=step, initial_state=initial,
            is_done=lambda s, p: s["procs"][p]["pc"] == 1,
        )
        result = checker.check()
        assert not result.ok
        assert "deadlock" in result.violation

    def test_deadlock_check_can_be_disabled(self):
        initial = {"flag": 0, "procs": [{"pc": 0}]}

        def step(state, pid):
            return False

        result = ModelChecker(
            num_processes=1, step=step, initial_state=initial,
            is_done=lambda s, p: False, check_deadlock=False,
        ).check()
        assert result.ok

    def test_state_budget_enforced(self):
        initial, step, is_done = simple_counter_model(3, rounds=4)
        checker = ModelChecker(
            num_processes=3, step=step, initial_state=initial, is_done=is_done, max_states=5
        )
        with pytest.raises(StateExplosionError):
            checker.check()

    def test_initial_state_not_mutated(self):
        initial, step, is_done = simple_counter_model(2, rounds=1)
        ModelChecker(num_processes=2, step=step, initial_state=initial, is_done=is_done).check()
        assert initial["counter"] == 0
        assert all(p["pc"] == 0 for p in initial["procs"])

    def test_invalid_process_count(self):
        with pytest.raises(ValueError):
            ModelChecker(num_processes=0, step=lambda s, p: True, initial_state={}, is_done=lambda s, p: True)

    def test_explores_all_interleavings(self):
        """Two processes choosing distinct slots: all orderings must be visited."""
        initial = {"orders": [], "procs": [{"pc": 0} for _ in range(2)]}
        seen_orders = set()

        def step(state, pid):
            if state["procs"][pid]["pc"] == 1:
                return False
            state["orders"] = state["orders"] + [pid]
            state["procs"][pid]["pc"] = 1
            if len(state["orders"]) == 2:
                seen_orders.add(tuple(state["orders"]))
            return True

        ModelChecker(
            num_processes=2, step=step, initial_state=initial,
            is_done=lambda s, p: s["procs"][p]["pc"] == 1,
        ).check()
        assert seen_orders == {(0, 1), (1, 0)}
