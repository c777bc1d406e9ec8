"""Model-checking the reduced lock models (the Section 4.4 analogue)."""

from __future__ import annotations


from repro.verification.lock_models import (
    broken_test_and_set_model,
    build_checker,
    dining_deadlock_model,
    mcs_model,
    rw_counter_model,
)


class TestMCSModel:
    def test_two_processes_single_round(self):
        result = build_checker(mcs_model(2, rounds=1)).check()
        assert result.ok, result.violation
        assert result.complete

    def test_three_processes_single_round(self):
        result = build_checker(mcs_model(3, rounds=1), max_states=400_000).check()
        assert result.ok, result.violation
        assert result.complete

    def test_two_processes_two_rounds(self):
        result = build_checker(mcs_model(2, rounds=2), max_states=400_000).check()
        assert result.ok, result.violation
        assert result.complete

    def test_model_metadata(self):
        model = mcs_model(2, rounds=1)
        assert model.num_processes == 2
        assert "mcs" in model.name
        assert model.invariant(model.initial_state)


class TestRWCounterModel:
    def test_readers_only(self):
        result = build_checker(rw_counter_model(num_readers=2, num_writers=0, t_r=3)).check()
        assert result.ok, result.violation
        assert result.complete

    def test_one_reader_one_writer(self):
        result = build_checker(rw_counter_model(num_readers=1, num_writers=1, t_r=2)).check()
        assert result.ok, result.violation
        assert result.complete

    def test_two_readers_one_writer(self):
        result = build_checker(
            rw_counter_model(num_readers=2, num_writers=1, t_r=2), max_states=400_000
        ).check()
        assert result.ok, result.violation
        assert result.complete

    def test_two_writers(self):
        result = build_checker(rw_counter_model(num_readers=0, num_writers=2, t_r=2)).check()
        assert result.ok, result.violation
        assert result.complete

    def test_reader_threshold_saturation_still_safe(self):
        # T_R = 1 saturates immediately and exercises the reset path.
        result = build_checker(
            rw_counter_model(num_readers=2, num_writers=1, t_r=1), max_states=400_000
        ).check()
        assert result.ok, result.violation
        assert result.complete

    def test_paper_spin_predicate_has_a_reachable_deadlock(self):
        """The literal Listing-9 spin condition can strand readers at exactly T_R.

        This is the liveness gap that motivated the implementation's stricter
        spin predicate; the checker exhibits it on a tiny configuration.
        """
        checker = build_checker(
            rw_counter_model(num_readers=2, num_writers=1, t_r=1, paper_spin_predicate=True),
            max_states=400_000,
        )
        result = checker.check()
        assert not result.ok
        assert result.violation.startswith("deadlock")

    def test_impl_spin_predicate_fixes_the_deadlock(self):
        result = build_checker(
            rw_counter_model(num_readers=2, num_writers=1, t_r=1, paper_spin_predicate=False),
            max_states=400_000,
        ).check()
        assert result.ok


class TestNegativeControls:
    def test_broken_lock_violation_is_detected(self):
        checker = build_checker(broken_test_and_set_model(2))
        result = checker.check()
        assert not result.ok
        assert "mutual exclusion" in result.violation

    def test_dining_philosophers_deadlock_is_detected(self):
        checker = build_checker(dining_deadlock_model())
        result = checker.check()
        assert not result.ok
        assert result.violation.startswith("deadlock")
