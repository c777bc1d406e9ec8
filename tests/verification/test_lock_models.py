"""The interleaving checker on its negative controls (it must find what is there)."""

from __future__ import annotations

from repro.verification.lock_models import (
    broken_test_and_set_model,
    build_checker,
    dining_deadlock_model,
)


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
