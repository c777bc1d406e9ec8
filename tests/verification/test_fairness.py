"""Tests for the bounded-bypass (starvation) analysis."""

from __future__ import annotations

import pytest

from repro.verification.fairness import (
    BypassAnalyzer,
    mcs_fairness,
    tas_fairness,
    ticket_fairness,
)
from repro.verification.interleaving import StateExplosionError
from repro.verification.lock_models import build_checker


class TestAnalyzerBasics:
    def test_rejects_negative_bound(self):
        with pytest.raises(ValueError):
            BypassAnalyzer(ticket_fairness(2, 1), bound=-1)

    def test_rejects_zero_state_budget(self):
        with pytest.raises(ValueError):
            BypassAnalyzer(ticket_fairness(2, 1), bound=1, max_states=0)

    def test_state_budget_is_enforced(self):
        with pytest.raises(StateExplosionError):
            BypassAnalyzer(ticket_fairness(3, 2), bound=10, max_states=5).check()

    def test_single_process_never_bypassed(self):
        result = BypassAnalyzer(ticket_fairness(1, 3), bound=0).check()
        assert result.ok
        assert result.max_bypass_observed == 0


class TestTicketLockFairness:
    @pytest.mark.parametrize("nprocs", [2, 3])
    def test_fifo_bypass_bound_is_p_minus_one(self, nprocs):
        result = BypassAnalyzer(ticket_fairness(nprocs, rounds=2), bound=nprocs - 1).check()
        assert result.ok, result.violation
        assert result.complete
        assert result.max_bypass_observed <= nprocs - 1

    def test_bound_below_p_minus_one_is_violated(self):
        result = BypassAnalyzer(ticket_fairness(3, rounds=1), bound=1).check()
        assert not result.ok
        assert "bypassed" in result.violation
        assert result.trace  # a witness interleaving is reported

    def test_model_is_also_safe_and_deadlock_free(self):
        assert build_checker(ticket_fairness(3, rounds=1).model).check().ok


class TestMCSFairness:
    def test_queue_lock_respects_fifo_bound(self):
        result = BypassAnalyzer(mcs_fairness(3, rounds=1), bound=2).check()
        assert result.ok, result.violation
        assert result.max_bypass_observed <= 2

    def test_two_processes_two_rounds(self):
        result = BypassAnalyzer(mcs_fairness(2, rounds=2), bound=1).check()
        assert result.ok, result.violation


class TestBoundEdgeCases:
    """Direct coverage of the bound arithmetic (ISSUE 4 satellite)."""

    def test_bound_zero_accepted_and_satisfiable_without_contention(self):
        """bound=0 is a legal bound and holds when nobody ever overtakes."""
        result = BypassAnalyzer(ticket_fairness(1, rounds=2), bound=0).check()
        assert result.ok
        assert result.complete
        assert result.max_bypass_observed == 0

    def test_bound_zero_violated_at_first_overtake(self):
        result = BypassAnalyzer(ticket_fairness(2, rounds=1), bound=0).check()
        assert not result.ok
        assert "bound is 0" in result.violation

    def test_bound_exactly_at_worst_case_is_tight(self):
        """P-1 passes while P-2 fails: the FIFO bound is exact, not loose."""
        at_bound = BypassAnalyzer(ticket_fairness(3, rounds=2), bound=2).check()
        below_bound = BypassAnalyzer(ticket_fairness(3, rounds=2), bound=1).check()
        assert at_bound.ok
        assert at_bound.max_bypass_observed == 2
        assert not below_bound.ok

    def test_max_bypass_reported_even_when_ok(self):
        result = BypassAnalyzer(ticket_fairness(3, rounds=1), bound=10).check()
        assert result.ok
        assert result.max_bypass_observed == 2  # worst case still observed

    def test_violation_trace_replays_to_the_reported_bypass(self):
        """The witness schedule is executable on the model step function."""
        import copy

        spec = ticket_fairness(3, rounds=1)
        result = BypassAnalyzer(spec, bound=1).check()
        assert not result.ok and result.trace
        state = copy.deepcopy(spec.model.initial_state)
        for pid, _ in result.trace:
            assert spec.model.step(state, pid)

    def test_counter_resets_when_process_stops_waiting(self):
        """Bypass counts are per waiting episode, not cumulative across CSs."""
        # Two rounds: each wait episode is bounded by P-1 even though the
        # total foreign entries over the run is (P-1) * rounds.
        result = BypassAnalyzer(ticket_fairness(2, rounds=3), bound=1).check()
        assert result.ok
        assert result.max_bypass_observed == 1

    def test_huge_bound_never_fires_but_explores_fully(self):
        result = BypassAnalyzer(tas_fairness(2, rounds=2), bound=1000).check()
        assert result.ok
        assert result.complete
        assert 0 < result.max_bypass_observed <= 1000


class TestTestAndSetUnfairness:
    def test_bypass_exceeds_fifo_bound(self):
        """A TAS lock lets the same competitor win repeatedly (no FIFO order)."""
        spec = tas_fairness(num_processes=3, rounds=2)
        fifo = BypassAnalyzer(spec, bound=2).check()
        assert not fifo.ok
        assert "bypassed" in fifo.violation

    def test_large_enough_bound_passes_for_finite_rounds(self):
        """With finite rounds the worst case is (P-1) * rounds foreign entries."""
        spec = tas_fairness(num_processes=2, rounds=2)
        result = BypassAnalyzer(spec, bound=2).check()
        assert result.ok
        assert result.max_bypass_observed == 2

    def test_mutual_exclusion_still_holds(self):
        assert build_checker(tas_fairness(2, rounds=1).model, check_deadlock=False).check().ok
