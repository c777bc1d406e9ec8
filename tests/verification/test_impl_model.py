"""Exhaustive checking of the implementation-derived RMA-RW model.

This is the repository's version of the paper's Section 4.4 SPIN experiment,
run against our own state machine: the model in
:mod:`repro.verification.impl_model` mirrors ``RMARWLockHandle``'s writer and
reader paths RMA-call-by-RMA-call, and the checker explores *every*
interleaving at P = 2-3.

Historical note, pinned by the mutant tests below: the ``racy-reset``
variant replays the seed port's original counter reset (stale-read
accumulates, flag cleared by any caller).  This model found that reset
unsafe — a reader's saturation reset racing a writer's mode switch violates
reader/writer exclusion, and the live chaos sweep independently reproduced a
companion deadlock — which is why
``DistributedCounterHandle.reset_counter`` now CAS-claims the depart fold
and only writers clear the WRITE flag.
"""

from __future__ import annotations

import pytest

from repro.verification.impl_model import rma_rw_impl_model
from repro.verification.lock_models import build_checker

MAX_STATES = 3_000_000


@pytest.fixture(scope="module")
def racy_reset_result():
    """One exploration of the racy-reset mutant, shared by its assertions."""
    model = rma_rw_impl_model(2, 1, mutant="racy-reset")
    return model, build_checker(model, max_states=MAX_STATES).check()


class TestFixedProtocolIsSafeAndLive:
    @pytest.mark.parametrize(
        "readers,writers",
        [(1, 1), (2, 1), (1, 2)],
        ids=["1r1w", "2r1w", "1r2w"],
    )
    def test_exclusion_and_deadlock_freedom(self, readers, writers):
        model = rma_rw_impl_model(readers, writers)
        result = build_checker(model, max_states=MAX_STATES).check()
        assert result.ok, f"{model.name}: {result.violation}"
        assert result.complete
        assert result.states_explored > 100  # the exploration was real

    def test_writers_only_round_trip(self):
        model = rma_rw_impl_model(0, 2, writer_rounds=2)
        result = build_checker(model, max_states=MAX_STATES).check()
        assert result.ok, result.violation

    def test_readers_only_round_trip(self):
        model = rma_rw_impl_model(2, 0, reader_rounds=2)
        result = build_checker(model, max_states=MAX_STATES).check()
        assert result.ok, result.violation

    def test_thresholds_default_from_the_real_spec(self):
        model = rma_rw_impl_model(1, 1, t_r=None, t_w=None)
        # The registry-built RMARWLockSpec defaults: T_R=64 and T_W=prod(T_L).
        assert "T_R=64" in model.name

    def test_model_constants_are_the_implementations(self):
        from repro.core import constants

        model = rma_rw_impl_model(1, 1)
        state = model.initial_state
        assert state["tail"] == constants.NULL_RANK
        # The writer's first two steps publish the implementation's sentinels.
        model.step(state, 1)
        model.step(state, 1)
        assert state["status"][1] == constants.STATUS_WAIT


class TestMutantsAreCaught:
    """The checker must find real bugs in this model, not vacuously pass."""

    def test_skipping_the_drain_wait_violates_exclusion(self):
        model = rma_rw_impl_model(2, 1, mutant="skip-drain")
        result = build_checker(model, max_states=MAX_STATES).check()
        assert not result.ok
        assert "exclusion" in result.violation
        assert result.trace  # a witness interleaving is reported

    def test_seed_ports_racy_reset_violates_exclusion(self, racy_reset_result):
        """The bug this model found in the original port (see module docstring)."""
        _, result = racy_reset_result
        assert not result.ok
        assert "exclusion" in result.violation

    def test_unknown_mutant_rejected(self):
        with pytest.raises(ValueError):
            rma_rw_impl_model(1, 1, mutant="nonsense")


class TestWitnessReplay:
    def test_mutant_witness_trace_replays_to_the_violation(self, racy_reset_result):
        """The reported trace is a genuine schedule, not just a label."""
        import copy

        model, result = racy_reset_result
        state = copy.deepcopy(model.initial_state)
        for pid, _ in result.trace:
            assert model.step(state, pid)
        assert not model.invariant(state)
        assert state["writers_in"] >= 1 and state["readers_in"] >= 1
