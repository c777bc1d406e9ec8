"""The model checker on the registered schemes' own step programs.

:mod:`repro.verification.explorer` explores every interleaving of the
``*_steps`` generators that the simulator runs, so these tests cover the code
itself rather than a transcription of it.  The mutants in
``tests/support.MUTANTS`` patch a known-unsafe variant into a real handle (or
into the queue node the MCS locks share); the explorer must find each one,
with a witness schedule that replays.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import pytest

from repro.api.registry import get_scheme, register_scheme, scheme_names, unregister
from repro.core.baselines import FompiSpinLockHandle, FompiSpinLockSpec
from repro.core.lock_base import LockHandle, LockSpec
from repro.rma.runtime_base import BARRIER
from repro.rma.ops import AtomicOp
from repro.topology.machine import Machine
from repro.verification import explorer as explorer_module
from repro.verification.explorer import PARAMS, Explorer, StateExplosionError

from tests.support import MUTANTS

SHAPES = {"single-node": Machine.single_node, "cluster": lambda procs: Machine.cluster(procs, 1)}
RW_SCHEMES = [name for name in scheme_names() if get_scheme(name).rw]


def explore(scheme, procs, shape, **kwargs):
    return Explorer(scheme, SHAPES[shape](procs), **kwargs).explore()


@pytest.mark.parametrize("shape", SHAPES)
@pytest.mark.parametrize("procs", [2, 3])
@pytest.mark.parametrize("scheme", scheme_names())
def test_every_registered_scheme_is_clean(scheme, procs, shape):
    result = explore(scheme, procs, shape)
    assert result.ok, result.violation
    assert result.states > procs  # the ranks really interleaved


@pytest.mark.parametrize("scheme", scheme_names())
def test_a_second_round_is_clean(scheme):
    result = explore(scheme, 2, "cluster", rounds=2)
    assert result.ok, result.violation


@pytest.mark.parametrize("shape", SHAPES)
@pytest.mark.parametrize("roles", ["www", "rrr", "rww"], ids=["writers-only", "readers-only", "two-writers"])
@pytest.mark.parametrize("scheme", RW_SCHEMES)
def test_rw_schemes_are_clean_in_every_role_mix(scheme, roles, shape):
    result = explore(scheme, 3, shape, roles=roles)
    assert result.ok, result.violation


def test_rma_rw_is_explored_at_small_thresholds():
    # The defaults the CLI uses too: a writer hands over to a writer while a
    # reader waits, then t_w = 2 switches back to readers.
    explorer = Explorer("rma-rw", Machine.single_node(3), roles="rww")
    assert PARAMS["rma-rw"] == {"t_r": 1, "t_w": 2}
    assert (explorer.spec.t_r, explorer.spec.t_w) == (1, 2)


def test_alock_locals_barge_against_a_remote_queue_head():
    # Two nodes of two: ranks 0 and 1 share the home node (the CAS fast
    # path), rank 2 queues remotely, rank 3 stays idle.
    explorer = Explorer("alock", Machine.cluster(2, 2), roles="www-")
    assert [explorer.spec.is_local(rank) for rank in range(3)] == [True, True, False]
    result = explorer.explore()
    assert result.ok, result.violation


@pytest.mark.parametrize("threshold", [0, 1, 3])
def test_lock_server_is_clean_across_its_policy_axis(threshold):
    # The server protocol never asks the machine, so one shape covers it.
    result = explore("lock-server", 3, "single-node", params={"queue_threshold": threshold})
    assert result.ok, result.violation


@pytest.mark.parametrize("name", sorted(MUTANTS))
def test_mutant_is_found_and_its_witness_replays(name, monkeypatch):
    mutant = MUTANTS[name]
    monkeypatch.setattr(mutant.handle, mutant.method, mutant.steps)
    explorer = Explorer(
        mutant.scheme, mutant.machine, params=mutant.params, crash=mutant.crash, roles=mutant.roles
    )
    result = explorer.explore()
    assert result.violation is not None and result.violation.startswith(mutant.finding)
    assert result.schedule
    # Fresh generators run through the witness reach the same violation, and
    # one transition short of it nothing is wrong yet.
    assert explorer.replay(result.schedule) == result.violation
    assert explorer.replay(result.witness) == result.violation
    assert Explorer(
        mutant.scheme, mutant.machine, params=mutant.params, crash=mutant.crash, roles=mutant.roles
    ).replay(result.schedule[:-1]) is None


def test_fifo_bypass_bound_holds_where_a_spinlock_exceeds_it():
    machine = Machine.single_node(3)
    ticket = Explorer("ticket", machine, rounds=2).explore()
    assert ticket.ok, ticket.violation
    assert ticket.bypass_bound == 2 and ticket.max_bypass == 2  # P - 1, reached
    spin = Explorer("fompi-spin", machine, rounds=2).explore()
    assert spin.ok and spin.bypass_bound is None  # no declared bound to gate
    assert spin.max_bypass == 3 > machine.num_processes - 1


def test_a_bound_below_p_minus_one_is_a_fairness_violation():
    register_scheme("explorer-tight-ticket", help="test-only", fairness_bound=lambda p: p - 2)(
        get_scheme("ticket").builder
    )
    try:
        result = Explorer("explorer-tight-ticket", Machine.single_node(3)).explore()
    finally:
        unregister("scheme", "explorer-tight-ticket")
    assert result.violation.startswith("[fairness]") and "declared bound 1" in result.violation


def test_two_explorations_are_identical():
    first, second = explore("rma-rw", 3, "cluster"), explore("rma-rw", 3, "cluster")
    assert first == second  # states, transitions, worst bypass, verdict


def _no_release_steps(self):
    return
    yield


def test_a_lost_release_is_a_deadlock(monkeypatch):
    monkeypatch.setattr(FompiSpinLockHandle, "release_steps", _no_release_steps)
    explorer = Explorer("fompi-spin", Machine.single_node(2))
    result = explorer.explore()
    assert result.violation.startswith("[deadlock]")
    assert "acquire_steps" in result.violation  # where the survivor waits
    assert explorer.replay(result.schedule) == result.violation


def _bad_request_steps(self):
    yield ("not a request",)


def test_a_bad_request_is_an_error_with_a_witness(monkeypatch):
    monkeypatch.setattr(FompiSpinLockHandle, "acquire_steps", _bad_request_steps)
    explorer = Explorer("fompi-spin", Machine.single_node(2))
    result = explorer.explore()
    assert result.violation.startswith("[error] rank 0: TypeError: rank 0 yielded ('not a request',)")
    assert result.schedule == () and explorer.replay(()) == result.violation


class _BlockingOnlyHandle(LockHandle):
    def __init__(self, ctx):
        self.ctx = ctx

    def acquire(self):
        pass

    def release(self):
        pass


@dataclass(frozen=True)
class _BlockingOnlySpec(LockSpec):
    window_words: int = 1

    def init_window(self, rank: int) -> Mapping[int, int]:
        return {}

    def make(self, ctx):
        return _BlockingOnlyHandle(ctx)


class _BarrierSpinHandle(FompiSpinLockHandle):
    """fompi-spin whose ranks in ``meet`` (all when None) wait at a barrier
    before their acquire."""

    meet = None

    def acquire_steps(self):
        if self.meet is None or self.ctx.rank in self.meet:
            yield (BARRIER,)
        yield from super().acquire_steps()


class _BarrierSpinSpec(FompiSpinLockSpec):
    def make(self, ctx):
        return _BarrierSpinHandle(self, ctx)


@pytest.fixture
def registered():
    names = []

    def register(name, spec):
        register_scheme(name, help="test-only")(lambda machine: spec(num_processes=machine.num_processes))
        names.append(name)

    yield register
    for name in names:
        unregister("scheme", name)


def test_a_blocking_only_handle_is_refused(registered):
    registered("explorer-blocking-lock", lambda num_processes: _BlockingOnlySpec())
    with pytest.raises(TypeError, match="acquire_steps"):  # a NotExplorable
        Explorer("explorer-blocking-lock", Machine.single_node(2))


def test_a_barrier_is_a_rendezvous(registered, monkeypatch):
    registered("explorer-barrier-lock", _BarrierSpinSpec)
    result = Explorer("explorer-barrier-lock", Machine.single_node(3)).explore()
    assert result.ok, result.violation
    # A barrier only rank 0 enters never opens: the others finish without it.
    monkeypatch.setattr(_BarrierSpinHandle, "meet", (0,))
    result = Explorer("explorer-barrier-lock", Machine.single_node(3)).explore()
    assert result.violation.startswith("[deadlock] no rank can move: rank 0 waits at barrier in ")
    assert result.violation.endswith("acquire_steps")


def test_the_state_cap_stops_an_exploration(monkeypatch):
    monkeypatch.setattr(explorer_module, "MAX_STATES", 10)
    with pytest.raises(StateExplosionError, match="budget of 10"):
        Explorer("ticket", Machine.single_node(3)).explore()


def test_the_state_key_sees_tuples_of_plain_values():
    plain, opaque = explorer_module._plain, explorer_module._OPAQUE
    assert plain((1, AtomicOp.SUM, (2, None), "x")) == (1, AtomicOp.SUM, (2, None), "x")
    # Not seen (the module docstring says so): objects, and mutable containers.
    assert plain((1, object())) is opaque and plain([1]) is opaque and plain((1, [2])) is opaque


def test_roles_are_checked():
    with pytest.raises(ValueError, match="no reader side"):
        Explorer("ticket", Machine.single_node(2), roles="rw")
    with pytest.raises(ValueError, match="one 'r', 'w' or '-' per rank"):
        Explorer("rma-rw", Machine.single_node(2), roles="r")
