"""The model checker with rank deaths and lease expiry (``Explorer(crash=...)``).

The recovery protocols of :mod:`repro.fault` are explored on their own step
programs: the search kills one rank at every moment the scenario allows,
answers the failure detector from its dead set, and lets lease time pass
only for a dead holder.  The clean schemes must stay clean, and the hazards
the recovery protocols exist for must be found, each with a witness (kills
and ticks included) that replays.
"""

from __future__ import annotations

import pytest

from repro.topology.machine import Machine
from repro.verification import explorer as explorer_module
from repro.verification.explorer import CRASHES, TICK, Explorer

SHAPES = {"single-node": Machine.single_node, "cluster": lambda procs: Machine.cluster(procs, 1)}


@pytest.mark.parametrize("shape", SHAPES)
@pytest.mark.parametrize(
    "scheme,crash,procs",
    [
        ("lease-lock", "holder-crash", 2),
        ("lease-lock", "holder-crash", 3),
        ("lease-lock", "waiter-crash", 2),
        ("lease-lock", "waiter-crash", 3),
        ("repair-mcs", "waiter-crash", 3),
    ],
)
def test_a_declared_crash_is_recovered_on_every_interleaving(scheme, crash, procs, shape):
    result = Explorer(scheme, SHAPES[shape](procs), crash=crash).explore()
    assert result.ok, f"{result.violation} after {result.witness}"
    # The kills add states: the crash-free search of the same setup is smaller.
    assert result.states > Explorer(scheme, SHAPES[shape](procs)).explore().states


@pytest.mark.parametrize("shape", SHAPES)
def test_the_racy_repair_walk_orphans_the_racer(shape):
    explorer = Explorer("repair-mcs-racy", SHAPES[shape](3), crash="waiter-crash")
    result = explorer.explore()
    # The dead waiter was the tail's predecessor of a racer that had swapped
    # in but not yet linked: the releaser drops the queue, the racer spins.
    assert result.violation == (
        "[deadlock] no rank can move: rank 2 waits at spin_while in QueueNode.join"
    )
    assert "kill 1" in result.schedule
    assert explorer.replay(result.schedule) == result.violation
    assert explorer.replay(result.witness) == result.violation


def test_the_racy_repair_walk_needs_a_third_rank():
    # With two ranks nobody can race behind the dead waiter.
    assert Explorer("repair-mcs-racy", Machine.single_node(2), crash="waiter-crash").explore().ok


@pytest.mark.parametrize("scheme,procs", [("ticket", 2), ("repair-mcs", 3)])
def test_a_dead_holder_without_a_lease_loses_the_lock(scheme, procs):
    # The lost-lock hazard: nothing ever frees a dead holder's lock.
    explorer = Explorer(scheme, Machine.single_node(procs), crash="holder-crash")
    result = explorer.explore()
    assert result.violation.startswith("[deadlock] no rank can move: rank ")
    assert result.schedule[-1].startswith("kill ") and TICK not in result.schedule
    assert explorer.replay(result.witness) == result.violation


@pytest.fixture
def grants(monkeypatch):
    """(time, crashed holds) of every grant the explorer's oracle sees."""
    seen = []
    acquired = explorer_module._Oracle.acquired

    def record(self, rank, mode, t):
        seen.append((t, tuple(sorted(self._crashed_holds))))
        acquired(self, rank, mode, t)

    monkeypatch.setattr(explorer_module._Oracle, "acquired", record)
    return seen


def test_a_lease_takeover_happens_only_after_a_tick(grants):
    result = Explorer("lease-lock", Machine.single_node(2), crash="holder-crash").explore()
    assert result.ok, result.violation
    # Every grant at time 0 found no crashed hold; the takeovers of rank 0's
    # and of rank 1's dead hold both came at the lease deadline (0 + 500 + 1).
    assert sorted(set(grants)) == [(0.0, ()), (501.0, (0,)), (501.0, (1,))]


def test_a_schedule_with_a_kill_and_a_tick_replays(grants):
    explorer = Explorer("lease-lock", Machine.single_node(2), crash="holder-crash")
    # Rank 0 acquires (GET, CAS) and dies in its critical section; rank 1
    # polls, the clock passes the lease, rank 1 takes over and releases.
    assert explorer.replay("0, 0, kill 0, 1, tick, 1, 1, 1, 1") is None
    assert grants == [(0.0, ()), (501.0, (0,))]


def test_a_dead_waiter_is_finished_not_deadlocked():
    # fompi-spin declares no recovery, but a waiter that dies parked on the
    # lock word is simply gone: the holder releases and the run ends.
    result = Explorer("fompi-spin", Machine.single_node(2), crash="waiter-crash").explore()
    assert result.ok, result.violation


def test_crash_free_explorations_keep_their_state_counts():
    # No detector, no clock, no kill: the counts the crash-free table prints.
    machine = Machine.single_node(3)
    assert [Explorer(name, machine).explore().states for name in ("lease-lock", "repair-mcs")] == [1119, 910]


def test_only_the_kill_scenarios_are_explored():
    assert CRASHES == ("holder-crash", "waiter-crash")
    with pytest.raises(ValueError, match="crash must be None or one of"):
        Explorer("lease-lock", Machine.single_node(2), crash="restart")
