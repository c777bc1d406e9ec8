"""Shared pytest fixtures."""

from __future__ import annotations

import pytest

from repro.topology.machine import Machine

from tests.reference import registered
from tests.support import isolated_result_cache  # noqa: F401 - autouse fixture


@pytest.fixture
def small_cluster() -> Machine:
    """Two compute nodes with four ranks each (the workhorse of the lock tests)."""
    return Machine.cluster(nodes=2, procs_per_node=4)


@pytest.fixture
def medium_cluster() -> Machine:
    """Four compute nodes with four ranks each."""
    return Machine.cluster(nodes=4, procs_per_node=4)


@pytest.fixture
def three_level_machine() -> Machine:
    """The Figure 2 shape: 2 racks x 2 nodes x 3 ranks."""
    return Machine(fanouts=(2, 2), procs_per_leaf=3)


@pytest.fixture
def single_node() -> Machine:
    """A single shared element with six ranks (N = 1)."""
    return Machine.single_node(6)


@pytest.fixture
def reference():
    """The reference interpreter (``tests/reference.py``), registered as
    runtime ``reference`` for one test and unregistered afterwards."""
    with registered() as name:
        yield name
