"""Unit and property tests for the machine hierarchy model."""

from __future__ import annotations

import dataclasses
import pickle
from math import prod

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.topology.machine import Machine


class TestConstruction:
    def test_single_node(self):
        m = Machine.single_node(8)
        assert m.n_levels == 1
        assert m.num_processes == 8
        assert m.num_elements(1) == 1
        assert m.ranks_per_element(1) == 8

    def test_cluster(self):
        m = Machine.cluster(nodes=4, procs_per_node=16)
        assert m.n_levels == 2
        assert m.num_processes == 64
        assert m.num_elements(1) == 1
        assert m.num_elements(2) == 4
        assert m.ranks_per_element(2) == 16

    def test_three_levels(self):
        m = Machine(fanouts=(2, 2), procs_per_leaf=6)
        assert m.n_levels == 3
        assert m.num_processes == 24
        assert m.num_elements(2) == 2
        assert m.num_elements(3) == 4

    def test_default_level_names(self):
        assert Machine.cluster(2, 2).level_names == ("machine", "node")
        assert Machine(fanouts=(2, 2), procs_per_leaf=2).level_names == ("machine", "rack", "node")
        assert Machine.single_node(4).level_names == ("machine",)

    def test_custom_level_names(self):
        m = Machine(fanouts=(2,), procs_per_leaf=4, level_names=("system", "blade"))
        assert m.level_names == ("system", "blade")

    def test_wrong_number_of_level_names_rejected(self):
        with pytest.raises(ValueError):
            Machine(fanouts=(2, 2), procs_per_leaf=4, level_names=("a", "b"))

    def test_invalid_procs_per_leaf(self):
        with pytest.raises(ValueError):
            Machine(fanouts=(2,), procs_per_leaf=0)

    def test_invalid_fanout(self):
        with pytest.raises(ValueError):
            Machine(fanouts=(0,), procs_per_leaf=2)

    def test_list_built_machine_is_its_tuple_built_twin(self):
        """Sequences and numpy integers are normalised to tuples of plain int."""
        twin = Machine(fanouts=(8,), procs_per_leaf=8)
        for other in (
            Machine(fanouts=[8], procs_per_leaf=8, level_names=["machine", "node"]),
            Machine(fanouts=np.array([8]), procs_per_leaf=np.int64(8)),
            Machine(fanouts=np.array([8]), procs_per_leaf=np.int32(8)),
        ):
            assert other == twin and hash(other) == hash(twin) and repr(other) == repr(twin)
            assert type(other.fanouts) is tuple and type(other.level_names) is tuple
            assert type(other.fanouts[0]) is int and type(other.procs_per_leaf) is int
            assert type(other.num_processes) is int and other.num_processes == 64

    def test_fractional_fanout_rejected(self):
        with pytest.raises(TypeError):
            Machine(fanouts=(2.5,), procs_per_leaf=4)

    def test_many_levels_generic_names(self):
        m = Machine(fanouts=(2, 2, 2, 2), procs_per_leaf=1)
        assert m.n_levels == 5
        assert m.level_names[0] == "level1"
        assert m.level_names[-1] == "level5"


class TestQueries:
    def test_levels_descriptions(self):
        m = Machine(fanouts=(2, 2), procs_per_leaf=6)
        levels = m.levels()
        assert [lvl.index for lvl in levels] == [1, 2, 3]
        assert [lvl.num_elements for lvl in levels] == [1, 2, 4]
        assert [lvl.ranks_per_element for lvl in levels] == [24, 12, 6]

    def test_element_of(self):
        m = Machine.cluster(nodes=4, procs_per_node=4)
        assert m.element_of(0, 2) == 0
        assert m.element_of(3, 2) == 0
        assert m.element_of(4, 2) == 1
        assert m.element_of(15, 2) == 3
        assert all(m.element_of(r, 1) == 0 for r in range(m.num_processes))

    def test_ranks_in_element(self):
        m = Machine.cluster(nodes=4, procs_per_node=4)
        assert list(m.ranks_in_element(2, 0)) == [0, 1, 2, 3]
        assert list(m.ranks_in_element(2, 3)) == [12, 13, 14, 15]
        assert list(m.ranks_in_element(1, 0)) == list(range(16))

    def test_first_rank_of_element(self):
        m = Machine(fanouts=(2, 2), procs_per_leaf=3)
        assert m.first_rank_of_element(3, 0) == 0
        assert m.first_rank_of_element(3, 2) == 6
        assert m.first_rank_of_element(2, 1) == 6
        assert m.first_rank_of_element(1, 0) == 0

    def test_node_of(self):
        m = Machine.cluster(nodes=3, procs_per_node=5)
        assert m.node_of(0) == 0
        assert m.node_of(4) == 0
        assert m.node_of(5) == 1
        assert m.node_of(14) == 2

    def test_common_level_same_rank(self):
        m = Machine.cluster(nodes=2, procs_per_node=4)
        assert m.common_level(3, 3) == m.n_levels + 1

    def test_common_level_same_node(self):
        m = Machine.cluster(nodes=2, procs_per_node=4)
        assert m.common_level(0, 3) == 2
        assert m.same_node(0, 3)

    def test_common_level_cross_node(self):
        m = Machine.cluster(nodes=2, procs_per_node=4)
        assert m.common_level(0, 4) == 1
        assert not m.same_node(0, 4)

    def test_common_level_three_levels(self):
        m = Machine(fanouts=(2, 2), procs_per_leaf=3)
        # ranks 0-2 node0, 3-5 node1 (rack 0); 6-8 node2, 9-11 node3 (rack 1)
        assert m.common_level(0, 1) == 3
        assert m.common_level(0, 3) == 2
        assert m.common_level(0, 6) == 1

    def test_common_level_is_symmetric(self):
        m = Machine(fanouts=(2, 2), procs_per_leaf=3)
        for a in range(m.num_processes):
            for b in range(m.num_processes):
                assert m.common_level(a, b) == m.common_level(b, a)

    def test_describe_mentions_process_count(self):
        m = Machine.cluster(nodes=2, procs_per_node=8)
        text = m.describe()
        assert "P=16" in text
        assert "node" in text


class TestValidation:
    def test_level_out_of_range(self):
        m = Machine.cluster(2, 2)
        with pytest.raises(ValueError):
            m.num_elements(0)
        with pytest.raises(ValueError):
            m.num_elements(3)

    def test_rank_out_of_range(self):
        m = Machine.cluster(2, 2)
        with pytest.raises(ValueError):
            m.element_of(4, 1)
        with pytest.raises(ValueError):
            m.element_of(-1, 1)
        with pytest.raises(ValueError):
            m.common_level(0, 99)

    def test_element_out_of_range(self):
        m = Machine.cluster(2, 2)
        with pytest.raises(ValueError):
            m.ranks_in_element(2, 2)


@st.composite
def machines(draw, max_levels=4, max_fanout=4, max_procs=6):
    n_extra_levels = draw(st.integers(min_value=0, max_value=max_levels - 1))
    fanouts = tuple(
        draw(st.integers(min_value=1, max_value=max_fanout)) for _ in range(n_extra_levels)
    )
    procs = draw(st.integers(min_value=1, max_value=max_procs))
    return Machine(fanouts=fanouts, procs_per_leaf=procs)


class TestProperties:
    @given(machines())
    @settings(max_examples=60, deadline=None)
    def test_elements_partition_ranks(self, machine: Machine):
        """At every level the elements partition the ranks exactly."""
        for level in range(1, machine.n_levels + 1):
            seen = []
            for element in range(machine.num_elements(level)):
                seen.extend(machine.ranks_in_element(level, element))
            assert sorted(seen) == list(range(machine.num_processes))

    @given(machines())
    @settings(max_examples=60, deadline=None)
    def test_element_of_consistent_with_ranks_in_element(self, machine: Machine):
        for level in range(1, machine.n_levels + 1):
            for rank in range(machine.num_processes):
                element = machine.element_of(rank, level)
                assert rank in machine.ranks_in_element(level, element)

    @given(machines())
    @settings(max_examples=60, deadline=None)
    def test_level_sizes_multiply(self, machine: Machine):
        for level in range(1, machine.n_levels + 1):
            assert machine.num_elements(level) * machine.ranks_per_element(level) == machine.num_processes

    @given(machines(), st.data())
    @settings(max_examples=60, deadline=None)
    def test_common_level_bounds(self, machine: Machine, data):
        a = data.draw(st.integers(min_value=0, max_value=machine.num_processes - 1))
        b = data.draw(st.integers(min_value=0, max_value=machine.num_processes - 1))
        level = machine.common_level(a, b)
        assert 1 <= level <= machine.n_levels + 1
        if a == b:
            assert level == machine.n_levels + 1
        else:
            assert machine.element_of(a, level if level <= machine.n_levels else machine.n_levels) == \
                machine.element_of(b, level if level <= machine.n_levels else machine.n_levels)

    @given(machines())
    @settings(max_examples=60, deadline=None)
    def test_first_rank_is_member_and_minimal(self, machine: Machine):
        for level in range(1, machine.n_levels + 1):
            for element in range(machine.num_elements(level)):
                ranks = machine.ranks_in_element(level, element)
                assert machine.first_rank_of_element(level, element) == min(ranks)


class TestAgainstDocstringDefinitions:
    """Every public query equals a reference written from the definitions.

    The reference uses only products and divisions over ``fanouts`` (the
    class docstring), so the tables ``Machine`` precomputes are checked
    against the definitions and not against themselves.
    """

    @given(machines(max_levels=4, max_fanout=5, max_procs=8))
    @settings(max_examples=80, deadline=None)
    def test_queries_match_reference(self, machine: Machine):
        fanouts, leaf = machine.fanouts, machine.procs_per_leaf
        n = len(fanouts) + 1
        p = prod(fanouts) * leaf

        def count(level):
            return prod(fanouts[: level - 1])

        def element(rank, level):
            return rank // (p // count(level))

        def common(a, b):
            if a == b:
                return n + 1
            return max(lvl for lvl in range(1, n + 1) if element(a, lvl) == element(b, lvl))

        assert machine.n_levels == n
        assert machine.num_processes == p
        for level in range(1, n + 1):
            assert machine.num_elements(level) == count(level)
            assert machine.ranks_per_element(level) == p // count(level)
            home = [element(rank, level) for rank in range(p)]
            assert [machine.element_of(rank, level) for rank in range(p)] == home
            for e in range(count(level)):
                members = [rank for rank in range(p) if home[rank] == e]
                assert list(machine.ranks_in_element(level, e)) == members
                assert machine.first_rank_of_element(level, e) == members[0]
        assert [dataclasses.astuple(lvl) for lvl in machine.levels()] == [
            (machine.level_names[i - 1], i, count(i), p // count(i)) for i in range(1, n + 1)
        ]
        # All pairs on small machines; on large ones every target from a
        # spread of origins (the reference is quadratic in P).
        origins = range(p) if p <= 96 else sorted({1, p // 2, p - 1, *range(0, p, p // 32)})
        for a in origins:
            assert machine.node_of(a) == element(a, n)
            for b in range(p):
                assert machine.common_level(a, b) == common(a, b)
                assert machine.same_node(a, b) == (element(a, n) == element(b, n))
        assert machine.describe().endswith(f"(P={p})")

    @given(machines(max_levels=4, max_fanout=5, max_procs=8))
    @settings(max_examples=40, deadline=None)
    def test_out_of_range_messages(self, machine: Machine):
        n, p = machine.n_levels, machine.num_processes
        for level in (0, n + 1):
            message = f"level {level} out of range 1..{n}"
            for call in (
                lambda: machine.num_elements(level),
                lambda: machine.ranks_per_element(level),
                lambda: machine.element_of(0, level),
                lambda: machine.ranks_in_element(level, 0),
                lambda: machine.first_rank_of_element(level, 0),
            ):
                with pytest.raises(ValueError) as err:
                    call()
                assert str(err.value) == message
        for rank in (-1, p):
            message = f"rank {rank} out of range 0..{p - 1}"
            for call in (
                lambda: machine.element_of(rank, 1),
                lambda: machine.node_of(rank),
                lambda: machine.common_level(rank, 0),
                lambda: machine.common_level(0, rank),
                lambda: machine.same_node(rank, 0),
                lambda: machine.same_node(0, rank),
            ):
                with pytest.raises(ValueError) as err:
                    call()
                assert str(err.value) == message
        count = machine.num_elements(n)
        for element in (-1, count):
            message = f"element {element} out of range for level {n} (has {count})"
            for call in (
                lambda: machine.ranks_in_element(n, element),
                lambda: machine.first_rank_of_element(n, element),
            ):
                with pytest.raises(ValueError) as err:
                    call()
                assert str(err.value) == message

    @given(machines(max_levels=4, max_fanout=5, max_procs=8))
    @settings(max_examples=40, deadline=None)
    def test_dataclass_behaviour_is_that_of_the_three_fields(self, machine: Machine):
        """The precomputed tables are rebuilt, never compared, hashed or printed."""
        names = [f.name for f in dataclasses.fields(machine)]
        assert names == ["fanouts", "procs_per_leaf", "level_names"]
        as_fields = (machine.fanouts, machine.procs_per_leaf, machine.level_names)
        assert dataclasses.astuple(machine) == as_fields
        assert hash(machine) == hash(as_fields)
        assert repr(machine) == (
            f"Machine(fanouts={machine.fanouts!r}, procs_per_leaf={machine.procs_per_leaf!r}, "
            f"level_names={machine.level_names!r})"
        )
        twin = Machine(*as_fields)
        assert twin == machine and twin is not machine
        restored = pickle.loads(pickle.dumps(machine))
        assert restored == machine and hash(restored) == hash(machine)
        assert restored.describe() == machine.describe()
        wider = dataclasses.replace(machine, procs_per_leaf=machine.procs_per_leaf + 1)
        assert wider != machine
        assert wider.num_processes == machine.num_elements(machine.n_levels) * wider.procs_per_leaf
        assert wider.ranks_per_element(wider.n_levels) == machine.procs_per_leaf + 1
