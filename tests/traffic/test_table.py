"""Tests for the lock-table service layer."""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api.registry import (
    ParamSpec,
    get_scheme,
    register_scheme,
    scheme_names,
    unregister,
)
from repro.core.lock_base import LockSpec
from repro.rma.sim_runtime import SimRuntime
from repro.topology.builder import xc30_like
from repro.traffic.table import (
    LockTableSpec,
    StripedLockTableSpec,
    as_lock_table,
    build_lock_table,
)

REPLICABLE_SCHEMES = (
    "fompi-spin",
    "fompi-rw",
    "d-mcs",
    "rma-mcs",
    "rma-rw",
    "ticket",
    "hbo",
    "cohort",
    "numa-rw",
)


@pytest.fixture
def machine():
    return xc30_like(8, procs_per_node=4)


class TestReplication:
    @pytest.mark.parametrize("scheme", REPLICABLE_SCHEMES)
    def test_every_builtin_scheme_forms_a_table(self, machine, scheme):
        table, is_rw = build_lock_table(machine, scheme, 8)
        assert isinstance(table, LockTableSpec)
        assert table.num_locks == 8
        stride = table.specs[0].window_words
        assert table.window_words == 8 * stride
        # Entry layouts must be disjoint: the merged init has no conflicts
        # (merge_inits raises on any) and every entry's words sit in its slab.
        for rank in range(machine.num_processes):
            table.init_window(rank)
        for index, spec in enumerate(table.specs):
            for offset in spec.init_window(0):
                assert index * stride <= offset < (index + 1) * stride

    def test_home_ranks_rotate_across_the_machine(self, machine):
        table, _ = build_lock_table(machine, "fompi-spin", 8)
        homes = [spec.home_rank for spec in table.specs]
        assert homes == [i % machine.num_processes for i in range(8)]

    def test_dmcs_tail_ranks_rotate(self, machine):
        table, _ = build_lock_table(machine, "d-mcs", 4)
        assert [spec.tail_rank for spec in table.specs] == [0, 1, 2, 3]

    def test_scheme_params_reach_every_entry(self, machine):
        table, _ = build_lock_table(machine, "rma-rw", 4, params={"t_r": 16})
        assert all(spec.t_r == 16 for spec in table.specs)

    def test_entries_are_independent_locks(self, machine):
        table, _ = build_lock_table(machine, "fompi-spin", 4)
        runtime = SimRuntime(machine, window_words=table.window_words + 4, seed=0)
        counter_base = table.window_words

        def program(ctx):
            handle = table.make(ctx)
            index = ctx.rank % 4
            lock = handle.lock(index)
            ctx.barrier()
            for _ in range(3):
                lock.acquire()
                ctx.accumulate(1, 0, counter_base + index)
                ctx.flush(0)
                ctx.compute(0.5)
                lock.release()
            ctx.barrier()

        runtime.run(program, window_init=table.init_window)
        window = runtime.window(0)
        counts = [window.read(counter_base + i) for i in range(4)]
        assert counts == [6, 6, 6, 6]  # 8 ranks, 2 per entry, 3 acquires each

    def test_out_of_range_entry_rejected(self, machine):
        table, _ = build_lock_table(machine, "fompi-spin", 4)
        runtime = SimRuntime(machine, window_words=table.window_words, seed=0)

        def program(ctx):
            handle = table.make(ctx)
            if ctx.rank == 0:
                with pytest.raises(ValueError, match="out of range"):
                    handle.lock(4)

        runtime.run(program, window_init=table.init_window)


class TestSchemeSlots:
    def _table(self, machine, scheme="fompi-spin", num_locks=4, **kw):
        from repro.control.policy import policy_min_entry_words
        from repro.traffic.scenarios import ADAPTIVE_POLICY

        kw.setdefault("min_entry_words", policy_min_entry_words(machine, ADAPTIVE_POLICY))
        table, _ = build_lock_table(machine, scheme, num_locks, **kw)
        return table

    def test_swap_rebases_and_rotates_the_new_spec(self, machine):
        from repro.api.registry import get_scheme

        table = self._table(machine, "fompi-spin")
        entry = table.entry(2)
        base = get_scheme("d-mcs").build(machine)
        placed = entry.swap_spec(base, rw=False, scheme="d-mcs")
        assert placed is not None
        assert entry.version == 1 and entry.scheme == "d-mcs"
        assert placed.base_offset == entry.base_offset
        assert placed.tail_rank == 2 % machine.num_processes

    def test_swap_is_idempotent_per_planned_version(self, machine):
        from repro.api.registry import get_scheme

        table = self._table(machine)
        entry = table.entry(1)
        base = get_scheme("d-mcs").build(machine)
        assert entry.swap_spec(base, version=1) is not None
        assert entry.swap_spec(base, version=1) is None  # another rank lost the race
        assert entry.version == 1

    def test_reset_restores_construction_state(self, machine):
        from repro.api.registry import get_scheme

        table = self._table(machine)
        original = table.entry(1).spec
        table.entry(1).swap_spec(get_scheme("d-mcs").build(machine), scheme="d-mcs")
        table.reset_entries()
        entry = table.entry(1)
        assert entry.version == 0
        assert entry.spec is original and entry.scheme == "fompi-spin"

    def test_oversized_spec_rejected_with_remedy(self, machine):
        from repro.api.registry import get_scheme

        table, _ = build_lock_table(machine, "fompi-spin", 4)  # no slab floor
        with pytest.raises(ValueError, match="min_entry_words"):
            table.entry(1).place(get_scheme("rma-rw").build(machine))

    def test_handles_rebuild_on_version_bump(self, machine):
        from repro.api.registry import get_scheme
        from repro.rma.sim_runtime import SimRuntime

        table = self._table(machine, "fompi-spin", num_locks=2)
        runtime = SimRuntime(machine, window_words=table.window_words, seed=0)
        kinds = {}

        def program(ctx):
            table.reset_entries()
            handle = table.make(ctx)
            before = type(handle.lock(1)).__name__
            ctx.barrier()
            entry = table.entry(1)
            placed = entry.place(get_scheme("d-mcs").build(machine), nranks=ctx.nranks)
            for offset in range(entry.base_offset, entry.base_offset + entry.stride):
                ctx.put(int(placed.init_window(ctx.rank).get(offset, 0)), ctx.rank, offset)
            ctx.flush(ctx.rank)
            entry.swap_spec(
                get_scheme("d-mcs").build(machine), rw=False, scheme="d-mcs",
                nranks=ctx.nranks, version=1,
            )
            ctx.barrier()
            after = type(handle.lock(1)).__name__
            lock = handle.lock(1)
            lock.acquire()
            ctx.compute(0.5)
            lock.release()
            ctx.barrier()
            if ctx.rank == 0:
                kinds["before"], kinds["after"] = before, after

        runtime.run(program, window_init=table.init_window)
        assert kinds["before"] != kinds["after"]

    def test_striped_entries_reject_swaps(self, machine):
        from repro.api.registry import get_scheme

        table, _ = build_lock_table(machine, "striped-rw", 16)
        with pytest.raises(ValueError, match="striped"):
            table.entry(3).swap_spec(get_scheme("d-mcs").build(machine))


class TestStripedTable:
    def test_striped_scheme_becomes_a_striped_table(self, machine):
        table, is_rw = build_lock_table(machine, "striped-rw", 64)
        assert isinstance(table, StripedLockTableSpec)
        assert is_rw and table.rw
        assert table.num_locks == 64
        # One lock word per rank: the window does not grow with num_locks.
        assert table.window_words == table.inner.window_words

    def test_entries_fold_onto_stripes(self, machine):
        table, _ = build_lock_table(machine, "striped-rw", 64)
        runtime = SimRuntime(machine, window_words=table.window_words + 2, seed=0)
        results = {}

        def program(ctx):
            handle = table.make(ctx)
            ctx.barrier()
            lock = handle.lock(ctx.rank + machine.num_processes)  # wraps mod P
            lock.acquire_write()
            ctx.compute(0.2)
            lock.release_write()
            ctx.barrier()
            return lock.volume

        result = runtime.run(program, window_init=table.init_window)
        results = result.returns
        assert results == list(range(machine.num_processes))


class TestErrorsAndCoercion:
    def test_single_lock_coerces_to_one_entry_table(self, machine):
        from repro.bench.harness import build_lock_spec
        from repro.bench.workloads import LockBenchConfig

        spec, is_rw = build_lock_spec(LockBenchConfig(machine=machine, scheme="rma-mcs"))
        table = as_lock_table(spec, is_rw)
        assert table.num_locks == 1
        assert as_lock_table(table, is_rw) is table  # idempotent

    def test_non_rebasable_spec_rejected(self, machine):
        class PlainSpec(LockSpec):
            @property
            def window_words(self):
                return 1

            def init_window(self, rank):
                return {}

            def make(self, ctx):  # pragma: no cover - never reached
                raise AssertionError

        @register_scheme("table-plain-lock")
        def _build(m):
            return PlainSpec()

        try:
            with pytest.raises(ValueError, match="non-dataclass spec"):
                build_lock_table(machine, "table-plain-lock", 4)
            # A single entry needs no re-basing and still works.
            table, _ = build_lock_table(machine, "table-plain-lock", 1)
            assert table.num_locks == 1
        finally:
            unregister("scheme", "table-plain-lock")

    def test_zero_locks_rejected(self, machine):
        with pytest.raises(ValueError, match="num_locks"):
            build_lock_table(machine, "fompi-spin", 0)


# --------------------------------------------------------------------------- #
# Tiled init_window: the fast path must equal the per-entry merge
# --------------------------------------------------------------------------- #


def _init_fields(spec):
    return {f.name for f in dataclasses.fields(spec) if f.init} if dataclasses.is_dataclass(spec) else set()


def _tableable_schemes():
    """Every registered scheme that can form a table: harness-capable with a
    ``base_offset`` field, plus the striped per-volume lock."""
    probe = xc30_like(8, procs_per_node=4)
    names = []
    for name in scheme_names():
        info = get_scheme(name)
        if name == "striped-rw" or (
            info.harness and "base_offset" in _init_fields(info.build(probe))
        ):
            names.append(name)
    return tuple(names)


TABLEABLE_SCHEMES = _tableable_schemes()


def _reference_init(table, rank):
    if isinstance(table, StripedLockTableSpec):
        return dict(table.inner.init_window(rank))
    return LockSpec.merge_inits(*(spec.init_window(rank) for spec in table.specs))


class TestTiledInit:
    def test_the_registry_sweep_is_not_vacuous(self):
        assert set(REPLICABLE_SCHEMES) | {"striped-rw", "alock", "lock-server"} <= set(
            TABLEABLE_SCHEMES
        )

    @pytest.mark.parametrize("inflate", [0, 5])
    @pytest.mark.parametrize("num_locks", [1, 7, 64])
    @pytest.mark.parametrize("nprocs", [8, 16])
    @pytest.mark.parametrize("scheme", TABLEABLE_SCHEMES)
    def test_table_init_equals_the_per_entry_merge(self, scheme, nprocs, num_locks, inflate):
        machine = xc30_like(nprocs, procs_per_node=4)
        words = get_scheme(scheme).build(machine).window_words
        table, _ = build_lock_table(
            machine, scheme, num_locks, min_entry_words=words + inflate if inflate else 0
        )
        for rank in range(nprocs):
            assert table.init_window(rank) == _reference_init(table, rank)
        if isinstance(table, LockTableSpec) and num_locks > 1:
            # Every registered scheme keeps the rebasing convention, so none
            # of them may have dropped to the per-entry merge.
            assert table._tiling is not None

    def test_entry_zero_keeps_the_builders_own_home(self, machine):
        """Entry 0 is the builder's spec as built; it is tiled with home 0's
        entries only when that is where the builder put it."""
        table, _ = build_lock_table(machine, "ticket", 20, params={"home_rank": 3})
        assert [spec.home_rank for spec in table.specs[:3]] == [3, 1, 2]
        for rank in range(machine.num_processes):
            assert table.init_window(rank) == _reference_init(table, rank)
        assert table._tiling is not None and table._tiling[0] == range(0, 1)

    @pytest.mark.parametrize("scheme", [s for s in TABLEABLE_SCHEMES if s != "striped-rw"])
    @given(data=st.data())
    @settings(max_examples=25, deadline=None)
    def test_registered_specs_keep_the_rebasing_convention(self, scheme, data):
        """``replace(spec, base_offset=b).init_window(r)`` is ``spec.init_window(r)``
        moved by ``b``, inside the slab — for any home the table may rotate to."""
        nprocs = data.draw(st.sampled_from([8, 16]))
        machine = xc30_like(nprocs, procs_per_node=4)
        spec = get_scheme(scheme).build(machine)
        home = data.draw(st.integers(0, nprocs - 1))
        rotated = {name: home for name in ("home_rank", "tail_rank") if name in _init_fields(spec)}
        spec = dataclasses.replace(spec, **rotated)
        shift = data.draw(st.integers(0, 1 << 20))
        rank = data.draw(st.integers(0, nprocs - 1))
        moved = dataclasses.replace(spec, base_offset=shift)
        assert moved.window_words == spec.window_words + shift
        assert dict(moved.init_window(rank)) == {
            offset + shift: value for offset, value in spec.init_window(rank).items()
        }
        assert all(shift <= offset < moved.window_words for offset in moved.init_window(rank))

    @pytest.mark.parametrize("scheme, homes", [("rma-mcs", 1), ("d-mcs", 8)])
    def test_one_evaluation_per_home_not_per_entry(self, machine, monkeypatch, scheme, homes):
        table, _ = build_lock_table(machine, scheme, 64)
        cls, calls = type(table.specs[0]), []
        original = cls.init_window

        def counting(self, rank):
            calls.append(rank)
            return original(self, rank)

        monkeypatch.setattr(cls, "init_window", counting)
        nranks = machine.num_processes
        for rank in range(nranks):
            table.init_window(rank)
        # One template per home and rank, plus one witness per tile built (a
        # home's entries read one way on the home rank, another elsewhere);
        # the per-entry merge makes 64 calls per rank.
        assert len(calls) <= nranks * homes + 2 * homes < nranks * 64

    def test_a_shared_tiled_init_is_read_only(self, machine):
        table, _ = build_lock_table(machine, "rma-mcs", 4)
        init = table.init_window(0)
        with pytest.raises(TypeError):
            init[0] = 1
        runtime = SimRuntime(machine, window_words=table.window_words, seed=0)
        runtime.run(lambda ctx: None, window_init=table.init_window)
        assert {offset: runtime.window(3).read(offset) for offset in init} == dict(init)


@dataclass(frozen=True)
class _ToySpec(LockSpec):
    """A re-basable-looking spec whose init breaks the rebasing convention."""

    base_offset: int = 0
    #: "stuck": offsets ignore base_offset.  "clash": stuck, and the value
    #: differs per entry.  "spill": a second word lands in the next slab.
    #: "rank1": stuck on every rank but 0.
    mode: str = "stuck"

    @property
    def window_words(self):
        return self.base_offset + 2

    def init_window(self, rank):
        if self.mode == "spill":
            return {self.base_offset: 1, self.base_offset + 2: 2}
        if self.mode == "rank1" and rank == 0:
            return {self.base_offset: -1}
        return {0: self.base_offset if self.mode == "clash" else 7}

    def make(self, ctx):  # pragma: no cover - never reached
        raise AssertionError


@pytest.fixture
def toy_scheme():
    @register_scheme("table-toy-lock", params=(ParamSpec("mode", str, "stuck"),))
    def _build(m, mode="stuck"):
        return _ToySpec(mode=mode)

    try:
        yield "table-toy-lock"
    finally:
        unregister("scheme", "table-toy-lock")


class TestNonRebasableTables:
    """Specs that break the convention get the per-entry merge (or its error)."""

    def _tables(self, machine, scheme, mode):
        built, _ = build_lock_table(machine, scheme, 4, params={"mode": mode})
        return built, LockTableSpec(specs=built.specs)

    def test_stuck_offsets_are_merged_not_tiled(self, machine, toy_scheme):
        for table in self._tables(machine, toy_scheme, "stuck"):
            for rank in range(machine.num_processes):
                assert table.init_window(rank) == {0: 7}  # not {0: 7, 2: 7, 4: 7, 6: 7}
            assert table._tiling is None

    def test_conflicting_entries_are_still_rejected(self, machine, toy_scheme):
        for mode in ("clash", "spill"):
            for table in self._tables(machine, toy_scheme, mode):
                with pytest.raises(ValueError, match="conflicting initial values"):
                    table.init_window(0)

    def test_a_convention_break_on_a_later_rank_falls_back_from_there(self, machine, toy_scheme):
        for table in self._tables(machine, toy_scheme, "rank1"):
            assert table.init_window(0) == {0: -1, 2: -1, 4: -1, 6: -1}
            assert table.init_window(1) == {0: 7}
            assert table.init_window(0) == {0: -1, 2: -1, 4: -1, 6: -1}
