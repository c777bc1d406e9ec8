"""Tests for the lock-table service layer."""

from __future__ import annotations

import dataclasses
import gc
import weakref
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
from repro.rma.runtime_base import allocate_windows
from repro.rma.sim_runtime import SimRuntime
from repro.rma.window import WindowImage
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


def _eager_table(machine, scheme, num_locks, min_entry_words=0, params=None):
    """The table as built before entries were derived on use: every entry
    spec replicated up front, in a hand-built ``LockTableSpec(specs=...)``."""
    info = get_scheme(scheme)
    base = info.build(machine, **dict(params or {}))
    nranks = machine.num_processes
    stride = max(base.window_words, min_entry_words)
    rotated = [name for name in ("home_rank", "tail_rank") if name in _init_fields(base)]
    specs = [base] + [
        dataclasses.replace(base, base_offset=i * stride, **{name: i % nranks for name in rotated})
        for i in range(1, num_locks)
    ]
    return LockTableSpec(
        specs=tuple(specs), rw=info.rw, scheme=scheme, nranks=nranks,
        min_entry_words=min_entry_words,
    )


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
        # What the runtimes see: the windows allocate_windows fills from the
        # table's images hold the bytes the per-entry merge's dicts leave.
        tiled = allocate_windows(nprocs, table.window_words, table.init_window)
        merged = allocate_windows(
            nprocs, table.window_words, lambda rank: _reference_init(table, rank)
        )
        for rank in range(nprocs):
            assert tiled[rank]._mem.tobytes() == merged[rank]._mem.tobytes()
        if isinstance(table, LockTableSpec) and num_locks > 1:
            # Every registered scheme keeps the rebasing convention, so none
            # of them may have dropped to the per-entry merge.
            assert table._tiling is not None
            assert all(isinstance(table.init_window(r), WindowImage) for r in range(nprocs))

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
        with pytest.raises(ValueError):
            init.words[0] = 1
        runtime = SimRuntime(machine, window_words=table.window_words, seed=0)
        runtime.run(lambda ctx: None, window_init=table.init_window)
        assert {offset: runtime.window(3).read(offset) for offset in init} == dict(init)


@dataclass(frozen=True)
class _ToySpec(LockSpec):
    """A re-basable-looking spec whose init breaks the rebasing convention."""

    base_offset: int = 0
    #: "stuck": offsets ignore base_offset.  "clash": stuck, and the value
    #: differs per entry.  "spill": a second word lands in the next slab.
    #: "rank1": stuck on every rank but 0.  "huge": re-basable, but its word
    #: does not fit int64.
    mode: str = "stuck"

    @property
    def window_words(self):
        return self.base_offset + 2

    def init_window(self, rank):
        if self.mode == "spill":
            return {self.base_offset: 1, self.base_offset + 2: 2}
        if self.mode == "huge":
            return {self.base_offset: 2**63}
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
    """Specs that break the convention get the per-entry merge (or its error),
    on a derived table exactly as on the eagerly built one."""

    def _tables(self, machine, scheme, mode):
        built, _ = build_lock_table(machine, scheme, 4, params={"mode": mode})
        return built, _eager_table(machine, scheme, 4, params={"mode": mode})

    def test_stuck_offsets_are_merged_not_tiled(self, machine, toy_scheme):
        for table in self._tables(machine, toy_scheme, "stuck"):
            for rank in range(machine.num_processes):
                init = table.init_window(rank)
                assert init == {0: 7}  # not {0: 7, 2: 7, 4: 7, 6: 7}
                assert type(init) is dict  # the merge path stays a dict
            assert table._tiling is None

    def test_a_word_outside_int64_is_left_to_the_loads_error(self, machine, toy_scheme):
        """A tile cannot hold such a word; the merge path hands it to
        ``Window.load``, whose error names it."""
        built, _ = build_lock_table(machine, toy_scheme, 4, params={"mode": "huge"})
        assert built.init_window(0) == {0: 2**63, 2: 2**63, 4: 2**63, 6: 2**63}
        assert built._tiling is None
        with pytest.raises(OverflowError, match=f"value {2**63} does not fit"):
            allocate_windows(1, built.window_words, built.init_window)

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


# --------------------------------------------------------------------------- #
# Derived entries: a table from build_lock_table equals the eager one
# --------------------------------------------------------------------------- #


def _outcome(call):
    """``call()``'s value, or its error's type and message."""
    try:
        return ("ok", call())
    except ValueError as error:
        return ("error", str(error))


def _slot_history(table, machine):
    """Swap, re-home, reinstall and reset some of ``table``'s slots; what each
    step returned and what every slot then holds."""
    n, nranks = table.num_locks, machine.num_processes
    target = get_scheme("d-mcs").build(machine)
    steps = [
        _outcome(lambda: table.entry(3 % n).swap_spec(
            target, rw=False, scheme="d-mcs", nranks=nranks, version=1)),
        _outcome(lambda: table.entry(3 % n).swap_spec(target, version=1)),
        _outcome(lambda: table.entry(5 % n).swap_spec(target, home_rank=nranks - 1)),
        _outcome(lambda: table.entry(6 % n).reinstall(version=2)),
        _outcome(lambda: table.entry(6 % n).reinstall(version=2)),
    ]

    def slots():
        return [
            (e.spec, e.base_offset, e.stride, e.rw, e.scheme, e.version, e.nranks)
            for e in map(table.entry, range(n))
        ]

    swapped = slots()
    table.reset_entries()
    return steps, swapped, slots()


class TestDerivedEntries:
    @pytest.mark.parametrize("inflate", [0, 5])
    @pytest.mark.parametrize("num_locks", [1, 7, 64])
    @pytest.mark.parametrize("nprocs", [8, 16])
    @pytest.mark.parametrize("scheme", [s for s in TABLEABLE_SCHEMES if s != "striped-rw"])
    def test_a_derived_table_equals_the_eager_one(self, scheme, nprocs, num_locks, inflate):
        machine = xc30_like(nprocs, procs_per_node=4)
        words = max(get_scheme(s).build(machine).window_words for s in (scheme, "d-mcs"))
        floor = words + inflate if inflate else 0
        derived, _ = build_lock_table(machine, scheme, num_locks, min_entry_words=floor)
        eager = _eager_table(machine, scheme, num_locks, floor)
        assert derived.window_words == eager.window_words
        windows = [
            allocate_windows(nprocs, table.window_words, table.init_window)
            for table in (derived, eager)
        ]
        for rank in range(nprocs):
            assert windows[0][rank]._mem.tobytes() == windows[1][rank]._mem.tobytes()
        assert [derived.entry(i).spec for i in range(num_locks)] == list(eager.specs)
        assert _slot_history(derived, machine) == _slot_history(eager, machine)

    def test_entries_and_specs_are_made_on_first_touch(self, machine):
        table, _ = build_lock_table(machine, "d-mcs", 64)
        assert table._entries == {} and set(table.specs._memo) == {0}
        table.entry(17)
        assert set(table._entries) == {17} and set(table.specs._memo) == {0, 17}
        for rank in range(machine.num_processes):
            table.init_window(rank)
        # init_window derives each tile group's first and last entry only.
        groups = {group[0] for group in table._tiling} | {group[-1] for group in table._tiling}
        assert set(table.specs._memo) == {0, 17} | groups
        assert set(table._entries) == {17}
        with pytest.raises(ValueError, match="out of range"):
            table.entry(64)
        assert table.specs[-1] == table.specs[63]
        with pytest.raises(IndexError):
            table.specs[64]

    def test_a_table_is_freed_without_the_cycle_collector(self, machine):
        """Derived state holds no reference back to its table."""
        gc_was_enabled = gc.isenabled()
        gc.disable()
        try:
            table, _ = build_lock_table(machine, "rma-mcs", 64)
            for rank in range(machine.num_processes):
                table.init_window(rank)
            for index in (0, 5, 63):
                table.entry(index).swap_spec(table.specs[0], version=1)
            table.reset_entries()
            alive = weakref.ref(table)
            del table
            assert alive() is None
        finally:
            if gc_was_enabled:
                gc.enable()

    @pytest.mark.parametrize("scheme", ["rma-mcs", "d-mcs"])
    def test_a_traffic_point_derives_only_touched_entries(self, monkeypatch, scheme):
        """Count guard: a ``traffic-zipf`` point at P=64 derives one spec per
        entry its ranks touch plus each tile group's two init witnesses, and
        creates no slot for an entry nobody touches."""
        import repro.traffic.scenarios as scenarios
        from repro.bench.harness import run_lock_benchmark_detailed
        from repro.bench.workloads import LockBenchConfig
        from repro.topology.builder import cached_machine
        from repro.traffic.generators import generate_schedule

        # Shared tables are built once per process: start cold, so this run
        # builds (and is seen building) its own.
        scenarios._cached_table.cache_clear()
        machine = cached_machine(64, 8)
        tables = []

        def recording(*args, **kwargs):
            tables.append(build_lock_table(*args, **kwargs)[0])
            return tables[-1], tables[-1].rw

        spec_type = type(get_scheme(scheme).build(machine))
        derived = []
        replace = dataclasses.replace

        def counting(spec, **changes):
            if type(spec) is spec_type:
                derived.append(changes.get("base_offset"))
            return replace(spec, **changes)

        monkeypatch.setattr(scenarios, "build_lock_table", recording)
        monkeypatch.setattr(dataclasses, "replace", counting)
        config = LockBenchConfig(
            machine=machine, scheme=scheme, benchmark="traffic-zipf", iterations=12, fw=0.1
        )
        run_lock_benchmark_detailed(config)
        (table,) = tables
        scenario = scenarios.get_scenario("traffic-zipf")
        touched = {0}  # the harness probes entry 0's handle kind
        for rank in range(64):
            schedule = generate_schedule(scenario, config.seed, rank, 12, config.fw)
            touched.update(key % table.num_locks for key in schedule.lock_index.tolist())
        assert set(table._entries) <= touched
        assert len(derived) <= len(touched) + 2 * len(table._tiling)
        assert len(touched) < table.num_locks // 2  # the guard is not vacuous


# --------------------------------------------------------------------------- #
# Shared tables: a traffic point's table is built once per process, and what
# one run installs into its slots never reaches the next run.
# --------------------------------------------------------------------------- #

#: ``(benchmark, P, procs per node, iterations, fw, seed)``, all on fompi-spin:
#: a re-homing point, the pinned adaptive point (its swaps fire), a plain
#: point on the re-homing point's P, and the re-homing point again.
_RUN_ORDER = (
    ("scale-hot-rehome", 32, 8, 32, 0.0, 17),
    ("traffic-adaptive", 8, 4, 10, 0.2, 3),
    ("traffic-zipf", 32, 8, 12, 0.1, 17),
    ("scale-hot-rehome", 32, 8, 32, 0.0, 17),
)

_FRESH_PROCESS_POINT = """
import json, sys
import repro.scale
from repro.bench.campaign import run_result_sha
from repro.bench.harness import run_lock_benchmark_detailed
from repro.bench.workloads import LockBenchConfig
from repro.topology.builder import xc30_like

benchmark, procs, ppn, iterations, fw, seed = json.loads(sys.argv[1])
config = LockBenchConfig(
    machine=xc30_like(procs, procs_per_node=ppn), scheme="fompi-spin",
    benchmark=benchmark, iterations=iterations, fw=fw, seed=seed,
)
result, raw = run_lock_benchmark_detailed(config)
print(json.dumps([run_result_sha(raw), result.percentiles.get("swaps_total", 0.0)]))
"""


def _in_a_fresh_process(point):
    import json
    import os
    import subprocess
    import sys

    done = subprocess.run(
        [sys.executable, "-c", _FRESH_PROCESS_POINT, json.dumps(point)],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
    )
    assert done.returncode == 0, done.stderr
    return tuple(json.loads(done.stdout.splitlines()[-1]))


class TestTableOncePerProcess:
    def test_a_traffic_point_reuses_its_table(self):
        import repro.traffic.scenarios as scenarios
        from repro.bench.workloads import LockBenchConfig

        config = LockBenchConfig(
            machine=xc30_like(16, procs_per_node=4), scheme="d-mcs",
            benchmark="traffic-zipf", iterations=4,
        )
        first = scenarios._shared_table(config, 1024, 0)
        assert scenarios._shared_table(config, 1024, 0) is first
        assert scenarios._shared_table(config, 1024, 2 * first.specs.stride) is not first

    def test_run_order_cannot_leak_through_a_shared_table(self):
        import repro.scale  # noqa: F401 - registers the re-homing scenarios
        from repro.bench.campaign import run_result_sha
        from repro.bench.harness import run_lock_benchmark_detailed
        from repro.bench.workloads import LockBenchConfig

        fresh = {point: _in_a_fresh_process(point) for point in set(_RUN_ORDER)}
        rehome, adaptive = _RUN_ORDER[:2]
        assert fresh[rehome][1] > 0 and fresh[adaptive][1] > 0  # installs happen
        in_order = []
        for point in _RUN_ORDER:
            benchmark, procs, ppn, iterations, fw, seed = point
            config = LockBenchConfig(
                machine=xc30_like(procs, procs_per_node=ppn), scheme="fompi-spin",
                benchmark=benchmark, iterations=iterations, fw=fw, seed=seed,
            )
            result, raw = run_lock_benchmark_detailed(config)
            in_order.append(
                (run_result_sha(raw), result.percentiles.get("swaps_total", 0.0))
            )
        assert in_order == [fresh[point] for point in _RUN_ORDER]
