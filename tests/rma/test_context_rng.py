"""A rank's draws: ``ctx.random()`` and ``ctx.rng`` read ``rank_rng``'s one stream.

``ctx.random()`` is served from blocks the process shares by ``(seed, rank)``
(:class:`repro.util.rng.StreamBlocks`); ``ctx.rng``, once taken, continues
the stream where the draws left it.  Two-cell ``SPIN`` rounds, written out
in ``SimRuntime._poll_steps``, are held to the reference's generic loop here
too: the counters poll (ARRIVE, DEPART) through them.
"""

from __future__ import annotations

import contextlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.util.rng as rng_module
from repro.bench.harness import run_lock_benchmark_detailed
from repro.bench.workloads import LockBenchConfig
from repro.fault import FaultPlan
from repro.rma.ops import RMACall
from repro.rma.runtime_base import BARRIER, COMPUTE, FLUSH, PUT, SPIN, RunObserver
from repro.rma.sim_runtime import SimRuntime
from repro.topology.builder import cached_machine
from repro.util.rng import DRAW_BLOCK, RANK_DRAW_BYTES, StreamBlocks, philox_at, rank_rng

from tests.reference import ReferenceRuntime

MACHINE = cached_machine(4, 4)
SEED = 13


@contextlib.contextmanager
def fresh_blocks(budget=RANK_DRAW_BYTES):
    """The process's rank streams replaced by an empty cache of ``budget`` bytes."""
    saved = rng_module._RANK_BLOCKS
    rng_module._RANK_BLOCKS = blocks = StreamBlocks(saved._start, budget)
    try:
        yield blocks
    finally:
        rng_module._RANK_BLOCKS = saved


@pytest.fixture
def built(monkeypatch):
    """Every rank-stream Philox generator built, as ``(seed, rank, draw)``,
    on an empty cache."""
    built = []

    def counting(seed, rank, draw):
        built.append((seed, rank, draw))
        return philox_at(seed, rank, draw)

    monkeypatch.setattr(rng_module, "philox_at", counting)
    with fresh_blocks():
        yield built


def test_a_drawing_program_gets_rank_rngs_stream():
    def program(ctx):
        first = ctx.rng.random(3).tolist()
        yield (COMPUTE, 1.0)
        return first + [ctx.rng.random(), ctx.random()]

    result = SimRuntime(MACHINE, window_words=1, seed=SEED).run(program)
    for rank, drawn in enumerate(result.returns):
        assert drawn == rank_rng(SEED, rank).random(5).tolist()


def _restarted_draws(draw):
    """Each rank's draws by ``draw(ctx)`` when rank 1 is killed mid-run and
    restarts."""
    drawn = {rank: [] for rank in range(MACHINE.num_processes)}

    def program(ctx):
        for _ in range(3):
            drawn[ctx.rank].append(draw(ctx))
            yield (COMPUTE, 2.0)
        return ctx.incarnation

    plan = FaultPlan.single(1, kill_us=3.0, restart_us=10.0)
    result = SimRuntime(MACHINE, window_words=1, seed=SEED, fault_plan=plan).run(program)
    assert result.returns[1] == 1  # the rank was killed and ran again
    assert len(drawn[1]) > 3
    return drawn


def test_a_restarted_rank_keeps_drawing_from_the_same_stream():
    """The context outlives a kill: the next incarnation continues the
    stream where the killed one left it, as when the generator was built
    with the context."""
    for rank, values in _restarted_draws(lambda ctx: ctx.rng.random()).items():
        assert values == rank_rng(SEED, rank).random(len(values)).tolist()


def test_a_restarted_rank_keeps_its_draws():
    """The same through ``ctx.random()``: the context keeps its reader."""
    for rank, values in _restarted_draws(lambda ctx: ctx.random()).items():
        assert values == rank_rng(SEED, rank).random(len(values)).tolist()


def test_a_run_that_never_draws_builds_no_generator(built):
    config = LockBenchConfig(machine=MACHINE, scheme="d-mcs", benchmark="traffic-zipf", iterations=4)
    run_lock_benchmark_detailed(config)
    assert built == []
    # A drawing run fills the shared blocks, one generator per rank; a
    # second drawing run in the process builds none.
    drawing = LockBenchConfig(machine=MACHINE, scheme="d-mcs", benchmark="wcsb", iterations=2)
    _, first = run_lock_benchmark_detailed(drawing)
    assert sorted(rank for _, rank, _ in built) == list(range(MACHINE.num_processes))
    built.clear()
    assert run_lock_benchmark_detailed(drawing)[1].returns == first.returns
    assert built == []


def test_two_runs_in_one_process_read_the_same_draws(built):
    def program(ctx):
        values = [ctx.random() for _ in range(DRAW_BLOCK + 5)]
        yield (COMPUTE, 1.0)
        return values

    runtime = SimRuntime(MACHINE, window_words=1, seed=SEED)
    first, second = runtime.run(program).returns, runtime.run(program).returns
    assert first == second == [rank_rng(SEED, rank).random(DRAW_BLOCK + 5).tolist() for rank in range(4)]
    assert {draw for _, _, draw in built} == {0}  # the second run was served from the blocks


@pytest.mark.parametrize("head", [0, 1, 2, DRAW_BLOCK - 1, DRAW_BLOCK, DRAW_BLOCK + 1, 2 * DRAW_BLOCK])
def test_a_draw_bound_before_the_generator_continues_from_it(head):
    """``draw = ctx.random`` bound before ``ctx.rng`` is taken, at every
    position in and at the ends of a block."""

    def program(ctx):
        draw = ctx.random
        values = [draw() for _ in range(head)]
        values += ctx.rng.integers(0, 1000, size=3).tolist()
        yield (COMPUTE, 1.0)
        return values + [draw(), ctx.random(), ctx.rng.random()]

    for rank, values in enumerate(SimRuntime(MACHINE, window_words=1, seed=SEED).run(program).returns):
        g = rank_rng(SEED, rank)
        assert values == [*g.random(head).tolist(), *g.integers(0, 1000, size=3).tolist(),
                          g.random(), g.random(), g.random()]


#: One call of a drawing program: ``(what, n)``.  ``random`` and ``bound``
#: are n draws through ``ctx.random`` (read at each call, or bound once at
#: the start); the rest are calls on ``ctx.rng``.
_CALLS = st.one_of(
    st.tuples(st.sampled_from(["random", "bound"]), st.integers(1, 2 * DRAW_BLOCK + 3)),
    st.tuples(st.just("rng.random()"), st.just(1)),
    st.tuples(st.sampled_from(["rng.random(size)", "rng.integers(size)"]), st.integers(0, 9)),
)


def _make_calls(source, generator, calls):
    """What ``calls`` return when made on ``source`` (a context, or a
    Generator) whose generator is ``generator()``."""
    out = []
    bound = source.random
    for what, n in calls:
        if what == "random":
            out.append([source.random() for _ in range(n)])
        elif what == "bound":
            out.append([bound() for _ in range(n)])
        elif what == "rng.random()":
            out.append(generator().random())
        elif what == "rng.random(size)":
            out.append(generator().random(n).tolist())
        else:
            out.append(generator().integers(0, 1000, size=n).tolist())
    return out


@given(
    calls=st.lists(_CALLS, max_size=6),
    seed=st.integers(0, 2**32 - 1),
    budget_blocks=st.integers(0, 4),
)
@settings(max_examples=60, deadline=None)
def test_draws_and_generator_calls_read_one_stream(calls, seed, budget_blocks):
    """Any interleaving of ``ctx.random()`` and ``ctx.rng`` calls equals one
    ``rank_rng`` Generator making the same calls: across block boundaries,
    past the byte budget, and again when the blocks are cached."""

    def program(ctx):
        values = _make_calls(ctx, lambda: ctx.rng, calls)
        yield (COMPUTE, 1.0)
        return values

    machine = cached_machine(2, 2)
    expected = [_make_calls(g, lambda g=g: g, calls) for g in (rank_rng(seed, 0), rank_rng(seed, 1))]
    with fresh_blocks(budget_blocks * DRAW_BLOCK * 8) as blocks:
        runtime = SimRuntime(machine, window_words=1, seed=seed)
        assert runtime.run(program).returns == expected
        assert runtime.run(program).returns == expected
        assert blocks.nbytes <= blocks.budget


# --------------------------------------------------------------------------- #
# The two-cell SPIN round
# --------------------------------------------------------------------------- #


class _Requests(RunObserver):
    def __init__(self):
        self.requests = []

    def on_request(self, rank, call, target, start_us, duration_us):
        self.requests.append((rank, call, target, start_us, duration_us))


def _two_cell_spin(runtime_cls, delay):
    """Rank 0 polls (ARRIVE, DEPART)-shaped cells on rank 1 until both are
    set; rank 1 sets them after ``delay`` µs.  Rank 0's rounds, as the
    gaps before each: 0.0 re-reads at once (a write raced the round), a
    positive gap is a park and a wake."""
    observer = _Requests()

    def program(ctx):
        yield (BARRIER,)
        if ctx.rank == 0:
            return (yield (SPIN, [(1, 0), (1, 1)], lambda values: values[0] + values[1] < 2))
        if ctx.rank == 1:
            yield (COMPUTE, delay)
            yield (PUT, 1, 1, 0)
            yield (PUT, 1, 1, 1)
            yield (FLUSH, 1)
        return None

    result = runtime_cls(cached_machine(2, 2), window_words=2, observer=observer).run(program)
    mine = [r for r in observer.requests if r[0] == 0]
    assert [r[1] for r in mine] == [RMACall.GET, RMACall.GET, RMACall.FLUSH] * (len(mine) // 3)
    gaps = [nxt[3] - (end[3] + end[4]) for end, nxt in zip(mine[2::3], mine[3::3])]
    return result, observer.requests, gaps


def test_two_cell_spin_rounds_equal_the_generic_loop():
    """Written out or not, a two-cell round issues the generic loop's
    requests (the reference's ``_poll``): re-reading after a raced write,
    parking when no write came."""
    seen = set()
    for delay in [0.0, 0.3, 0.6, 0.9, 1.2, 1.5, 2.0, 5.0, 50.0]:
        horizon, horizon_requests, gaps = _two_cell_spin(SimRuntime, delay)
        reference, reference_requests, _ = _two_cell_spin(ReferenceRuntime, delay)
        assert horizon_requests == reference_requests
        assert horizon.returns == reference.returns
        assert horizon.returns[0] == [1, 1]
        seen.update("re-read" if gap == 0.0 else "park" for gap in gaps)
    assert seen == {"re-read", "park"}
