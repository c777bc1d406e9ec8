"""The blocking lock API is derived from the ``*_steps`` generators — and kept.

Two compatibility promises of :mod:`repro.core.lock_base`:

* A handle that implements **only** the blocking ``acquire``/``release``
  (every third-party lock written before step programs: the
  ``examples/custom_lock.py`` lock, the toy below) still runs through
  ``run_lock_benchmark`` — thread-backed, through the one harness loop — and
  its fingerprint is what it was before step programs existed.
* Everything that was callable from a blocking rank program still is, on
  every registered runtime: ``acquire()``/``release()`` of the converted
  schemes, ``held()``/``reading()``/``writing()``, the public methods of
  ``DistributedCounterHandle``, ``InstrumentedLock`` and the DHT under its
  striped lock.
"""

from __future__ import annotations

import pathlib
import runpy
from dataclasses import dataclass, field
from typing import Mapping

import pytest

from repro.api import registry
from repro.api.registry import get_runtime, register_scheme, runtime_names
from repro.bench.campaign import run_result_sha
from repro.bench.harness import (
    build_lock_spec,
    make_lock_program,
    run_lock_benchmark_detailed,
)
from repro.bench.workloads import LockBenchConfig
from repro.core.dmcs import DMCSLockSpec
from repro.core.instrumentation import GrantLedgerSpec, InstrumentedLock
from repro.core.layout import LayoutAllocator
from repro.core.lock_base import LockHandle, LockSpec
from repro.core.rma_rw import RMARWLockSpec
from repro.dht.hashtable import DHTSpec
from repro.dht.striped_lock import StripedRWLockSpec
from repro.rma.ops import AtomicOp
from repro.rma.runtime_base import ACCUMULATE, FAO, FLUSH, SPIN_WHILE, is_step_program
from repro.topology.builder import cached_machine

from tests.support import rank_threads_started

EXAMPLES = pathlib.Path(__file__).resolve().parents[2] / "examples"

#: ``run_result_sha`` of tas-backoff (examples/custom_lock.py) at P=8, ppn=4,
#: 4 iterations, seed 3 — recorded on the commit before step programs.
TAS_BACKOFF_SHA = {
    "ecsb": "d9ba09ff0338a3756a1943bfbd26512331b39dd059603f0938dfe54b9524a309",
    "wcsb": "ad7f82eb78bda41e3aaf69e463289c61ac5ab9e21c603e4e46a070fd3fd77da4",
}


# --------------------------------------------------------------------------- #
# A toy ticket lock, written twice: blocking-only, and as steps
# --------------------------------------------------------------------------- #

@dataclass(frozen=True)
class ToyTicketSpec(LockSpec):
    num_processes: int
    steps: bool = False
    base_offset: int = 0
    next_offset: int = field(init=False, default=0)
    serving_offset: int = field(init=False, default=0)

    def __post_init__(self) -> None:
        alloc = LayoutAllocator(base=self.base_offset)
        object.__setattr__(self, "next_offset", alloc.field("toy_next"))
        object.__setattr__(self, "serving_offset", alloc.field("toy_serving"))

    @property
    def window_words(self) -> int:
        return self.serving_offset + 1

    def init_window(self, rank: int) -> Mapping[int, int]:
        return {}

    def make(self, ctx):
        return (ToyTicketSteps if self.steps else ToyTicketBlocking)(self, ctx)


class ToyTicketBlocking(LockHandle):
    """What a third party wrote before step programs: blocking calls only."""

    def __init__(self, spec, ctx):
        self.spec = spec
        self.ctx = ctx

    def acquire(self) -> None:
        ctx, spec = self.ctx, self.spec
        ticket = ctx.fao(1, 0, spec.next_offset, AtomicOp.SUM)
        ctx.flush(0)
        ctx.spin_while(0, spec.serving_offset, lambda s: s != ticket)

    def release(self) -> None:
        self.ctx.accumulate(1, 0, self.spec.serving_offset)
        self.ctx.flush(0)


class ToyTicketSteps(LockHandle):
    def __init__(self, spec, ctx):
        self.spec = spec
        self.ctx = ctx

    def acquire_steps(self):
        ticket = yield (FAO, 1, 0, self.spec.next_offset, AtomicOp.SUM)
        yield (FLUSH, 0)
        yield (SPIN_WHILE, 0, self.spec.serving_offset, lambda s: s != ticket)

    def release_steps(self):
        yield (ACCUMULATE, 1, 0, self.spec.serving_offset)
        yield (FLUSH, 0)


@pytest.fixture
def toy_schemes():
    for name, steps in (("toy-ticket-blocking", False), ("toy-ticket-steps", True)):
        register_scheme(name, help="test-only")(
            lambda machine, _steps=steps: ToyTicketSpec(machine.num_processes, steps=_steps)
        )
    try:
        yield
    finally:
        registry.unregister("scheme", "toy-ticket-blocking")
        registry.unregister("scheme", "toy-ticket-steps")


def _bench(scheme, workload="wcsb", scheduler=None):
    config = LockBenchConfig(
        machine=cached_machine(8, 4), scheme=scheme, benchmark=workload, iterations=4, seed=3
    )
    with rank_threads_started() as threads:
        _, raw = run_lock_benchmark_detailed(config, scheduler=scheduler)
    return run_result_sha(raw), len(threads)


class TestBlockingOnlyHandles:
    def test_handle_kinds_are_told_apart(self, toy_schemes):
        blocking = ToyTicketSpec(4).make(_Ctx())
        steps = ToyTicketSpec(4, steps=True).make(_Ctx())
        assert not blocking.implements_steps() and steps.implements_steps()
        for scheme, is_steps in (("toy-ticket-blocking", False), ("toy-ticket-steps", True)):
            config = LockBenchConfig(machine=cached_machine(8, 4), scheme=scheme, benchmark="ecsb")
            spec, is_rw = build_lock_spec(config)
            program = make_lock_program(config, spec, is_rw, spec.window_words)
            assert is_step_program(program) == is_steps

    @pytest.mark.parametrize("workload", ["ecsb", "wcsb"])
    def test_toy_runs_thread_backed_and_equals_its_step_twin(self, toy_schemes, workload):
        blocking_sha, blocking_threads = _bench("toy-ticket-blocking", workload)
        steps_sha, steps_threads = _bench("toy-ticket-steps", workload)
        assert (blocking_threads, steps_threads) == (8, 0)
        assert blocking_sha == steps_sha
        assert blocking_sha == _bench("toy-ticket-blocking", workload, "baseline")[0]
        assert blocking_sha == _bench("toy-ticket-steps", workload, "vector")[0]

    @pytest.mark.parametrize("workload", ["ecsb", "wcsb"])
    def test_example_custom_lock_fingerprint_is_unchanged(self, workload):
        runpy.run_path(str(EXAMPLES / "custom_lock.py"), run_name="custom_lock_example")
        try:
            sha, threads = _bench("tas-backoff", workload)
            assert threads == 8, "a blocking-only handle needs rank threads"
            assert sha == TAS_BACKOFF_SHA[workload]
            assert _bench("tas-backoff", workload, "baseline")[0] == sha
        finally:
            registry.unregister("scheme", "tas-backoff")

    def test_neither_form_implemented_is_an_error_not_a_recursion(self):
        class Nothing(LockHandle):
            def __init__(self, ctx):
                self.ctx = ctx

        def program(ctx):
            Nothing(ctx).acquire()

        runtime = get_runtime("horizon").factory(cached_machine(2, 2), window_words=2)
        with pytest.raises(NotImplementedError, match="neither acquire_steps.. nor acquire"):
            runtime.run(program)


class _Ctx:
    rank = 0
    nranks = 4


# --------------------------------------------------------------------------- #
# Blocking programs on every registered runtime
# --------------------------------------------------------------------------- #

PROCS = 4


def _blocking_everything_program(rw_spec, mcs_spec, ledger, striped, dht, scratch):
    def program(ctx):
        rw = rw_spec.make(ctx)
        mcs = InstrumentedLock(mcs_spec.make(ctx), ledger, ctx)
        stripes = striped.make(ctx)
        table = dht.make(ctx)
        ctx.barrier()
        # held() / reading() / writing() and plain acquire()/release().
        with rw.writing():
            ctx.accumulate(1, 0, scratch)
            ctx.flush(0)
        with rw.reading():
            ctx.get(0, scratch)
            ctx.flush(0)
        with rw.held():
            ctx.accumulate(1, 0, scratch)
            ctx.flush(0)
        rw.acquire_read()
        rw.release_read()
        with mcs.held():
            ctx.accumulate(1, 0, scratch)
            ctx.flush(0)
        # The DHT, each operation bracketed by its volume's striped lock.
        key = 1000 + ctx.rank
        volume = dht.home_rank(key)
        with stripes.writing(volume):
            assert table.insert(key, key * 2)
        with stripes.reading(volume):
            assert table.lookup(key) == key * 2
        ctx.barrier()
        # The distributed counter's public methods, one rank at a time.
        dc = rw.counter_handle
        seen = None
        if ctx.rank == 0:
            dc.reset_counter(dc.my_counter)  # fold out the readers above
            previous = dc.reader_arrive()
            arrivals = dc.read_my_arrivals()
            dc.reader_depart()
            dc.reset_my_counter()
            after_reset = dc.snapshot()[dc.my_counter]
            dc.reader_arrive()
            dc.reader_backoff()
            dc.set_counters_to_write()
            dc.wait_readers_drained()
            dc.reset_counters()
            dc.spin_until_read_mode(rw_spec.reader_threshold, writer_waiting=lambda: False)
            seen = (previous, arrivals, after_reset, dc.snapshot())
        ctx.barrier()
        return seen

    return program


@pytest.mark.parametrize("runtime_name", runtime_names())
def test_blocking_programs_keep_the_whole_api(runtime_name):
    machine = cached_machine(PROCS, 2)
    rw_spec = RMARWLockSpec(machine)
    mcs_spec = DMCSLockSpec(num_processes=PROCS, base_offset=rw_spec.window_words)
    ledger = GrantLedgerSpec(capacity=8, base_offset=mcs_spec.window_words)
    striped = StripedRWLockSpec(num_processes=PROCS, base_offset=ledger.window_words)
    dht = DHTSpec(num_processes=PROCS, table_size=4, heap_size=8, base_offset=striped.window_words)
    scratch = dht.window_words

    def window_init(rank):
        return LockSpec.merge_inits(
            rw_spec.init_window(rank), mcs_spec.init_window(rank), ledger.init_window(rank),
            striped.init_window(rank), dht.init_window(rank),
        )

    def run(name):
        runtime = get_runtime(name).factory(machine, window_words=scratch + 1, seed=2)
        program = _blocking_everything_program(rw_spec, mcs_spec, ledger, striped, dht, scratch)
        result = runtime.run(program, window_init=window_init)
        return runtime, result

    runtime, result = run(runtime_name)
    assert runtime.window(0).read(scratch) == 3 * PROCS
    assert sorted(ledger.read_grants_from_window(runtime.window(0))) == list(range(PROCS))
    previous, arrivals, after_reset, final = result.returns[0]
    assert (previous, arrivals) == (0, 1)
    assert after_reset == {"arrive": 0, "depart": 0}
    assert all(counter == {"arrive": 0, "depart": 0} for counter in final.values())
    if get_runtime(runtime_name).deterministic and runtime_name != "horizon":
        assert run_result_sha(result) == run_result_sha(run("horizon")[1])
