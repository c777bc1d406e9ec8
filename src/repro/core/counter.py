"""Distributed Counter (DC) — Section 3.2.1 of the paper.

The DC tracks the number of active readers (and whether a writer holds the
lock) using several *physical counters*, one on every ``T_DC``-th rank.  Each
physical counter is a pair of 64-bit words:

* ``ARRIVE`` — incremented by a reader when it tries to enter the critical
  section.  One "bit" (a large added constant, :data:`~repro.core.constants.WRITE_FLAG`)
  marks the counter as being in WRITE mode.
* ``DEPART`` — incremented by a reader when it leaves the critical section.

Readers touch only their own physical counter ``c(p)``; a writer that wants
the lock must switch *every* physical counter to WRITE mode and wait until
the readers accounted by each counter have drained (arrivals equal
departures).  ``T_DC`` therefore trades reader latency/contention against
writer latency, which is the first axis of the paper's parameter space.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Mapping, Optional

from repro.core.constants import WRITE_FLAG
from repro.core.layout import LayoutAllocator
from repro.core.lock_base import blocking_form
from repro.rma.ops import AtomicOp
from repro.rma.runtime_base import (
    ACCUMULATE,
    CAS,
    FAO,
    FLUSH,
    GET,
    SPIN,
    SPIN_WHILE,
    ProcessContext,
    Steps,
)
from repro.topology.mapping import CounterPlacement

__all__ = ["DistributedCounterSpec", "DistributedCounterHandle"]


@dataclass(frozen=True)
class DistributedCounterSpec:
    """Window layout and placement of the distributed counter."""

    placement: CounterPlacement
    arrive_offset: int
    depart_offset: int

    @classmethod
    def allocate(cls, placement: CounterPlacement, allocator: LayoutAllocator) -> "DistributedCounterSpec":
        """Reserve the two counter words in ``allocator`` and return the spec."""
        arrive = allocator.field("dc_arrive")
        depart = allocator.field("dc_depart")
        return cls(placement=placement, arrive_offset=arrive, depart_offset=depart)

    @property
    def counter_ranks(self) -> List[int]:
        """Ranks hosting a physical counter."""
        return self.placement.owners()

    @property
    def num_counters(self) -> int:
        return self.placement.num_counters

    def counter_rank_of(self, rank: int) -> int:
        """``c(p)``: the physical counter used by ``rank``."""
        return self.placement.owner(rank)

    def init_window(self, rank: int) -> Mapping[int, int]:
        """Counters start at zero; no non-default initialization needed."""
        return {}

    def make(self, ctx: ProcessContext) -> "DistributedCounterHandle":
        return DistributedCounterHandle(self, ctx)


class DistributedCounterHandle:
    """Per-process operations on the distributed counter (Listings 6, 9, 10).

    Every operation is a ``*_steps`` generator (see "Step programs" in
    :mod:`repro.rma.runtime_base`); the blocking method of the same name
    without the suffix runs it through ``ctx.run_steps``.
    """

    def __init__(self, spec: DistributedCounterSpec, ctx: ProcessContext):
        self.spec = spec
        self.ctx = ctx
        self.my_counter = mine = spec.counter_rank_of(ctx.rank)
        # The reader path's requests never change: built once, not per acquire.
        self._arrive = (FAO, 1, mine, spec.arrive_offset, AtomicOp.SUM)
        self._backoff = (ACCUMULATE, -1, mine, spec.arrive_offset, AtomicOp.SUM)
        self._depart = (ACCUMULATE, 1, mine, spec.depart_offset, AtomicOp.SUM)
        self._flush_mine = (FLUSH, mine)

    # -- reader side ------------------------------------------------------- #

    def reader_arrive_steps(self) -> Steps:
        """Atomically increment the local arrival count; return the previous value."""
        prev = yield self._arrive
        yield self._flush_mine
        return prev

    def reader_backoff_steps(self) -> Steps:
        """Undo an arrival that exceeded ``T_R`` or raced with a writer (Listing 9, line 24)."""
        yield self._backoff
        yield self._flush_mine

    def reader_depart_steps(self) -> Steps:
        """Record that this reader left the critical section (Listing 10)."""
        yield self._depart
        yield self._flush_mine

    def read_my_arrivals_steps(self) -> Steps:
        """Current arrival count of this rank's physical counter."""
        value = yield (GET, self.my_counter, self.spec.arrive_offset)
        yield (FLUSH, self.my_counter)
        return value

    def spin_until_read_mode_steps(
        self, t_r: int, writer_waiting: Optional[Callable[[], Steps]] = None
    ) -> Steps:
        """Spin while the local counter is saturated or in WRITE mode.

        Listing 9 spins while ``ARRIVE >= T_R``.  We spin while ``ARRIVE > T_R``
        instead: with the paper's predicate the counter can come to rest at
        exactly ``T_R`` (every saturated reader backed off, every admitted
        reader departed, no writer left) with all remaining readers waiting
        forever, because the reset duty belongs to the next arriving reader and
        none will arrive.  Allowing a reader to retry when the counter sits at
        exactly ``T_R`` lets it re-execute the arrival path, observe
        ``prev == T_R`` and perform the reset (or defer to a waiting writer),
        which restores liveness without affecting mutual exclusion: the WRITE
        flag keeps the counter far above ``T_R`` whenever a writer is active.

        A second liveness corner needs an explicit *recovery* path: the reset
        of Listing 6 is not atomic, so a reader departure that lands between
        the reset's reads and its accumulates survives the reset as a non-zero
        ``DEPART`` residue, which keeps ``ARRIVE`` permanently above ``T_R``
        even though nobody is in the critical section.  Every reader of the
        counter would then wait forever (the reset duty belongs to an arriving
        reader, and none can arrive).  To stay live, a waiting reader that
        observes the counter saturated, in READ mode and with *no active
        readers* resets the counter itself — unless ``writer_waiting`` (a
        step generator function returning a bool) reports a queued writer, in
        which case it keeps waiting (the writer will take over and reset the
        counter when it hands the lock back to the readers).  Mutual
        exclusion is unaffected: the recovery reset never admits the reader
        directly (it still re-executes the arrival FAO) and, like every
        reader-initiated reset, it never touches the WRITE flag (see
        :meth:`reset_counter_steps`).
        """
        arrive_cell = (self.my_counter, self.spec.arrive_offset)
        depart_cell = (self.my_counter, self.spec.depart_offset)

        def keep_spinning(values) -> bool:
            arrive, depart = values
            if arrive <= t_r:
                return False            # back to READ mode: stop waiting
            if arrive >= WRITE_FLAG:
                return True             # WRITE mode: the writer will reset
            return self._active_readers(arrive, depart) > 0

        arrive, _depart = yield (SPIN, [arrive_cell, depart_cell], keep_spinning)
        if arrive <= t_r:
            return
        # Saturated, READ mode, nobody active: the counter is stranded.
        if writer_waiting is not None and (yield from writer_waiting()):
            # A writer is queued; it will switch the counter to WRITE mode
            # and reset it when handing the lock back to the readers.
            yield (SPIN_WHILE, self.my_counter, self.spec.arrive_offset, lambda v: v > t_r)
            return
        yield from self.reset_counter_steps(self.my_counter, clear_write_flag=False)

    # -- writer side ------------------------------------------------------- #

    def set_counters_to_write_steps(self) -> Steps:
        """Switch every physical counter to WRITE mode (Listing 6, top)."""
        for rank in self.spec.counter_ranks:
            yield (ACCUMULATE, WRITE_FLAG, rank, self.spec.arrive_offset, AtomicOp.SUM)
            yield (FLUSH, rank)

    def wait_readers_drained_steps(self) -> Steps:
        """Wait until every reader that arrived before WRITE mode has departed.

        The paper's correctness argument (Section 4.1, Reader & Writer) requires
        the writer to re-check each counter for active readers after switching
        the mode; this is that check.
        """
        for rank in self.spec.counter_ranks:
            yield (
                SPIN,
                [(rank, self.spec.arrive_offset), (rank, self.spec.depart_offset)],
                lambda values: self._active_readers(values[0], values[1]) > 0,
            )

    @staticmethod
    def _active_readers(arrive: int, depart: int) -> int:
        """Readers inside the CS according to one physical counter."""
        if arrive >= WRITE_FLAG:
            arrive -= WRITE_FLAG
        return arrive - depart

    def reset_counter_steps(self, rank: int, *, clear_write_flag: bool = True) -> Steps:
        """Fold the departures out of one physical counter (Listing 6, middle).

        The seed port performed the reset as two unconditional accumulates
        computed from a stale read, which the conformance layer's
        implementation-derived model checker
        (:func:`repro.verification.impl_model.rma_rw_impl_model`) and its
        chaos sweeps proved unsafe: two resets racing each other (or a reset
        racing a writer's mode switch) could subtract the same departures —
        or the WRITE flag — twice, leaving ``DEPART`` negative and ``ARRIVE``
        stranded just below :data:`~repro.core.constants.WRITE_FLAG`, which
        breaks the flag encoding for good (readers and writers then spin on
        ``active > 0`` forever, or a reader erases a writer's freshly-set
        flag and both enter the critical section).  Two rules close every
        interleaving the checker found:

        * **The depart fold is CAS-claimed.**  A resetter may subtract only
          the departures it atomically claimed by swinging ``DEPART`` from
          its observed value to zero; a concurrent departure or a competing
          reset makes the CAS fail and the loop re-reads.  Each departure is
          therefore folded into ``ARRIVE`` exactly once, system-wide.
        * **Only the writer clears the WRITE flag** (``clear_write_flag``,
          default True for the writer paths).  Reader-initiated resets — the
          first-to-saturate reset of Listing 9 and the stranded-counter
          recovery — pass False, so a reader that raced a writer's
          ``set_counters_to_write`` can no longer erase the flag out from
          under it.  At most one writer holds the root at a time, so the
          flag is set and cleared strictly alternately.

        Between the claim and the arrive fold the counter transiently
        *over*-counts active readers (departs already zeroed, arrivals not
        yet reduced), which only ever delays a spinning writer/reader — the
        safe direction.
        """
        arrive_offset = self.spec.arrive_offset
        depart_offset = self.spec.depart_offset
        while True:
            arr_cnt = yield (GET, rank, arrive_offset)
            dep_cnt = yield (GET, rank, depart_offset)
            yield (FLUSH, rank)
            claimed = yield (CAS, 0, dep_cnt, rank, depart_offset)
            yield (FLUSH, rank)
            if claimed != dep_cnt:
                continue  # a departure (or another reset) raced us; re-read
            sub_arr = -dep_cnt
            if clear_write_flag and arr_cnt >= WRITE_FLAG:
                sub_arr -= WRITE_FLAG
            if sub_arr:
                yield (ACCUMULATE, sub_arr, rank, arrive_offset, AtomicOp.SUM)
                yield (FLUSH, rank)
            return

    def reset_my_counter_steps(self) -> Steps:
        """Reset the counter associated with this rank (reader path, Listing 9).

        Reader resets never clear the WRITE flag — see :meth:`reset_counter_steps`.
        """
        return self.reset_counter_steps(self.my_counter, clear_write_flag=False)

    def reset_counters_steps(self) -> Steps:
        """Reset all physical counters (Listing 6, bottom): hand the lock to readers."""
        for rank in self.spec.counter_ranks:
            yield from self.reset_counter_steps(rank)

    reader_arrive = blocking_form("reader_arrive_steps")
    reader_backoff = blocking_form("reader_backoff_steps")
    reader_depart = blocking_form("reader_depart_steps")
    read_my_arrivals = blocking_form("read_my_arrivals_steps")
    set_counters_to_write = blocking_form("set_counters_to_write_steps")
    wait_readers_drained = blocking_form("wait_readers_drained_steps")
    reset_counter = blocking_form("reset_counter_steps")
    reset_my_counter = blocking_form("reset_my_counter_steps")
    reset_counters = blocking_form("reset_counters_steps")

    def spin_until_read_mode(self, t_r: int, writer_waiting: Optional[Callable[[], bool]] = None) -> None:
        """Blocking form of :meth:`spin_until_read_mode_steps`.

        ``writer_waiting`` is a blocking callable here, as it always was.
        """

        def probe() -> Steps:
            return writer_waiting()
            yield  # pragma: no cover - makes this function a generator

        self.ctx.run_steps(
            self.spin_until_read_mode_steps(t_r, probe if writer_waiting is not None else None)
        )

    # -- inspection --------------------------------------------------------- #

    def snapshot(self) -> Dict[int, Dict[str, int]]:
        """Raw arrive/depart values of every physical counter (for tests/debugging)."""
        ctx = self.ctx
        out: Dict[int, Dict[str, int]] = {}
        for rank in self.spec.counter_ranks:
            arrive = ctx.get(rank, self.spec.arrive_offset)
            depart = ctx.get(rank, self.spec.depart_offset)
            ctx.flush(rank)
            out[rank] = {"arrive": arrive, "depart": depart}
        return out
