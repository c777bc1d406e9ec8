"""RMA-RW: the topology-aware distributed Reader-Writer lock (Section 3).

RMA-RW composes three distributed data structures:

* the **distributed counter (DC)** — physical arrive/depart counters placed on
  every ``T_DC``-th rank; readers only touch their own counter
  (:mod:`repro.core.counter`),
* the **distributed queues (DQs)** — one MCS-style queue per machine element
  at every level, ordering the writers of that element,
* the **distributed tree (DT)** — the DQs arranged to mirror the machine
  hierarchy; at its root writers synchronize with readers
  (:mod:`repro.core.tree`).

Three thresholds span the parameter space of Figure 1:

* ``T_DC`` — counter placement stride: more counters lower reader latency and
  contention, fewer counters lower writer latency.
* ``T_L,i`` — maximum consecutive lock passings inside one element of level
  ``i`` before the lock must move to another element (locality vs. fairness).
* ``T_R`` / ``T_W`` — maximum consecutive reader acquisitions per counter /
  writer hand-overs at the tree root before the other class gets the lock
  (reader vs. writer throughput).  By default ``T_W = prod_i T_L,i`` (Table 2).

Writers follow Listings 4/5 on levels ``N..2`` and Listings 7/8 at level 1;
readers follow Listings 9/10.  The writer additionally verifies that all
readers have drained after switching the counters to WRITE mode, as required
by the mutual-exclusion argument in Section 4.1.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Optional, Sequence, Tuple

from repro.api.registry import ParamSpec, register_scheme
from repro.core.constants import NULL_RANK, STATUS_ACQUIRE_PARENT, STATUS_MODE_CHANGE, STATUS_WAIT
from repro.core.counter import DistributedCounterHandle, DistributedCounterSpec
from repro.core.layout import LayoutAllocator
from repro.core.lock_base import RWLockHandle, RWLockSpec
from repro.core.tree import TreeLayout, normalize_locality_thresholds
from repro.rma.runtime_base import FLUSH, GET, PUT, SPIN_WHILE, ProcessContext, Steps
from repro.topology.machine import Machine
from repro.topology.mapping import CounterPlacement

__all__ = ["RMARWLockSpec", "RMARWLockHandle"]


@dataclass(frozen=True)
class RMARWLockSpec(RWLockSpec):
    """Shared description of one RMA-RW lock instance.

    Args:
        machine: The machine hierarchy the lock is aware of.
        t_dc: Distributed-counter stride in ranks (one physical counter every
            ``t_dc``-th rank).  Defaults to one counter per compute node, the
            paper's recommended balance (Section 6).
        t_l: Per-level locality thresholds ``T_L,i`` (sequence of length ``N``
            or ``N - 1``, or a ``{level: value}`` mapping).
        t_r: Reader threshold ``T_R`` — consecutive reader acquisitions per
            physical counter before readers yield to a waiting writer.
        t_w: Writer threshold ``T_W`` — consecutive writer hand-overs at the
            tree root before the lock is offered to the readers.  Defaults to
            ``prod_i T_L,i`` as in Table 2.
        base_offset: First window word used by the lock.
    """

    machine: Machine
    t_dc: Optional[int] = None
    t_l: Optional[Sequence[int]] = None
    t_r: int = 64
    t_w: Optional[int] = None
    base_offset: int = 0
    layout: TreeLayout = field(init=False, default=None)  # type: ignore[assignment]
    counter: DistributedCounterSpec = field(init=False, default=None)  # type: ignore[assignment]
    thresholds: Tuple[int, ...] = field(init=False, default=())
    writer_threshold: int = field(init=False, default=0)

    def __post_init__(self) -> None:
        machine = self.machine
        if self.t_r < 1:
            raise ValueError(f"T_R must be >= 1, got {self.t_r}")
        t_dc = self.t_dc
        if t_dc is None:
            t_dc = min(machine.ranks_per_element(machine.n_levels), machine.num_processes)
        if t_dc < 1:
            raise ValueError(f"T_DC must be >= 1, got {t_dc}")
        object.__setattr__(self, "t_dc", int(t_dc))

        alloc = LayoutAllocator(base=self.base_offset)
        layout = TreeLayout.allocate(machine, alloc)
        placement = CounterPlacement(t_dc=int(t_dc), num_processes=machine.num_processes)
        counter = DistributedCounterSpec.allocate(placement, alloc)
        thresholds = normalize_locality_thresholds(machine, self.t_l)

        t_w = self.t_w
        if t_w is None:
            t_w = 1
            for value in thresholds:
                t_w *= min(value, 1 << 20)  # keep the default product finite
        if t_w < 1:
            raise ValueError(f"T_W must be >= 1, got {t_w}")

        object.__setattr__(self, "layout", layout)
        object.__setattr__(self, "counter", counter)
        object.__setattr__(self, "thresholds", thresholds)
        object.__setattr__(self, "writer_threshold", int(t_w))

    # ------------------------------------------------------------------ #
    # Spec API
    # ------------------------------------------------------------------ #

    @property
    def window_words(self) -> int:
        return max(self.layout.max_offset, self.counter.depart_offset) + 1

    def locality_threshold(self, level: int) -> int:
        """``T_L,level``."""
        return self.thresholds[level - 1]

    @property
    def reader_threshold(self) -> int:
        """``T_R``."""
        return self.t_r

    def init_window(self, rank: int) -> Mapping[int, int]:
        values = dict(self.layout.init_window(rank))
        values.update(self.counter.init_window(rank))
        return values

    def make(self, ctx: ProcessContext) -> "RMARWLockHandle":
        return RMARWLockHandle(self, ctx)


class RMARWLockHandle(RWLockHandle):
    """Per-process RMA-RW handle implementing Listings 4-10."""

    def __init__(self, spec: RMARWLockSpec, ctx: ProcessContext):
        if ctx.nranks != spec.machine.num_processes:
            raise ValueError("lock spec and runtime disagree on the number of ranks")
        self.spec = spec
        self.ctx = ctx
        self._n = spec.machine.n_levels
        self._dc = DistributedCounterHandle(spec.counter, ctx)
        self._queue_nodes = spec.layout.queue_nodes(ctx.rank)

    # ------------------------------------------------------------------ #
    # Writer acquire (Listings 4 and 7)
    # ------------------------------------------------------------------ #

    def acquire_write_steps(self) -> Steps:
        """Enter the critical section as a writer."""
        if self._n == 1:
            return self._writer_acquire_root()
        return self._writer_acquire_level(self._n)

    def _writer_acquire_level(self, level: int) -> Steps:
        """Listing 4: acquire the DQ at ``level`` (2 <= level <= N) and maybe climb."""
        q = self._queue_nodes[level - 1]

        yield q.clear_next
        yield q.set_wait
        yield q.flush_node
        pred = yield q.enqueue
        yield q.flush_tail
        if pred != NULL_RANK:
            yield (PUT, q.node, pred, q.next_off)
            yield (FLUSH, pred)
            status = yield (SPIN_WHILE, q.node, q.status_off, lambda s: s == STATUS_WAIT)
            if status != STATUS_ACQUIRE_PARENT:
                # T_L was not reached: the lock is passed to us directly.
                return
        # Start acquiring the next level of the tree.
        yield q.set_start
        yield q.flush_node
        if level > 2:
            yield from self._writer_acquire_level(level - 1)
        else:
            yield from self._writer_acquire_root()

    def _writer_acquire_root(self) -> Steps:
        """Listing 7: acquire the level-1 DQ and synchronize with the readers."""
        q = self._queue_nodes[0]

        yield q.clear_next
        yield q.set_wait
        yield q.flush_node
        pred = yield q.enqueue
        yield q.flush_tail

        if pred != NULL_RANK:
            yield (PUT, q.node, pred, q.next_off)
            yield (FLUSH, pred)
            curr_stat = yield (SPIN_WHILE, q.node, q.status_off, lambda s: s == STATUS_WAIT)
            if curr_stat == STATUS_MODE_CHANGE:
                # The readers have the lock now; win it back.
                yield from self._dc.set_counters_to_write_steps()
                yield from self._dc.wait_readers_drained_steps()
                yield q.set_start
                yield q.flush_node
            # Otherwise the lock was passed in WRITE mode with its count intact.
        else:
            # No predecessor: take the lock from the readers.
            yield from self._dc.set_counters_to_write_steps()
            yield from self._dc.wait_readers_drained_steps()
            yield q.set_start
            yield q.flush_node

    # ------------------------------------------------------------------ #
    # Writer release (Listings 5 and 8)
    # ------------------------------------------------------------------ #

    def release_write_steps(self) -> Steps:
        """Leave the critical section as a writer."""
        if self._n == 1:
            return self._writer_release_root()
        return self._writer_release_level(self._n)

    def _writer_release_level(self, level: int) -> Steps:
        """Listing 5: release the DQ at ``level`` (2 <= level <= N)."""
        spec = self.spec
        q = self._queue_nodes[level - 1]

        succ = yield q.get_next
        status = yield q.get_status
        yield q.flush_node
        if succ != NULL_RANK and status < spec.locality_threshold(level):
            # Pass the lock within this element, carrying the passing count.
            yield (PUT, status + 1, succ, q.status_off)
            yield (FLUSH, succ)
            return

        # No known successor or the locality threshold was reached: release the
        # parent level first.
        if level > 2:
            yield from self._writer_release_level(level - 1)
        else:
            yield from self._writer_release_root()

        if succ == NULL_RANK:
            curr = yield q.dequeue
            yield q.flush_tail
            if curr == q.node:
                return
            succ = yield (SPIN_WHILE, q.node, q.next_off, lambda nxt: nxt == NULL_RANK)

        # Notify the successor that it must acquire the lock at the parent level.
        yield (PUT, STATUS_ACQUIRE_PARENT, succ, q.status_off)
        yield (FLUSH, succ)

    def _writer_release_root(self) -> Steps:
        """Listing 8: release the level-1 DQ, possibly handing the lock to the readers."""
        spec = self.spec
        q = self._queue_nodes[0]

        counters_reset = False
        next_stat = yield q.get_status
        yield q.flush_node
        next_stat += 1
        if next_stat >= spec.writer_threshold:
            # T_W reached: pass the lock to the readers.
            yield from self._dc.reset_counters_steps()
            next_stat = STATUS_MODE_CHANGE
            counters_reset = True

        succ = yield q.get_next
        yield q.flush_node
        if succ == NULL_RANK:
            if not counters_reset:
                # Nobody known to wait: let the readers in.
                yield from self._dc.reset_counters_steps()
                next_stat = STATUS_MODE_CHANGE
            curr = yield q.dequeue
            yield q.flush_tail
            if curr == q.node:
                return
            succ = yield (SPIN_WHILE, q.node, q.next_off, lambda nxt: nxt == NULL_RANK)

        # Pass the lock (or the mode-change notification) to the successor.
        yield (PUT, next_stat, succ, q.status_off)
        yield (FLUSH, succ)

    # ------------------------------------------------------------------ #
    # Reader protocol (Listings 9 and 10)
    # ------------------------------------------------------------------ #

    def _writer_waiting(self) -> Steps:
        """True when some writer is queued at the root DQ (Listing 9, line 17)."""
        q = self._queue_nodes[0]
        curr_tail = yield (GET, q.tail_host, q.tail_off)
        yield q.flush_tail
        return curr_tail != NULL_RANK

    def acquire_read_steps(self) -> Steps:
        """Listing 9: enter the critical section as a reader."""
        dc = self._dc
        t_r = self.spec.reader_threshold

        barrier = False
        while True:
            if barrier:
                # Wait until a writer resets our counter (or the saturation clears).
                yield from dc.spin_until_read_mode_steps(t_r, writer_waiting=self._writer_waiting)

            curr_stat = yield from dc.reader_arrive_steps()
            if curr_stat < t_r:
                # Lock mode is READ and the reader threshold is not exceeded.
                return
            barrier = True
            if curr_stat == t_r:
                # We are the first to saturate this counter: hand the lock to a
                # waiting writer if there is one, otherwise reset and go on.
                if not (yield from self._writer_waiting()):
                    yield from dc.reset_my_counter_steps()
                    barrier = False
            # Back off and try again.
            yield from dc.reader_backoff_steps()

    def release_read_steps(self) -> Steps:
        """Listing 10: leave the critical section as a reader."""
        return self._dc.reader_depart_steps()

    # ------------------------------------------------------------------ #
    # Introspection helpers (used by tests and the benchmark harness)
    # ------------------------------------------------------------------ #

    @property
    def counter_handle(self) -> DistributedCounterHandle:
        """The distributed-counter handle (exposed for tests and diagnostics)."""
        return self._dc


# --------------------------------------------------------------------------- #
# Registry entry (see repro.api).
# --------------------------------------------------------------------------- #

@register_scheme(
    "rma-rw",
    rw=True,
    category="rw",
    params=(
        ParamSpec("t_dc", int, None, "distributed-counter stride in ranks (default: one counter per node)"),
        ParamSpec(
            "t_l", int, None,
            "per-level locality thresholds T_L,i (max consecutive passings per element)",
            sequence=True,
        ),
        ParamSpec("t_r", int, 64, "consecutive reader acquisitions per counter before a writer wins"),
        ParamSpec("t_w", int, None, "writer hand-overs at the tree root before readers win (default: prod T_L,i)"),
    ),
    help="topology-aware distributed reader-writer lock (Section 3)",
)
def _build_rma_rw(machine: Machine, t_dc=None, t_l=None, t_r=64, t_w=None) -> RMARWLockSpec:
    return RMARWLockSpec(machine, t_dc=t_dc, t_l=t_l, t_r=t_r, t_w=t_w)
