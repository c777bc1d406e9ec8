"""Deterministic random-number helpers.

Every simulated process gets its own :class:`numpy.random.Generator` derived
from a single experiment seed so that runs are reproducible regardless of the
scheduling order of ranks.

Philox is counter-based, so a stream can start anywhere: :func:`philox_at`
positions ``rank_rng(seed, rank)`` after any number of draws.
:class:`StreamBlocks` caches such streams in blocks under a byte budget,
shared by every run in the process that reads them; the per-rank workload
draws (:class:`RankDraws`) and the perturbation factor streams
(:mod:`repro.rma.perturbation`) both read through one.
"""

from __future__ import annotations

import threading
from array import array
from itertools import chain
from typing import Any, Callable, Dict, Hashable, Iterator, List, Optional, Tuple

import numpy as np

__all__ = ["RankDraws", "StreamBlocks", "philox_at", "rank_rng"]

#: Uniforms drawn per block of a cached stream: a multiple of 4, so a block
#: always ends on a Philox counter step.
DRAW_BLOCK = 256

#: Bytes of draw blocks the process keeps for the rank streams of
#: :class:`RankDraws`.  A stream that outgrows them continues from its own
#: generator and caches nothing more.
RANK_DRAW_BYTES = 256 * 1024


def rank_rng(seed: int, rank: int) -> np.random.Generator:
    """Return an independent generator for ``rank`` derived from ``seed``.

    The sequence produced by a given ``(seed, rank)`` pair is stable across
    runs and independent of the generators handed to other ranks.
    """
    return philox_at(seed, rank, 0)


def philox_at(seed: int, rank: int, draw: int) -> np.random.Generator:
    """``rank_rng(seed, rank)`` positioned after ``draw`` of its ``random()``
    draws: Philox yields four per counter step, so the counter starts at
    ``draw // 4`` and ``draw % 4`` raw outputs are discarded."""
    if rank < 0:
        raise ValueError(f"rank must be non-negative, got {rank}")
    rng = np.random.Generator(np.random.Philox(key=seed, counter=[draw // 4, 0, 0, rank]))
    if draw % 4:
        rng.bit_generator.random_raw(draw % 4)
    return rng


_NONE_LEFT = np.empty(0)


def _as_block(u: np.ndarray) -> Tuple[array, np.ndarray]:
    """The default parse: every uniform, as it is; nothing left over (a view
    would keep ``u`` alive with the cached block)."""
    return array("d", u.tobytes()), _NONE_LEFT


class _Stream:
    """One stream's cached blocks, and where filling resumes: its generator,
    the draws taken from it, the ones not parsed yet."""

    __slots__ = ("blocks", "rng", "drawn", "rest")

    def __init__(self, rng: np.random.Generator):
        self.blocks: List[array] = []
        self.rng = rng
        self.drawn = 0
        self.rest = _NONE_LEFT


class StreamBlocks:
    """Philox streams cached in blocks under a byte budget.

    ``start(key, draw)`` is stream ``key``'s generator positioned at draw
    ``draw`` (a multiple of :data:`DRAW_BLOCK`); ``parse(u)`` turns uniforms
    into one block and the uniforms it leaves for the next (by default every
    uniform is a float of the block).  Blocks are filled on first use, under
    a lock, and never change after, so concurrent readers share them.  Past
    ``budget`` bytes a reader continues its stream from a generator of its
    own, positioned by counter where the cached prefix ends; which blocks
    are cached never reaches a reader.
    """

    def __init__(
        self, start: Callable[[Any, int], np.random.Generator], budget: int,
        parse: Callable[[np.ndarray], Tuple[array, np.ndarray]] = _as_block,
    ):
        self._start = start
        self._parse = parse
        self.budget = budget
        self._streams: Dict[Hashable, _Stream] = {}
        self._lock = threading.Lock()
        self._full = False
        #: Bytes of the cached blocks.
        self.nbytes = 0

    def blocks(self, key: Hashable) -> Iterator[array]:
        """Stream ``key``'s blocks, in order, without end."""
        with self._lock:
            stream = self._streams.get(key)
            if stream is None and not self._full:
                stream = self._streams[key] = _Stream(self._start(key, 0))
        drawn, rest = 0, _NONE_LEFT
        if stream is not None:
            blocks = stream.blocks
            i = 0
            while True:
                if i == len(blocks):
                    with self._lock:
                        if i == len(blocks) and not self._grow(stream):
                            break
                yield blocks[i]
                i += 1
            drawn, rest = stream.drawn, stream.rest
        # Past the budget the cached prefix no longer changes: continue privately.
        rng, parse = self._start(key, drawn), self._parse
        while True:
            block, rest = parse(np.concatenate((rest, rng.random(DRAW_BLOCK))))
            yield block

    def _grow(self, stream: _Stream) -> bool:
        """Cache one more block of ``stream`` (under the lock), or refuse
        once the budget is spent."""
        if self._full:
            return False
        block, rest = self._parse(np.concatenate((stream.rest, stream.rng.random(DRAW_BLOCK))))
        if self.nbytes + block.itemsize * len(block) > self.budget:
            self._full = True
            return False
        stream.blocks.append(block)
        stream.drawn += DRAW_BLOCK
        stream.rest = rest
        self.nbytes += block.itemsize * len(block)
        return True


#: The process's rank streams, keyed by ``(seed, rank)``.
_RANK_BLOCKS = StreamBlocks(lambda key, draw: philox_at(key[0], key[1], draw), RANK_DRAW_BYTES)


class _Position:
    """Where a run stands in its rank stream: the block being drawn, its
    iterator and the index of its first draw; the generator once taken."""

    __slots__ = ("block", "it", "base", "rng")

    def __init__(self) -> None:
        self.block: Optional[array] = None
        self.it: Optional[Iterator[float]] = None
        self.base = 0
        self.rng: Optional[np.random.Generator] = None


def _draws(seed: int, rank: int, at: _Position) -> Iterator[Iterator[float]]:
    """The iterators ``RankDraws.draw`` chains: the shared blocks until the
    generator is taken, then the generator's own draws."""
    if at.rng is None:
        base = 0
        for block in _RANK_BLOCKS.blocks((seed, rank)):
            at.block, at.base = block, base
            at.it = it = iter(block)
            yield it
            if at.rng is not None:
                break
            base += len(block)
    yield iter(at.rng.random, None)


class RankDraws:
    """One run's reader of ``rank_rng(seed, rank)``'s stream.

    :attr:`draw` returns the stream's next ``random()``: one C-level call,
    served from the process's shared blocks.  :meth:`generator` is the stream
    as a :class:`numpy.random.Generator`, positioned after the draws taken so
    far; once it exists, ``draw`` draws from it too, so any interleaving of
    the two reads one stream.  Nothing is built until the first draw or the
    generator is asked for.  (``draw`` holds the position, never ``self``:
    no reference cycle for the garbage collector to find.)
    """

    __slots__ = ("draw", "_seed", "_rank", "_at")

    def __init__(self, seed: int, rank: int):
        self._seed, self._rank = seed, rank
        self._at = at = _Position()
        self.draw: Callable[[], float] = chain.from_iterable(_draws(seed, rank, at)).__next__

    def generator(self) -> np.random.Generator:
        """The stream's generator, built (on first call) after the draws taken."""
        at = self._at
        if at.rng is None:
            drawn = at.base
            it = at.it
            if it is not None:
                # The block's iterator pickles as (iter, (block,), index): its
                # draws taken.  Moved to the block's end, it makes the next
                # draw ask _draws for the generator.  (It is never seen
                # exhausted here: the draw that exhausts it moves on to the
                # next block.)
                drawn += it.__reduce__()[2]
                it.__setstate__(len(at.block))
            at.rng = philox_at(self._seed, self._rank, drawn)
        return at.rng
