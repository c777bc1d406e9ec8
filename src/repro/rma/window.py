"""RMA window: one rank's exposed memory region.

In MPI-3 RMA each process exposes a region of its local memory as a *window*
that other processes access with puts/gets/atomics (Section 2.1).  Here a
window is a fixed-size array of 64-bit integers addressed by word offset.
The window itself is a plain data container; atomicity across concurrent
accessors is the responsibility of the runtime that owns it (the simulated
runtime serializes accesses).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Iterable, Iterator, Mapping, Optional

import numpy as np

from repro.rma.ops import AtomicOp

if TYPE_CHECKING:
    from numpy.typing import ArrayLike

__all__ = ["Window", "WindowImage"]

_INT64_MIN = -(2**63)
_INT64_MAX = 2**63 - 1
_SUM = AtomicOp.SUM
_REPLACE = AtomicOp.REPLACE


def _check_int64(value: int) -> int:
    value = int(value)
    if not _INT64_MIN <= value <= _INT64_MAX:
        raise OverflowError(f"value {value} does not fit in a 64-bit window word")
    return value


class WindowImage(Mapping[int, int]):
    """A read-only ``{offset: word}`` mapping held as two int64 arrays.

    ``offsets`` and ``words`` are read-only arrays of equal length, in the
    mapping's iteration order, so :meth:`Window.load` stores an image with
    one fancy assignment instead of reading a dict word by word.  Everywhere
    else an image is an ordinary mapping of Python ints (``==`` with a dict,
    ``dict(image)``, ``LockSpec.merge_inits``); the dict behind that is built
    on first use.  Lock tables return images from ``init_window``.
    """

    __slots__ = ("offsets", "words", "_dict")

    def __init__(self, offsets: ArrayLike, words: ArrayLike):
        offsets = np.array(offsets, dtype=np.int64)
        words = np.array(words, dtype=np.int64)
        if offsets.ndim != 1 or offsets.shape != words.shape:
            raise ValueError("a window image needs two 1-d arrays of equal length")
        ordered = np.sort(offsets)
        if (ordered[1:] == ordered[:-1]).any():
            raise ValueError("a window image's offsets must be distinct")
        self._freeze(offsets, words)

    @classmethod
    def concat(cls, images: Iterable["WindowImage"]) -> "WindowImage":
        """The images' words one after another.  Their offsets must be disjoint,
        which is not checked (a lock table's tiles cover disjoint slabs)."""
        images = list(images)
        image = cls.__new__(cls)
        image._freeze(
            np.concatenate([part.offsets for part in images]),
            np.concatenate([part.words for part in images]),
        )
        return image

    def _freeze(self, offsets: np.ndarray, words: np.ndarray) -> None:
        offsets.flags.writeable = False
        words.flags.writeable = False
        self.offsets = offsets
        self.words = words
        self._dict: Optional[Dict[int, int]] = None

    def _as_dict(self) -> Dict[int, int]:
        if self._dict is None:
            self._dict = dict(zip(self.offsets.tolist(), self.words.tolist()))
        return self._dict

    def __getitem__(self, offset: int) -> int:
        return self._as_dict()[offset]

    def __iter__(self) -> Iterator[int]:
        return iter(self.offsets.tolist())

    def __len__(self) -> int:
        return len(self.offsets)

    def items(self):
        return self._as_dict().items()

    def __reduce__(self):
        return type(self), (self.offsets, self.words)

    def __repr__(self) -> str:
        return f"WindowImage({self._as_dict()!r})"


class Window:
    """A fixed-size array of int64 words owned by a single rank."""

    __slots__ = ("_mem", "words", "_size")

    def __init__(self, num_words: int, fill: int = 0):
        if num_words < 1:
            raise ValueError(f"window must have at least one word, got {num_words}")
        self._mem = np.full(num_words, _check_int64(fill), dtype=np.int64)
        # The scalar accessors use a memoryview of the same buffer: plain ints
        # in and out at a fifth of an ndarray item's cost, and a store checks
        # its own range.  What the view refuses (a word outside int64, or a
        # float / numeric string for int() to coerce) _check_int64 settles.
        #: Public for the simulator's inner loop, which indexes it under
        #: ``read``'s bounds check (a negative index would count from the end).
        self.words = memoryview(self._mem)
        self._size = num_words

    # -- basic accessors ------------------------------------------------- #

    def read(self, offset: int) -> int:
        """Return the word at ``offset``."""
        if not 0 <= offset < self._size:
            raise self._bad_offset(offset)
        return self.words[offset]

    def write(self, offset: int, value: int) -> None:
        """Store ``value`` at ``offset`` (the effect of a ``Put``/``REPLACE``)."""
        if not 0 <= offset < self._size:
            raise self._bad_offset(offset)
        try:
            self.words[offset] = value
        except (TypeError, ValueError):
            self.words[offset] = _check_int64(value)

    # -- atomics ---------------------------------------------------------- #

    def apply(self, offset: int, operand: int, op: AtomicOp) -> None:
        """Apply ``op`` with ``operand`` (the effect of ``Accumulate``)."""
        self.fetch_and_op(offset, operand, op)

    def fetch_and_op(self, offset: int, operand: int, op: AtomicOp) -> int:
        """Apply ``op`` and return the previous value (the effect of ``FAO``)."""
        if not 0 <= offset < self._size:
            raise self._bad_offset(offset)
        view = self.words
        previous = view[offset]
        if type(operand) is not int or not _INT64_MIN <= operand <= _INT64_MAX:
            operand = _check_int64(operand)
        if op is _SUM:
            try:
                view[offset] = previous + operand
            except ValueError:
                _check_int64(previous + operand)  # raises: the sum is outside int64
        elif op is _REPLACE:
            view[offset] = operand
        else:  # pragma: no cover - enum is exhaustive
            raise ValueError(f"unsupported atomic op {op!r}")
        return previous

    def compare_and_swap(self, offset: int, compare: int, value: int) -> int:
        """CAS: replace with ``value`` if the word equals ``compare``; return the old word."""
        if not 0 <= offset < self._size:
            raise self._bad_offset(offset)
        previous = self.words[offset]
        if previous == int(compare):
            self.write(offset, value)
        return previous

    # -- bulk helpers ----------------------------------------------------- #

    def load(self, values: Mapping[int, int]) -> None:
        """Initialize several offsets at once: one range-checked bulk store.

        A :class:`WindowImage` is stored straight from its arrays; any other
        mapping is read into two arrays first.  Raises what ``write`` raises
        for the first bad word in mapping order but stores nothing then, where a
        ``write`` loop kept the words before it; the one caller in ``src/``
        (``allocate_windows``) and the tests drop such a window.
        """
        if isinstance(values, WindowImage):
            offsets, words = values.offsets, values.words
            outside = offsets.view(np.uint64) >= self._size  # negatives too, as below
            if outside.any():
                raise self._bad_offset(int(offsets[outside.argmax()]))
            self._mem[offsets] = words
            return
        try:
            offsets = np.fromiter(values.keys(), dtype=np.int64, count=len(values))
            words = np.fromiter(values.values(), dtype=np.int64, count=len(values))
            if offsets.view(np.uint64).max(initial=0) >= self._size:  # a negative reads as >= 2**63
                raise IndexError("window offset out of range")
        except (IndexError, OverflowError):
            for offset, value in values.items():
                if not 0 <= offset < self._size:
                    raise self._bad_offset(offset)
                _check_int64(value)
            raise
        self._mem[offsets] = words

    def _bad_offset(self, offset: int) -> IndexError:
        return IndexError(f"offset {offset} out of range 0..{self._size - 1}")
