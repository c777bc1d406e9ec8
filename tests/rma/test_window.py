"""Tests for the RMA window data container."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.rma.ops import AtomicOp
from repro.rma.window import Window, WindowImage

INT64_MAX = 2**63 - 1
INT64_MIN = -(2**63)


def _words(window):
    """Every word of ``window`` as ``{offset: value}``."""
    return {offset: window.read(offset) for offset in range(window._size)}


class TestBasics:
    def test_initial_fill(self):
        w = Window(4)
        assert [w.read(i) for i in range(4)] == [0, 0, 0, 0]
        w2 = Window(3, fill=-1)
        assert [w2.read(i) for i in range(3)] == [-1, -1, -1]

    def test_write_read_round_trip(self):
        w = Window(4)
        w.write(2, 12345)
        assert w.read(2) == 12345
        w.write(2, -99)
        assert w.read(2) == -99

    def test_min_size_enforced(self):
        with pytest.raises(ValueError):
            Window(0)

    def test_offset_bounds(self):
        w = Window(2)
        with pytest.raises(IndexError):
            w.read(2)
        with pytest.raises(IndexError):
            w.write(-1, 5)

    def test_int64_bounds(self):
        w = Window(1)
        w.write(0, INT64_MAX)
        assert w.read(0) == INT64_MAX
        w.write(0, INT64_MIN)
        assert w.read(0) == INT64_MIN
        with pytest.raises(OverflowError):
            w.write(0, INT64_MAX + 1)


class TestAtomics:
    def test_fetch_and_op_sum(self):
        w = Window(2)
        w.write(0, 10)
        assert w.fetch_and_op(0, 5, AtomicOp.SUM) == 10
        assert w.read(0) == 15

    def test_fetch_and_op_negative_sum(self):
        w = Window(1)
        w.write(0, 3)
        assert w.fetch_and_op(0, -5, AtomicOp.SUM) == 3
        assert w.read(0) == -2

    def test_fetch_and_op_replace(self):
        w = Window(1)
        w.write(0, 42)
        assert w.fetch_and_op(0, 7, AtomicOp.REPLACE) == 42
        assert w.read(0) == 7

    def test_apply_is_fao_without_return(self):
        w = Window(1)
        w.apply(0, 4, AtomicOp.SUM)
        w.apply(0, 4, AtomicOp.SUM)
        assert w.read(0) == 8

    def test_cas_success(self):
        w = Window(1)
        w.write(0, 5)
        assert w.compare_and_swap(0, compare=5, value=9) == 5
        assert w.read(0) == 9

    def test_cas_failure_leaves_value(self):
        w = Window(1)
        w.write(0, 5)
        assert w.compare_and_swap(0, compare=4, value=9) == 5
        assert w.read(0) == 5

    def test_sum_overflow_detected(self):
        w = Window(1)
        w.write(0, INT64_MAX)
        with pytest.raises(OverflowError):
            w.fetch_and_op(0, 1, AtomicOp.SUM)


class TestBulk:
    def test_load(self):
        w = Window(5)
        w.load({0: 1, 3: -7})
        assert _words(w) == {0: 1, 1: 0, 2: 0, 3: -7, 4: 0}

    def test_load_rejects_bad_offset(self):
        w = Window(2)
        with pytest.raises(IndexError, match=r"offset 5 out of range 0\.\.1"):
            w.load({5: 1})
        with pytest.raises(IndexError, match=r"offset -1 out of range 0\.\.1"):
            w.load({0: 1, -1: 1})
        with pytest.raises(IndexError, match=r"offset \d+ out of range 0\.\.1"):
            w.load({2**70: 1})  # beyond int64 too: still an offset error

    def test_load_rejects_values_outside_int64(self):
        w = Window(2)
        for bad in (INT64_MAX + 1, INT64_MIN - 1, np.uint64(2**63)):
            with pytest.raises(
                OverflowError, match=f"value {int(bad)} does not fit in a 64-bit window word"
            ):
                w.load({0: 1, 1: bad})
        w.load({0: INT64_MAX, 1: INT64_MIN})
        assert _words(w) == {0: INT64_MAX, 1: INT64_MIN}

    def test_load_reports_the_first_bad_word_like_sequential_writes(self):
        with pytest.raises(IndexError):
            Window(2).load({0: 1, 9: 1, 1: 2**64})
        with pytest.raises(OverflowError):
            Window(2).load({0: 1, 1: 2**64, 9: 1})

    def test_failed_load_writes_nothing(self):
        """The one behavioural change from the per-word loop (see ``load``)."""
        w = Window(3, fill=7)
        with pytest.raises(IndexError):
            w.load({0: 1, 3: 1})
        with pytest.raises(OverflowError):
            w.load({1: 1, 2: 2**63})
        assert _words(w) == {0: 7, 1: 7, 2: 7}

    def test_load_of_an_empty_mapping_is_a_no_op(self):
        w = Window(2, fill=3)
        w.load({})
        assert _words(w) == {0: 3, 1: 3}

    def test_load_accepts_numpy_integers_and_read_only_mappings(self):
        from types import MappingProxyType

        w = Window(4)
        w.load({np.int64(1): np.int64(-5), np.int32(3): np.uint8(200), 0: True})
        assert _words(w) == {0: 1, 1: -5, 2: 0, 3: 200}
        w.load(MappingProxyType({2: 9}))
        assert w.read(2) == 9

    def test_load_into_a_one_word_window(self):
        w = Window(1)
        w.load({0: -1})
        assert _words(w) == {0: -1}
        with pytest.raises(IndexError, match=r"offset 1 out of range 0\.\.0"):
            w.load({1: 0})


class TestPropertyBased:
    @given(
        st.lists(
            st.tuples(
                st.sampled_from(["write", "sum", "replace", "cas"]),
                st.integers(min_value=0, max_value=3),
                st.integers(min_value=-(2**30), max_value=2**30),
                st.integers(min_value=-(2**30), max_value=2**30),
            ),
            max_size=200,
        )
    )
    @settings(max_examples=80, deadline=None)
    def test_matches_reference_model(self, operations):
        """The window behaves exactly like a plain Python list of ints."""
        w = Window(4)
        model = [0, 0, 0, 0]
        for op, offset, a, b in operations:
            if op == "write":
                w.write(offset, a)
                model[offset] = a
            elif op == "sum":
                assert w.fetch_and_op(offset, a, AtomicOp.SUM) == model[offset]
                model[offset] += a
            elif op == "replace":
                assert w.fetch_and_op(offset, a, AtomicOp.REPLACE) == model[offset]
                model[offset] = a
            elif op == "cas":
                assert w.compare_and_swap(offset, compare=a, value=b) == model[offset]
                if model[offset] == a:
                    model[offset] = b
        assert [w.read(i) for i in range(4)] == model

    @given(
        size=st.integers(min_value=1, max_value=12),
        items=st.dictionaries(
            st.integers(min_value=-3, max_value=15),
            st.integers(min_value=INT64_MIN - 2, max_value=INT64_MAX + 2),
            max_size=12,
        ),
    )
    @settings(max_examples=200, deadline=None)
    def test_bulk_load_matches_sequential_writes(self, size, items):
        """``load`` ends where a ``write`` per word ends, or raises what the
        first failing ``write`` raises (then leaving the window untouched)."""
        bulk, sequential = Window(size, fill=5), Window(size, fill=5)
        try:
            for offset, value in items.items():
                sequential.write(offset, value)
        except (IndexError, OverflowError) as error:
            with pytest.raises(type(error)) as caught:
                bulk.load(items)
            assert str(caught.value) == str(error)
            assert _words(bulk) == _words(Window(size, fill=5))
        else:
            bulk.load(items)
            assert _words(bulk) == _words(sequential)

    @given(
        size=st.integers(min_value=1, max_value=12),
        items=st.dictionaries(
            st.integers(min_value=-3, max_value=15),
            st.integers(min_value=INT64_MIN, max_value=INT64_MAX),
            max_size=12,
        ),
    )
    @settings(max_examples=200, deadline=None)
    def test_an_image_is_the_equal_dict(self, size, items):
        """A :class:`WindowImage` compares, counts and iterates like the dict
        it was built from, and ``load`` leaves the same bytes — or raises the
        dict path's ``IndexError`` text for the first bad offset and stores
        nothing."""
        image = WindowImage(list(items), list(items.values()))
        assert image == items and items == image
        assert len(image) == len(items) and bool(image) == bool(items)
        assert list(image) == list(items)
        assert list(image.items()) == list(items.items())
        assert list(image.values()) == list(items.values())
        assert dict(image) == items
        assert all(type(offset) is int and type(image[offset]) is int for offset in image)
        with pytest.raises(ValueError):
            image.offsets[:1] = 0
        with pytest.raises(ValueError):
            image.words[:1] = 0
        from_dict, from_image = Window(size, fill=5), Window(size, fill=5)
        try:
            from_dict.load(items)
        except IndexError as error:
            with pytest.raises(IndexError) as caught:
                from_image.load(image)
            assert str(caught.value) == str(error)
        else:
            from_image.load(image)
        assert from_image._mem.tobytes() == from_dict._mem.tobytes()


class TestWindowImage:
    def test_an_image_is_a_read_only_copy(self):
        offsets, words = np.array([4, 1]), np.array([-7, INT64_MAX])
        image = WindowImage(offsets, words)
        offsets[0] = words[0] = 0
        assert image == {4: -7, 1: INT64_MAX} and list(image) == [4, 1]
        assert image.offsets.dtype == image.words.dtype == np.int64
        assert not image.offsets.flags.writeable and not image.words.flags.writeable
        with pytest.raises(TypeError):
            image[4] = 1  # type: ignore[index]
        assert 4 in image and 2 not in image and image.get(2) is None
        assert repr(image) == f"WindowImage({{4: -7, 1: {INT64_MAX}}})"

    def test_malformed_images_are_rejected(self):
        with pytest.raises(ValueError, match="distinct"):
            WindowImage([1, 2, 1], [0, 0, 0])
        with pytest.raises(ValueError, match="equal length"):
            WindowImage([1, 2], [0])
        with pytest.raises(OverflowError):
            WindowImage([0], [INT64_MAX + 1])

    def test_concat_keeps_part_order(self):
        image = WindowImage.concat([WindowImage([5, 2], [1, 2]), WindowImage([0], [3])])
        assert list(image.items()) == [(5, 1), (2, 2), (0, 3)]
        assert not image.offsets.flags.writeable

    def test_pickling_keeps_the_image_read_only(self):
        import pickle

        image = pickle.loads(pickle.dumps(WindowImage([3, 0], [1, -1])))
        assert image == {3: 1, 0: -1}
        assert not image.offsets.flags.writeable and not image.words.flags.writeable

    def test_an_empty_image_loads_nothing(self):
        w = Window(2, fill=3)
        w.load(WindowImage([], []))
        assert _words(w) == {0: 3, 1: 3}


# --------------------------------------------------------------------------- #
# Scalar accessors against a pure-int reference
# --------------------------------------------------------------------------- #

class _IntWords:
    """The scalar accessors over a list of Python ints: ``int()`` coercion,
    an explicit int64 range check, offsets checked before anything else —
    what ``Window`` did word by word before its accessors went through a
    ``memoryview``, and what they must keep doing."""

    def __init__(self, size: int):
        self.words = [0] * size

    def _offset(self, offset):
        if not 0 <= offset < len(self.words):
            raise IndexError(f"offset {offset} out of range 0..{len(self.words) - 1}")

    @staticmethod
    def _word(value):
        value = int(value)
        if not INT64_MIN <= value <= INT64_MAX:
            raise OverflowError(f"value {value} does not fit in a 64-bit window word")
        return value

    def read(self, offset):
        self._offset(offset)
        return self.words[offset]

    def write(self, offset, value):
        self._offset(offset)
        self.words[offset] = self._word(value)

    def fetch_and_op(self, offset, operand, op):
        self._offset(offset)
        previous = self.words[offset]
        operand = self._word(operand)
        self.words[offset] = self._word(previous + operand) if op is AtomicOp.SUM else operand
        return previous

    def compare_and_swap(self, offset, compare, value):
        self._offset(offset)
        previous = self.words[offset]
        if previous == int(compare):
            self.words[offset] = self._word(value)
        return previous


_EDGES = [0, 1, -1, INT64_MAX, INT64_MAX - 1, INT64_MIN, INT64_MIN + 1]
_WORDS = st.one_of(
    st.sampled_from(_EDGES + [INT64_MAX + 1, INT64_MIN - 1, 2**64, -(2**64)]),
    st.integers(min_value=-(2**65), max_value=2**65),
    st.booleans(),
    st.sampled_from(_EDGES).map(np.int64),
    st.floats(allow_nan=True, allow_infinity=True, width=64),
    st.sampled_from([-2.5, 0.0, 7.9, 1e18, -1e19, 2.0**63]),
    st.integers(min_value=-(2**64), max_value=2**64).map(str),
    st.sampled_from(["", "seven", " 12 ", "1_000"]),
)
_SIZE = 3
_CALLS = st.one_of(
    st.tuples(st.just("read"), st.integers(-_SIZE - 2, _SIZE + 2)),
    st.tuples(st.just("write"), st.integers(-2, _SIZE + 1), _WORDS),
    st.tuples(
        st.just("fetch_and_op"), st.integers(-2, _SIZE + 1), _WORDS,
        st.sampled_from([AtomicOp.SUM, AtomicOp.REPLACE]),
    ),
    st.tuples(st.just("compare_and_swap"), st.integers(-2, _SIZE + 1), _WORDS, _WORDS),
)


def _outcome(target, name, args):
    try:
        value = getattr(target, name)(*args)
    except Exception as exc:  # noqa: BLE001 - the outcome *is* the exception
        return type(exc), str(exc)
    return type(value), value


class TestScalarAccessorsMatchAPureIntReference:
    @given(st.lists(_CALLS, max_size=40))
    @settings(max_examples=400, deadline=None)
    def test_same_values_same_exceptions_same_words(self, calls):
        """Words at the ±2**63 edges, ``bool``, ``numpy.int64``, floats and
        numeric strings (coerced by ``int()``), offsets off either end: every
        call returns the same exact ``int`` or raises the same exception with
        the same message, and leaves the same words — in the ndarray that
        ``load`` uses, too."""
        window, reference = Window(_SIZE), _IntWords(_SIZE)
        for name, *args in calls:
            assert _outcome(window, name, args) == _outcome(reference, name, args), (name, args)
            assert window._mem.tolist() == reference.words
        assert _words(window) == dict(enumerate(reference.words))
        assert all(type(window.read(i)) is int for i in range(_SIZE))

    def test_the_edges_by_hand(self):
        w = Window(2)
        w.write(0, INT64_MAX)
        with pytest.raises(OverflowError, match=rf"value {INT64_MAX + 1} does not fit"):
            w.fetch_and_op(0, 1, AtomicOp.SUM)
        # The operand is range-checked on its own, even where the sum would fit.
        w.write(1, -5)
        with pytest.raises(OverflowError, match=rf"value {INT64_MAX + 1} does not fit"):
            w.fetch_and_op(1, INT64_MAX + 1, AtomicOp.SUM)
        assert _words(w) == {0: INT64_MAX, 1: -5}
        # A failing compare never looks at the new value; a matching one checks it.
        assert w.compare_and_swap(1, 0, 2**70) == -5
        with pytest.raises(OverflowError):
            w.compare_and_swap(1, "-5", 2**70)
        assert w.compare_and_swap(1, -5.9, True) == -5 and w.read(1) == 1
        w.write(1, "12")
        w.write(0, 7.9)
        assert _words(w) == {0: 7, 1: 12}
        w.load({0: -3})  # the bulk store and the scalar view share one buffer
        assert w.read(0) == -3 and type(w.read(0)) is int
