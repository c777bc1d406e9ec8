"""Tests for the statistics helpers (warm-up discard, summaries)."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.util.stats import discard_warmup, summarize


class TestDiscardWarmup:
    def test_discards_leading_fraction(self):
        assert discard_warmup(list(range(10)), 0.1) == list(range(1, 10))
        assert discard_warmup(list(range(10)), 0.3) == list(range(3, 10))

    def test_zero_fraction_keeps_everything(self):
        assert discard_warmup([1, 2, 3], 0.0) == [1, 2, 3]

    def test_rounds_down(self):
        assert discard_warmup([1, 2, 3], 0.5) == [2, 3]

    def test_invalid_fraction(self):
        with pytest.raises(ValueError):
            discard_warmup([1], 1.0)
        with pytest.raises(ValueError):
            discard_warmup([1], -0.1)


class TestSummarize:
    def test_basic_statistics(self):
        s = summarize([1.0, 2.0, 3.0, 4.0], warmup_fraction=0.0)
        assert s.count == 4
        assert s.mean == pytest.approx(2.5)
        assert s.median == pytest.approx(2.5)
        assert s.minimum == 1.0
        assert s.maximum == 4.0

    def test_warmup_applied(self):
        s = summarize([100.0] + [1.0] * 9, warmup_fraction=0.1)
        assert s.maximum == 1.0
        assert s.count == 9

    def test_empty_after_warmup_raises(self):
        with pytest.raises(ValueError):
            summarize([], warmup_fraction=0.0)

    @given(st.lists(st.floats(min_value=0.001, max_value=1e6), min_size=2, max_size=200))
    @settings(max_examples=60, deadline=None)
    def test_mean_within_min_max(self, values):
        s = summarize(values, warmup_fraction=0.0)
        assert s.minimum - 1e-9 <= s.mean <= s.maximum + 1e-9
        assert s.minimum - 1e-9 <= s.p95 <= s.maximum + 1e-9

    @given(st.lists(st.floats(min_value=0.001, max_value=1e6), min_size=10, max_size=200))
    @settings(max_examples=60, deadline=None)
    def test_warmup_never_increases_count(self, values):
        full = summarize(values, warmup_fraction=0.0)
        trimmed = summarize(values, warmup_fraction=0.1)
        assert trimmed.count <= full.count
