"""Tests for the statistics helpers (warm-up discard, summaries)."""

from __future__ import annotations

import struct
from dataclasses import astuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.util.stats import DEFAULT_WARMUP_FRACTION, Summary, discard_warmup, summarize


def reference_summarize(samples, warmup_fraction=DEFAULT_WARMUP_FRACTION) -> Summary:
    """``summarize`` as numpy's own median and percentile calls compute it
    (each partitions its own copy of the samples)."""
    kept = discard_warmup(list(samples), warmup_fraction)
    if not kept:
        raise ValueError("no samples left after warm-up discard")
    arr = np.asarray(kept, dtype=float)
    return Summary(
        count=int(arr.size),
        mean=float(arr.mean()),
        median=float(np.median(arr)),
        p95=float(np.percentile(arr, 95)),
        minimum=float(arr.min()),
        maximum=float(arr.max()),
        std=float(arr.std()),
    )


def _bits(summary: Summary):
    return [struct.pack("<d", field) if isinstance(field, float) else field for field in astuple(summary)]


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

    @given(
        st.one_of(
            st.lists(st.floats(-1e100, 1e100), min_size=1, max_size=60),
            # Ties: a few distinct values, repeated.
            st.lists(st.sampled_from([-0.0, 0.0, 1.5, 2.25, 7.0, 1e6]), min_size=1, max_size=60),
        ),
        st.sampled_from([0.0, DEFAULT_WARMUP_FRACTION]),
    )
    @settings(max_examples=300, deadline=None)
    def test_bit_identical_to_numpys_median_and_percentile(self, values, warmup_fraction):
        """One partition gives every field numpy's two calls gave, bit for
        bit, at odd and even lengths."""
        if not discard_warmup(values, warmup_fraction):
            return
        assert _bits(summarize(values, warmup_fraction)) == _bits(reference_summarize(values, warmup_fraction))

    def test_halfway_percentile_interpolates_down_from_the_upper_value(self):
        """At 11 samples the 95th percentile sits halfway between the 10th
        and 11th values, where numpy interpolates from the upper one; from
        the lower one these two values would give the next float down."""
        low, high = 1.3436424411240122, 17.153669244879477
        values = [low] * 10 + [high]
        assert summarize(values, 0.0).p95 == float(np.percentile(values, 95)) == 9.248655843001746
