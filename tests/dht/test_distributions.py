"""Tests for the key-distribution samplers."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dht.distributions import DISTRIBUTIONS, KeyDistribution


def _rng(seed: int = 0) -> np.random.Generator:
    return np.random.default_rng(seed)


def _top_counts(keys: np.ndarray, top: int) -> int:
    """Draws that landed on the ``top`` most frequently drawn keys."""
    _, counts = np.unique(keys, return_counts=True)
    return int(np.sort(counts)[-top:].sum())


class TestConstruction:
    def test_known_names_only(self):
        with pytest.raises(ValueError):
            KeyDistribution.make("pareto", 1024)
        for name in DISTRIBUTIONS:
            dist = KeyDistribution.make(name, 1024)
            assert dist.name == name

    def test_rejects_degenerate_parameters(self):
        with pytest.raises(ValueError):
            KeyDistribution.make("uniform", 0)
        with pytest.raises(ValueError):
            KeyDistribution.make("zipfian", 1024, zipf_exponent=0.0)
        with pytest.raises(ValueError):
            KeyDistribution.make("hotspot", 1024, hot_fraction=0.0)
        with pytest.raises(ValueError):
            KeyDistribution.make("hotspot", 1024, hot_access_fraction=1.5)

    def test_distinct_keys_clamped_to_key_space(self):
        dist = KeyDistribution.make("zipfian", 16, distinct_keys=1000)
        assert dist.distinct_keys == 16


class TestSampling:
    @pytest.mark.parametrize("name", DISTRIBUTIONS)
    def test_samples_stay_in_key_space(self, name):
        dist = KeyDistribution.make(name, key_space=500, distinct_keys=64)
        keys = dist.sample(_rng(), 2000)
        assert keys.dtype == np.int64
        assert keys.min() >= 0
        assert keys.max() < 500

    def test_sample_zero_and_negative_size(self):
        dist = KeyDistribution.make("uniform", 100)
        assert dist.sample(_rng(), 0).size == 0
        with pytest.raises(ValueError):
            dist.sample(_rng(), -1)

    def test_sampling_is_deterministic_per_seed(self):
        dist = KeyDistribution.make("zipfian", 1 << 20)
        a = dist.sample(_rng(3), 100)
        b = dist.sample(_rng(3), 100)
        c = dist.sample(_rng(4), 100)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_zipfian_is_skewed_towards_the_hottest_key(self):
        dist = KeyDistribution.make("zipfian", 1 << 16, distinct_keys=256, zipf_exponent=1.1)
        keys = dist.sample(_rng(1), 20_000)
        hottest_share = _top_counts(keys, 1) / keys.size
        # The top key of a Zipf(1.1) over 256 keys receives well over 10% of accesses.
        assert hottest_share > 0.10

    def test_uniform_is_not_skewed(self):
        dist = KeyDistribution.make("uniform", 1 << 16)
        keys = dist.sample(_rng(1), 20_000)
        _, counts = np.unique(keys, return_counts=True)
        assert counts.max() <= 10  # no key dominates a uniform draw over 65k keys

    def test_hotspot_hot_set_receives_requested_share(self):
        dist = KeyDistribution.make(
            "hotspot", 1 << 16, distinct_keys=200, hot_fraction=0.05, hot_access_fraction=0.8
        )
        keys = dist.sample(_rng(2), 20_000)
        hot_share = _top_counts(keys, 10) / keys.size  # the 10-key hot set
        assert 0.7 < hot_share < 0.9

    @settings(max_examples=30, deadline=None)
    @given(
        name=st.sampled_from(DISTRIBUTIONS),
        key_space=st.integers(1, 1 << 20),
        size=st.integers(0, 200),
        seed=st.integers(0, 1000),
    )
    def test_samples_always_within_bounds(self, name, key_space, size, seed):
        dist = KeyDistribution.make(name, key_space, distinct_keys=128)
        keys = dist.sample(_rng(seed), size)
        assert keys.size == size
        if size:
            assert keys.min() >= 0
            assert keys.max() < key_space
