"""Tests for deterministic random-number helpers."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.util.rng import rank_rng, spawn_rngs


class TestRankRng:
    def test_deterministic_per_seed_and_rank(self):
        a = rank_rng(7, 3).integers(0, 1_000_000, size=16)
        b = rank_rng(7, 3).integers(0, 1_000_000, size=16)
        assert np.array_equal(a, b)

    def test_different_ranks_differ(self):
        a = rank_rng(7, 0).integers(0, 1_000_000, size=16)
        b = rank_rng(7, 1).integers(0, 1_000_000, size=16)
        assert not np.array_equal(a, b)

    def test_different_seeds_differ(self):
        a = rank_rng(1, 0).integers(0, 1_000_000, size=16)
        b = rank_rng(2, 0).integers(0, 1_000_000, size=16)
        assert not np.array_equal(a, b)

    def test_negative_rank_rejected(self):
        with pytest.raises(ValueError):
            rank_rng(0, -1)


_BOUND = st.floats(min_value=-1e9, max_value=1e9, allow_nan=False)


class TestScaledRandomIsUniform:
    """The hot loops draw ``lo + (hi - lo) * rng.random()`` where they used to
    draw ``float(rng.uniform(lo, hi))``: same stream position, same double.
    A numpy that changes ``Generator.uniform``'s arithmetic fails here by name,
    not as a golden fingerprint mismatch in every suite."""

    @settings(max_examples=200, deadline=None)
    @given(
        seed=st.integers(0, 2**63 - 1),
        rank=st.integers(0, 4095),
        bounds=st.tuples(_BOUND, _BOUND).map(sorted),
        bounded=st.lists(st.booleans(), min_size=1, max_size=48),
    )
    @example(seed=1, rank=0, bounds=[2.5, 2.5], bounded=[True, False, True])
    @example(seed=1, rank=63, bounds=[1.0, 4.0], bounded=[False, True] * 8)
    def test_bit_for_bit_on_twin_streams(self, seed, rank, bounds, bounded):
        lo, hi = bounds
        g, h = rank_rng(seed, rank), rank_rng(seed, rank)
        for draw_bounded in bounded:
            if draw_bounded:
                assert (lo + (hi - lo) * g.random()).hex() == float(h.uniform(lo, hi)).hex()
            else:
                assert g.random().hex() == h.random().hex()


class TestSpawnRngs:
    def test_count_and_independence(self):
        rngs = spawn_rngs(5, 4)
        assert len(rngs) == 4
        draws = [r.integers(0, 1_000_000, size=8).tolist() for r in rngs]
        assert len({tuple(d) for d in draws}) == 4

    def test_zero_count(self):
        assert spawn_rngs(5, 0) == []

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            spawn_rngs(5, -1)

    def test_matches_rank_rng(self):
        spawned = spawn_rngs(9, 3)[2].integers(0, 1000, size=8)
        direct = rank_rng(9, 2).integers(0, 1000, size=8)
        assert np.array_equal(spawned, direct)
