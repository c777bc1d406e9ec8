"""Sanity checks on the protocol constants."""

from __future__ import annotations

from repro.core.constants import (
    ACQUIRE_START,
    NULL_RANK,
    STATUS_ACQUIRE_PARENT,
    STATUS_MODE_CHANGE,
    STATUS_WAIT,
    WRITE_FLAG,
)


def test_null_rank_cannot_collide_with_real_ranks():
    assert NULL_RANK < 0


def test_special_status_values_are_distinct_and_not_counts():
    specials = {STATUS_WAIT, STATUS_ACQUIRE_PARENT, STATUS_MODE_CHANGE}
    assert len(specials) == 3
    # A STATUS word holding a non-negative value is a passing count.
    assert all(value < 0 for value in specials)


def test_acquire_start_is_a_count():
    assert ACQUIRE_START == 0


def test_write_flag_dominates_any_realistic_reader_count():
    # far above any plausible T_R or process count, far below int64 overflow
    assert WRITE_FLAG > 10**9
    assert WRITE_FLAG * 4 < 2**63 - 1
