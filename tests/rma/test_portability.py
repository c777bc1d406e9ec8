"""Tests for the Table-3 portability data."""

from __future__ import annotations

import pytest

from repro.rma.portability import (
    PORTABILITY_TABLE,
    environments,
    operations,
    supports_all_required_ops,
)

REQUIRED_OPS = {"put", "get", "accumulate", "fao_sum", "fao_replace", "cas"}


class TestTable3:
    def test_all_six_environments_present(self):
        assert environments() == [
            "upc", "berkeley-upc", "shmem", "fortran-2008", "rdma-ib", "iwarp",
        ]

    def test_every_environment_covers_every_operation(self):
        for env in environments():
            assert set(operations(env)) == REQUIRED_OPS

    def test_fortran_swap_caveat(self):
        fortran = operations("fortran-2008")
        assert not fortran["fao_replace"].supported
        assert "swap" in fortran["fao_replace"].note

    def test_all_other_environments_fully_supported(self):
        for env in environments():
            if env == "fortran-2008":
                assert not supports_all_required_ops(env)
            else:
                assert supports_all_required_ops(env)

    def test_unknown_environment(self):
        with pytest.raises(KeyError):
            operations("openmp")

    def test_table_rows_are_unique(self):
        keys = [(e.environment, e.operation) for e in PORTABILITY_TABLE]
        assert len(keys) == len(set(keys)) == 36
