"""``run_result_sha``'s one-pass canonical JSON equals the two-pass form."""

from __future__ import annotations

import hashlib
import json
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench.campaign import canonical_json, canonical_value, run_result_sha


def reference_json(value):
    """The two-pass form: canonicalize, then ``json.dumps(..., sort_keys=True)``."""
    return json.dumps(canonical_value(value), sort_keys=True)


def reference_sha(result):
    """``run_result_sha`` as it was written before the one-pass encoder."""
    blob = reference_json(
        {
            "finish_times_us": list(result.finish_times_us),
            "total_time_us": result.total_time_us,
            "op_counts": dict(result.op_counts),
            "per_rank_op_counts": [dict(c) for c in result.per_rank_op_counts],
            "returns": result.returns,
        }
    )
    return hashlib.sha256(blob.encode()).hexdigest()


_FLOATS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, float("inf"), float("-inf")]),
)
_STRINGS = st.one_of(
    st.text(),
    st.sampled_from(['"', "\\", "\n\t\x00\x1f", "é", " ", "😀", "\ud800", "key: value, x"]),
)
_SCALARS = st.one_of(
    _FLOATS,
    st.integers(),
    st.integers(min_value=-(10**40), max_value=10**40),
    st.booleans(),
    st.none(),
    _STRINGS,
)
_VALUES = st.recursive(
    _SCALARS,
    lambda inner: st.one_of(
        st.lists(inner, max_size=6),
        st.lists(_FLOATS, max_size=6),
        st.lists(st.integers(), max_size=6),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(_STRINGS, inner, max_size=5),
    ),
    max_leaves=40,
)


class TestCanonicalJson:
    @given(value=_VALUES)
    @settings(max_examples=400, deadline=None)
    def test_equals_the_two_pass_form(self, value):
        assert canonical_json(value) == reference_json(value)

    def test_unhandled_types_fall_back(self):
        """numpy scalars, bool/int subclasses and non-str keys take the
        two-pass form (a float subclass still hexes through canonical_value)."""

        class Flag(int):
            pass

        for value in (
            {"x": [np.float64(0.1), 1.5]},
            [1, Flag(2)],
            {2: "a", 10: 2.5},
            {"outer": {2: [0.5]}},
            (np.float64(-0.0),),
        ):
            assert canonical_json(value) == reference_json(value), value
        # What the two-pass form cannot encode, neither can the one-pass one.
        with pytest.raises(TypeError, match="int64"):
            canonical_json({"x": np.int64(3)})

    @given(
        returns=st.lists(
            st.dictionaries(
                st.sampled_from(["latencies", "arrivals", "phases", "reads", "start", "ok"]),
                st.one_of(st.lists(_FLOATS, max_size=8), st.lists(st.integers(), max_size=8), _SCALARS),
                max_size=6,
            ),
            min_size=1,
            max_size=4,
        ),
        finish=st.lists(_FLOATS, min_size=1, max_size=4),
    )
    @settings(max_examples=200, deadline=None)
    def test_run_result_sha_is_unchanged(self, returns, finish):
        result = SimpleNamespace(
            finish_times_us=finish,
            total_time_us=max(finish, default=0.0),
            op_counts={"put": 3, "get": 4},
            per_rank_op_counts=[{"put": 1}, {"get": 2, "flush": 0}],
            returns=returns,
        )
        assert run_result_sha(result) == reference_sha(result)

    def test_a_real_run_fingerprints_the_same(self):
        from repro.bench.harness import run_lock_benchmark_detailed
        from repro.bench.workloads import LockBenchConfig
        from repro.topology.builder import xc30_like

        for benchmark in ("ecsb", "traffic-phased"):
            config = LockBenchConfig(
                machine=xc30_like(8, procs_per_node=4), scheme="d-mcs",
                benchmark=benchmark, iterations=6,
            )
            _, raw = run_lock_benchmark_detailed(config)
            assert run_result_sha(raw) == reference_sha(raw)
