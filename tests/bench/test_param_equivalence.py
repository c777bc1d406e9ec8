"""``--param NAME=VALUE`` is an exact synonym of the config field of that name.

For every RMA-RW threshold, the overlay ``repro bench --param name=VALUE``
builds must give campaign cache keys and run fingerprints bit-identical to
the library spelling ``LockBenchConfig(name=value)`` — the CLI coerces each
value with the scheme's ParamSpec, so a JSON list (``t_l=[2, 4]``) becomes
the same tuple the field holds.

The same holds for every parameter any built-in scheme registers: the CLI
overlay is the typed overlay a library caller writes (a float parameter
given as a JSON integer becomes a float, so its float-exact cache key
matches), and the value reaches the lock.
"""

from __future__ import annotations

import functools

import pytest

from repro.api.registry import get_scheme, scheme_names
from repro.bench.campaign import CampaignPoint, ResultCache, run_result_sha
from repro.bench.harness import run_lock_benchmark_detailed
from repro.bench.workloads import LockBenchConfig
from repro.cli import _parse_param_assignments, build_parser
from repro.fault.plan import LockTimeout
from repro.topology.builder import xc30_like

#: (--param value, config field kwargs) per threshold.
PARAM_CASES = [
    pytest.param("t_r=16", {"t_r": 16}, id="t_r"),
    pytest.param("t_dc=2", {"t_dc": 2}, id="t_dc"),
    pytest.param("t_w=8", {"t_w": 8}, id="t_w"),
    pytest.param("t_l=[2, 4]", {"t_l": (2, 4)}, id="t_l"),
]

#: (scheme, --param value, the typed pair it must become), one per registered
#: ParamSpec.  Each value changes what an 8-rank wcsb run does.
REGISTERED_PARAMS = [
    ("rma-mcs", "t_l=[1, 1]", ("t_l", (1, 1))),
    ("rma-rw", "t_dc=2", ("t_dc", 2)),
    ("rma-rw", "t_l=[1, 1]", ("t_l", (1, 1))),
    ("rma-rw", "t_r=4", ("t_r", 4)),
    ("rma-rw", "t_w=2", ("t_w", 2)),
    ("ticket", "home_rank=5", ("home_rank", 5)),
    ("hbo", "local_cap_us=1", ("local_cap_us", 1.0)),
    ("hbo", "remote_cap_us=5", ("remote_cap_us", 5.0)),
    ("hbo", "min_backoff_us=1", ("min_backoff_us", 1.0)),
    ("cohort", "max_local_passes=1", ("max_local_passes", 1)),
    ("numa-rw", "max_local_passes=1", ("max_local_passes", 1)),
    ("alock", "home_rank=5", ("home_rank", 5)),
    ("alock", "local_cap_us=1", ("local_cap_us", 1.0)),
    ("alock", "remote_cap_us=5", ("remote_cap_us", 5.0)),
    ("alock", "min_backoff_us=1", ("min_backoff_us", 1.0)),
    ("lock-server", "server_rank=5", ("server_rank", 5)),
    ("lock-server", "queue_threshold=0", ("queue_threshold", 0)),
    ("lock-server", "poll_cap_us=2", ("poll_cap_us", 2.0)),
    ("lock-server", "min_backoff_us=1", ("min_backoff_us", 1.0)),
    ("lease-lock", "home_rank=5", ("home_rank", 5)),
    ("lease-lock", "lease_us=2", ("lease_us", 2.0)),
    ("lease-lock", "patience_us=100", ("patience_us", 100.0)),
    ("repair-mcs", "home_rank=5", ("home_rank", 5)),
    ("repair-mcs-racy", "home_rank=5", ("home_rank", 5)),
]
REGISTERED_IDS = [f"{scheme}-{pair[0]}" for scheme, _, pair in REGISTERED_PARAMS]


def _cli_overlay(param_value, scheme="rma-rw"):
    args = build_parser().parse_args(
        ["bench", "--scheme", scheme, "--procs", "8", "--param", param_value]
    )
    return _parse_param_assignments(args.scheme_params, args.scheme)


def _wcsb_outcome(scheme, params):
    """The run's fingerprint, or the timeout a short ``patience_us`` causes."""
    config = LockBenchConfig(
        machine=xc30_like(8, procs_per_node=4), scheme=scheme, benchmark="wcsb",
        iterations=4, fw=0.2, seed=3, params=params,
    )
    try:
        _, raw = run_lock_benchmark_detailed(config)
    except LockTimeout as exc:
        return f"LockTimeout: {exc}"
    return run_result_sha(raw)


@functools.lru_cache(maxsize=None)
def _default_outcome(scheme):
    return _wcsb_outcome(scheme, ())


class TestParamFieldEquivalence:
    @pytest.mark.parametrize("param_value,fields", PARAM_CASES)
    def test_cache_keys_are_bit_identical(self, param_value, fields):
        overlay = _cli_overlay(param_value)
        assert overlay == tuple(fields.items())

        points = [
            CampaignPoint(
                scheme="rma-rw", benchmark="ecsb", procs=8, procs_per_node=4,
                iterations=4, fw=0.2, seed=3, params=params,
            )
            for params in (overlay, tuple(sorted(fields.items())))
        ]
        assert points[0].describe() == points[1].describe()
        assert points[0].case == points[1].case
        cache = ResultCache()
        assert cache.key(points[0]) == cache.key(points[1])

    @pytest.mark.parametrize("param_value,fields", PARAM_CASES)
    def test_run_fingerprints_are_bit_identical(self, param_value, fields):
        machine = xc30_like(8, procs_per_node=4)
        shas = []
        for kwargs in ({"params": _cli_overlay(param_value)}, fields):
            config = LockBenchConfig(
                machine=machine, scheme="rma-rw", benchmark="ecsb",
                iterations=4, fw=0.2, seed=3, **kwargs,
            )
            _, raw = run_lock_benchmark_detailed(config)
            shas.append(run_result_sha(raw))
        assert shas[0] == shas[1]


class TestEveryRegisteredParam:
    def test_cases_cover_every_builtin_param(self):
        registered = {
            (scheme, spec.name)
            for scheme in scheme_names()
            if get_scheme(scheme).builder.__module__.startswith("repro.")
            for spec in get_scheme(scheme).params
        }
        assert {(scheme, pair[0]) for scheme, _, pair in REGISTERED_PARAMS} == registered

    @pytest.mark.parametrize("scheme,param_value,typed", REGISTERED_PARAMS, ids=REGISTERED_IDS)
    def test_cli_overlay_is_the_typed_overlay(self, scheme, param_value, typed):
        overlay = _cli_overlay(param_value, scheme)
        assert overlay == (typed,)
        assert type(overlay[0][1]) is type(typed[1])

        points = [
            CampaignPoint(
                scheme=scheme, benchmark="wcsb", procs=8, procs_per_node=4,
                iterations=4, fw=0.2, seed=3, params=params,
            )
            for params in (overlay, (typed,))
        ]
        assert points[0].case == points[1].case
        cache = ResultCache()
        assert cache.key(points[0]) == cache.key(points[1])

    @pytest.mark.parametrize("scheme,param_value,typed", REGISTERED_PARAMS, ids=REGISTERED_IDS)
    def test_cli_overlay_reaches_the_lock(self, scheme, param_value, typed):
        outcome = _wcsb_outcome(scheme, _cli_overlay(param_value, scheme))
        assert outcome == _wcsb_outcome(scheme, (typed,))
        assert outcome != _default_outcome(scheme)
