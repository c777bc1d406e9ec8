"""The shared sweep executor's contract, held against every suite.

Every suite — campaign, conformance, faults, traffic, tune, scale and the
paper's figures — runs its points through :func:`repro.bench.campaign.run_sweep`, so each must show the
same four properties on a tiny grid: a warm re-run serves every point from
the cache with the cold rows, ``refresh`` recomputes, ``cache=False`` stores
nothing, and ``jobs=2`` produces the report ``jobs=1`` does.
"""

from __future__ import annotations

import pytest

from repro.bench import experiments
from repro.bench.campaign import CampaignSpec, cache_epoch, default_jobs, run_campaign
from repro.bench.conformance import run_conformance
from repro.bench.faults import run_faults
from repro.control.tune import TuneGrid, run_tune
from repro.scale.engine import run_scale, scale_spec
from repro.traffic.engine import run_traffic, traffic_spec

#: Host-dependent fields (and the transient cache marker) left out of every
#: comparison; everything else must be bit-identical.
_UNSTABLE = frozenset({"cached", "wall_s", "sim_ops_per_s", "sampled_wall_s"})

#: Each suite at a size where every sweep has at least two points per
#: executor call, so ``jobs=2`` really fans out over the pool.
SWEEPS = {
    "campaign": lambda **kw: run_campaign(
        CampaignSpec(
            name="contract-tiny", schemes=("rma-mcs",), benchmarks=("ecsb",),
            process_counts=(4, 8), iterations=2, procs_per_node=4,
        ),
        **kw,
    ),
    "conformance": lambda **kw: run_conformance(
        schemes=["ticket"], benchmarks=["wcsb"], process_counts=[4], seeds=1,
        iterations=2, **kw,
    ),
    "faults": lambda **kw: run_faults(
        seeds=1, schemes=["lease-lock"], scenarios=["holder-crash", "waiter-crash"],
        iterations=3, **kw,
    ),
    "traffic": lambda **kw: run_traffic(
        traffic_spec(
            schemes=("fompi-spin", "rma-mcs"), scenarios=("traffic-zipf",),
            process_counts=(8,), iterations=2,
        ),
        **kw,
    ),
    "tune": lambda **kw: run_tune(
        [TuneGrid(scheme="hbo", param="local_cap_us", scenario="traffic-zipf",
                  values=(0.5,), procs=8, iterations=2, procs_per_node=4)],
        **kw,
    ),
    "scale": lambda **kw: run_scale(
        scale_spec(scenarios=("scale-hot", "scale-hot-rehome"), iterations=8),
        fluid_names=("fluid-phased",), **kw,
    ),
    # Covers the fabric axis: end-point-only and Dragonfly-link points.
    "figures": lambda **kw: experiments.ablation_fabric_contention(
        process_counts=(8,), iterations=2, procs_per_node=4, **kw,
    ),
}


def _stable(value):
    """``value`` without the host-dependent fields, at any depth."""
    if isinstance(value, dict):
        return {k: _stable(v) for k, v in value.items() if k not in _UNSTABLE}
    if isinstance(value, list):
        return [_stable(v) for v in value]
    return value


@pytest.fixture(scope="module", params=sorted(SWEEPS))
def sweep(request, tmp_path_factory):
    """(runner, its cache directory, the cold report that filled it)."""
    run = SWEEPS[request.param]
    cache_dir = tmp_path_factory.mktemp(f"cache-{request.param}")
    cold = run(jobs=1, cache_dir=cache_dir)
    assert cold.points > 1
    assert cold.cache_hits == 0 and cold.cache_misses == cold.points
    return run, cache_dir, cold


def test_warm_rerun_serves_every_point_from_the_cache(sweep):
    run, cache_dir, cold = sweep
    warm = run(jobs=1, cache_dir=cache_dir)
    assert warm.cache_hits == warm.points == cold.points
    assert warm.cache_misses == 0
    assert all(row["cached"] is True for row in warm.rows)
    assert _stable(warm.rows) == _stable(cold.rows)


def test_refresh_recomputes_and_refills(sweep):
    run, cache_dir, cold = sweep
    fresh = run(jobs=1, cache_dir=cache_dir, refresh=True)
    assert fresh.cache_hits == 0 and fresh.cache_misses == fresh.points
    assert all(row["cached"] is False for row in fresh.rows)
    assert _stable(fresh.rows) == _stable(cold.rows)
    assert run(jobs=1, cache_dir=cache_dir).cache_hits == cold.points


def test_no_cache_stores_nothing(sweep, tmp_path, monkeypatch):
    run, _, cold = sweep
    monkeypatch.setenv("REPRO_JOBS", "1")
    report = run(cache=False, cache_dir=tmp_path)
    assert list(tmp_path.iterdir()) == []
    assert report.cache_hits == 0 and report.cache_misses == report.points
    # Cached or not, a report names the cache epoch and the worker count
    # it was given (the default when none was).
    assert report.epoch == cold.epoch == cache_epoch()
    assert report.jobs == default_jobs() == 1
    assert _stable(report.rows) == _stable(cold.rows)


def test_jobs_do_not_change_the_report(sweep):
    run, _, cold = sweep
    serial = run(jobs=1, cache=False)
    parallel = run(jobs=2, cache=False)
    assert (serial.jobs, parallel.jobs) == (1, 2)
    assert _stable(parallel.rows) == _stable(serial.rows) == _stable(cold.rows)
    assert _stable(parallel.extra) == _stable(serial.extra)
