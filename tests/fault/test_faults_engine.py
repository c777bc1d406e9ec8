"""The fault sweep engine end to end on a narrowed grid.

One cache-less ``run_faults`` over a cross-section of schemes (a recoverer
and a lease-free control) pins the verdict taxonomy.  The known mutants are
not swept: ``repro verify`` judges them (``tests/test_cli.py -k verify``,
``tests/verification/test_crash_explorer.py -k racy``).  The
jobs=1 ≡ jobs=N contract is the shared executor's
(``tests/bench/test_sweep_contract.py``); every point equals the reference
interpreter under ``tests/rma/test_step_programs.py -k no_rank_thread``.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.bench.campaign import get_campaign
from repro.bench.faults import (
    FaultPoint,
    fault_points,
    run_fault_point,
    run_faults,
    scheme_verdicts,
)
from repro.fault import FAULT_SCENARIOS, recovery_info
from repro.verification.explorer import KNOWN_MUTANTS

SCHEMES = ("lease-lock", "rma-mcs")


@pytest.fixture(scope="module")
def report():
    return run_faults(seeds=2, jobs=1, cache=False, schemes=SCHEMES)


def test_sweep_passes_and_covers_the_grid(report):
    assert report.ok, report.failures
    # schemes x scenarios x crash seeds, one row each.
    assert report.points == len(SCHEMES) * 3 * 2
    assert report.extra["seeds"] == 2 and report.cache_hits == 0


def test_verdicts_match_declared_capabilities(report):
    statuses = {}
    for row in report.rows:
        statuses.setdefault(row["scheme"], set()).add(row["status"])
    # The lease lock declares every scenario and must actually recover
    # somewhere (placement may occasionally yield not-manifested points).
    assert statuses["lease-lock"] & {"recovered", "tolerated"}
    assert "expected-unavailable" not in statuses["lease-lock"]
    # The lease-free control declares nothing: unavailability is expected,
    # reported as such rather than as a false pass.
    assert "recovered" not in statuses["rma-mcs"]
    # An abort is honest unavailability: it names its kind, not a violation.
    aborted = [row for row in report.rows if row["status"] == "expected-unavailable"]
    assert aborted and all(row["abort"] and not row["violations"] for row in aborted)


def test_scheme_verdicts_aggregate(report):
    verdicts = {v["scheme"]: v for v in report.extra["schemes"]}
    assert set(verdicts) == set(SCHEMES)
    for v in verdicts.values():
        assert v["verdict"] == "ok"
        assert v["points"] == 6


def test_scheme_verdict_recovery_p50_is_nearest_rank():
    # The lower median of an even count, as every other p50 in the repo.
    rows = [
        {"scheme": "s", "ok": True, "status": "recovered", "recovery_us": [4.0, 1.0]},
        {"scheme": "s", "ok": True, "status": "recovered", "recovery_us": [3.0, 2.0]},
    ]
    (verdict,) = scheme_verdicts(rows)
    assert verdict["recovery_p50_us"] == 2.0


def test_fault_point_grid_and_reexecution():
    points = fault_points(seeds=2, schemes=["lease-lock"], scenarios=["holder-crash"])
    assert [p.crash_seed for p in points] == [1, 2]
    point = points[0]
    assert isinstance(point, FaultPoint)
    assert point.case.startswith("lease-lock-holder-crash-")
    # Same point, same row: the verdict is a pure function of the point.
    first = run_fault_point(point)
    second = run_fault_point(point)
    assert first == second
    assert first["ok"]


def test_a_short_lease_lock_run_outlives_its_lease():
    """The fault horizon leaves room past the declared lease, so a holder
    crash in a short run is taken over, not aborted as a lost lock."""
    report = run_faults(seeds=2, jobs=1, cache=False, schemes=["lease-lock"], iterations=4)
    assert report.ok, report.failures
    assert {row["status"] for row in report.rows} == {"recovered"}
    lease_us = recovery_info("lease-lock").lease_us
    for row in report.rows:
        assert row["horizon_us"] >= 4 * row["probe_makespan_us"] + lease_us, row["case"]


@pytest.mark.parametrize(
    "narrow",
    [{}, dict(schemes=("lease-lock", "rma-mcs"), scenarios=("holder-crash", "restart"),
              process_counts=(6,))],
    ids=["registered", "narrowed"],
)
def test_fault_points_are_the_conformance_grid_times_scenario_and_crash_seed(narrow):
    """The fault grid is the ``conformance`` campaign narrowed to wcsb at
    P = 4 and 6 iterations, × scenario × crash seed, in that order, without
    the known mutants."""
    spec = replace(get_campaign("conformance"), benchmarks=("wcsb",),
                   process_counts=narrow.get("process_counts", (4,)), iterations=6)
    if "schemes" in narrow:
        spec = replace(spec, schemes=narrow["schemes"])
    expected = [
        (f"{p.scheme}-{scenario}-p{p.procs}-s{p.seed}-k{k}", p.config())
        for p in spec.points()
        if p.scheme not in KNOWN_MUTANTS
        for scenario in narrow.get("scenarios", FAULT_SCENARIOS)
        for k in (1, 2)
    ]
    points = fault_points(seeds=2, **narrow)
    assert [(point.case, point.point.config()) for point in points] == expected


@pytest.mark.parametrize("schemes", [None, ["all"]], ids=["default", "all"])
def test_a_selector_skips_the_known_mutants(schemes):
    """The default ``conformance`` selector and ``all`` both match every
    known mutant; the fault grid holds none of them."""
    selected = replace(get_campaign("conformance"), schemes=tuple(schemes or ("conformance",)))
    assert set(KNOWN_MUTANTS) <= set(selected.resolve_schemes())
    points = fault_points(seeds=1, schemes=schemes)
    assert points and not {p.point.scheme for p in points} & set(KNOWN_MUTANTS)
