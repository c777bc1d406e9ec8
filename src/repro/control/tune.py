"""The offline half of the adaptive control plane: ``repro tune``.

The paper's Figure 4 sweeps the RMA-RW thresholds (DC/DR/DW/DT) one axis at
a time and shows the best setting is workload-dependent.  This module turns
that sensitivity study into a maintained artifact: threshold grids derived
from the registry's :meth:`~repro.api.registry.SchemeInfo.tunable_params`
metadata are swept through the cached campaign executor (tune points *are*
campaign points, sharing the content-addressed cache namespace and the row
schema — which is why this module needs no ``CACHE_SCHEMA_VERSION`` bump),
and the winners land in ``BENCH_tune.json``:

* a **best-known-thresholds table** — per ``(scheme, scenario, P)``, the
  parameter value minimizing the end-to-end p99, compared against the
  registered default, with a *refingerprint* certificate (the winning point
  re-run from scratch must reproduce its fingerprint bit-exactly);
* a **sensitivity series** per grid — the Figure-4 story, rendered as an
  ASCII figure by :func:`render_sensitivity`;
* the policy feed — :func:`policy_from_tune` folds the winners into a
  :class:`~repro.control.policy.PolicyTable` for the online controller.

``repro tune --bless`` refuses, and ``repro regress`` flags, a manifest that
:func:`repro.bench.regress.check_tune_manifest` rejects.  Grids cover any scheme
whose registration declares tunable parameters — third-party
``@register_scheme`` locks included, with zero tune-side code.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.api.registry import ParamSpec, get_benchmark, get_scheme
from repro.bench.campaign import (
    CampaignPoint,
    ResultCache,
    SweepReport,
    parallel_map,
    run_point,
    run_sweep,
)

__all__ = [
    "TuneGrid",
    "default_grids",
    "derive_axis",
    "policy_from_tune",
    "render_sensitivity",
    "run_tune",
]

#: Curated axes where the registered default alone cannot span the paper's
#: sensitivity range (``t_dc`` defaults to None = one counter per node, and
#: Figure 4e's ``t_r`` axis reaches further down than default/4).
_CURATED_AXES: Mapping[Tuple[str, str], Tuple[Any, ...]] = {
    ("rma-rw", "t_r"): (4, 16, 64, 256),
    ("rma-rw", "t_dc"): (1, 2, 8, 32),
    # The retry-vs-queue policy axis spans its two degenerate endpoints:
    # 0 = pure FIFO ticket queue, >= P = pure poll-retry (arxiv 1507.03274).
    ("lock-server", "queue_threshold"): (0, 1, 2, 8, 32),
}

_TUNE_PROCS = 32
_TUNE_ITERATIONS = 12
_TUNE_FW = 0.1
_TUNE_SEED = 11

#: (scheme, swept parameter, scenario) triples of the default tune suite.
#: The value axes come from the registry (:func:`derive_axis`); schemes
#: without an entry here are still sweepable via an explicit
#: :class:`TuneGrid`.
_DEFAULT_SUITE: Tuple[Tuple[str, str, str], ...] = (
    ("rma-rw", "t_r", "traffic-readheavy"),
    ("rma-rw", "t_r", "traffic-phased"),
    ("rma-rw", "t_dc", "traffic-phased"),
    ("hbo", "local_cap_us", "traffic-zipf"),
    ("lease-lock", "lease_us", "traffic-burst"),
    ("cohort", "max_local_passes", "traffic-zipf"),
    ("alock", "local_cap_us", "traffic-zipf"),
    ("lock-server", "queue_threshold", "traffic-zipf"),
)


def derive_axis(scheme: str, param: str) -> Tuple[Any, ...]:
    """Sweep values for one tunable parameter, from registry metadata.

    Curated axes win; otherwise the axis brackets the registered default by
    a factor of four on each side (``{default/4, default, 4*default}``),
    which is how a third-party lock's thresholds become sweepable with no
    tune-side registration at all.  Raises for parameters the scheme did not
    declare tunable or whose default cannot seed an axis.
    """
    curated = _CURATED_AXES.get((scheme, param))
    if curated is not None:
        return curated
    info = get_scheme(scheme)
    spec = info.param(param)
    if not spec.is_tunable:
        raise ValueError(f"{scheme} parameter {param!r} is not tunable")
    return _bracket_default(spec)


def _bracket_default(spec: ParamSpec) -> Tuple[Any, ...]:
    default = spec.default
    if not isinstance(default, (int, float)) or isinstance(default, bool) or default <= 0:
        raise ValueError(
            f"parameter {spec.name!r} has no positive numeric default to "
            f"bracket; provide a curated axis"
        )
    if spec.type is int:
        values = sorted({max(1, int(default) // 4), int(default), int(default) * 4})
    else:
        values = [default / 4.0, float(default), default * 4.0]
    return tuple(values)


@dataclass(frozen=True)
class TuneGrid:
    """One sensitivity axis: a scheme parameter swept on one traffic scenario.

    ``values`` are the swept settings; the registered-default point (no
    parameter override at all) always runs alongside them as the comparison
    baseline, so a grid of N values costs N + 1 campaign points (warm sweeps
    are cache hits).
    """

    scheme: str
    param: str
    scenario: str
    values: Tuple[Any, ...]
    procs: int = _TUNE_PROCS
    iterations: int = _TUNE_ITERATIONS
    fw: float = _TUNE_FW
    seed: int = _TUNE_SEED
    procs_per_node: int = 8

    def __post_init__(self) -> None:
        info = get_scheme(self.scheme)
        info.param(self.param)
        get_benchmark(self.scenario)
        if not self.values:
            raise ValueError("a tune grid needs at least one swept value")
        if not info.harness:
            # Adapter-driven schemes only apply parameters their conformance
            # adapter accepts (see repro.bench.harness._build_adapter_spec).
            # A grid sweeping a parameter the adapter drops would silently
            # measure the same point N times — refuse it up front.
            import inspect

            adapter = info.conformance_adapter
            if adapter is None:
                raise ValueError(
                    f"scheme {self.scheme!r} has no conformance adapter and "
                    f"cannot run under the tune sweep"
                )
            signature = inspect.signature(adapter)
            takes_kwargs = any(
                p.kind is inspect.Parameter.VAR_KEYWORD
                for p in signature.parameters.values()
            )
            if not takes_kwargs and self.param not in signature.parameters:
                accepted = [
                    name for name in signature.parameters if name != "machine"
                ]
                raise ValueError(
                    f"tune grid {self.scheme}/{self.param} would be a silent "
                    f"no-op: the scheme runs through its conformance adapter, "
                    f"which does not accept parameter {self.param!r} "
                    f"(accepted: {', '.join(accepted) or 'none'})"
                )

    @property
    def name(self) -> str:
        return f"{self.scheme}/{self.param}@{self.scenario}-p{self.procs}"

    def _point(self, params: Tuple[Tuple[str, Any], ...]) -> CampaignPoint:
        return CampaignPoint(
            scheme=self.scheme,
            benchmark=self.scenario,
            procs=self.procs,
            procs_per_node=self.procs_per_node,
            iterations=self.iterations,
            fw=self.fw,
            seed=self.seed,
            params=params,
        )

    def default_point(self) -> CampaignPoint:
        return self._point(())

    def points(self) -> List[CampaignPoint]:
        return [self.default_point()] + [
            self._point(((self.param, value),)) for value in self.values
        ]


def default_grids() -> Tuple[TuneGrid, ...]:
    """The built-in tune suite."""
    return tuple(
        TuneGrid(scheme=scheme, param=param, scenario=scenario, values=derive_axis(scheme, param))
        for scheme, param, scenario in _DEFAULT_SUITE
    )


def _p99(row: Mapping[str, Any]) -> float:
    return float((row.get("percentiles") or {}).get("e2e_p99_us", 0.0))


def run_tune(
    grids: Optional[Sequence[TuneGrid]] = None,
    *,
    jobs: Optional[int] = None,
    cache: "ResultCache | bool | None" = None,
    cache_dir: Optional[Path] = None,
    refresh: bool = False,
) -> SweepReport:
    """Sweep the grids through :func:`~repro.bench.campaign.run_sweep`.

    Per grid the report carries one *best row* (value minimizing the e2e p99,
    ties to the smaller value) with the default point's p99 for comparison
    and a **refingerprint** certificate: the winning point is re-run from
    scratch — never served from the cache — and must reproduce its
    fingerprint bit-exactly, which is what ``repro regress`` later verifies
    on the committed manifest.  ``extra`` carries ``scheduler``, ``best``
    and ``sensitivity``; ``wall_s`` includes the winner re-runs.
    """
    if grids is None:
        grids = default_grids()
    grids = list(grids)

    t0 = time.perf_counter()
    # One flat, deduplicated point list (grids may share their default point).
    points: List[CampaignPoint] = []
    index: Dict[str, int] = {}
    for grid in grids:
        for point in grid.points():
            if point.case not in index:
                index[point.case] = len(points)
                points.append(point)
    report = run_sweep(
        "tune", "tune-suite", points, run_point,
        jobs=jobs, cache=cache, cache_dir=cache_dir, refresh=refresh,
    )
    rows = report.rows

    # Winner re-runs: always computed fresh (the certificate would be
    # worthless if it could be served by the entry it certifies).
    best_rows: List[Dict[str, Any]] = []
    sensitivity: List[Dict[str, Any]] = []
    refire: List[Tuple[int, CampaignPoint]] = []
    for gi, grid in enumerate(grids):
        default_row = rows[index[grid.default_point().case]]
        series: List[Dict[str, Any]] = []
        winner: Optional[Tuple[float, Any, Dict[str, Any], CampaignPoint]] = None
        for value in grid.values:
            point = grid._point(((grid.param, value),))
            row = rows[index[point.case]]
            p99 = _p99(row)
            series.append({"value": value, "e2e_p99_us": p99})
            if winner is None or p99 < winner[0]:
                winner = (p99, value, row, point)
        assert winner is not None
        best_p99, best_value, best_row, best_point = winner
        default_p99 = _p99(default_row)
        improvement = (
            100.0 * (default_p99 - best_p99) / default_p99 if default_p99 > 0 else 0.0
        )
        best_rows.append(
            {
                "grid": grid.name,
                "scheme": grid.scheme,
                "benchmark": grid.scenario,
                "P": grid.procs,
                "param": grid.param,
                "best_value": best_value,
                "params": {grid.param: best_value},
                "e2e_p99_us": best_p99,
                "default_p99_us": default_p99,
                "improvement_pct": round(improvement, 3),
                "best_case": best_row["case"],
                "fingerprint": best_row["fingerprint"],
                "refingerprint": "",
            }
        )
        sensitivity.append(
            {
                "grid": grid.name,
                "scheme": grid.scheme,
                "benchmark": grid.scenario,
                "param": grid.param,
                "series": series,
                "default_p99_us": default_p99,
            }
        )
        refire.append((gi, best_point))
    for (gi, _), rerun in zip(
        refire, parallel_map(run_point, [p for _, p in refire], jobs=jobs)
    ):
        best_rows[gi]["refingerprint"] = rerun["fingerprint"]

    report.wall_s = time.perf_counter() - t0
    report.extra.update(scheduler="horizon", best=best_rows, sensitivity=sensitivity)
    return report


def render_sensitivity(sensitivity: Sequence[Mapping[str, Any]], *, width: int = 44) -> str:
    """The Figure-4 story as ASCII bars: per grid, p99 across the axis.

    ``sensitivity`` is a tune report's ``extra["sensitivity"]`` series.
    """
    from repro.bench.ascii_plot import bar_chart

    blocks: List[str] = []
    for entry in sensitivity:
        items = {
            f"{entry['param']}={point['value']}": point["e2e_p99_us"]
            for point in entry["series"]
        }
        items["default"] = entry["default_p99_us"]
        blocks.append(
            bar_chart(
                items,
                width=width,
                title=f"{entry['scheme']} @ {entry['benchmark']} — e2e p99 [us]",
                unit="us",
            )
        )
    return "\n\n".join(blocks)


def policy_from_tune(
    best: "Sequence[Mapping[str, Any]] | Mapping[str, Any] | Path",
    *,
    max_swaps_per_boundary: int = 4,
) -> "PolicyTable":
    """Fold a tune result into a :class:`~repro.control.policy.PolicyTable`.

    Accepts a best-row list, a loaded manifest dict or a manifest path.  Each
    best row becomes one rule targeting its scheme with its winning
    threshold; the stats window comes from the decision scenario's registered
    writer fraction (read-heavy scenarios gate on a high read fraction,
    write-heavy ones on a low one), so the online controller reproduces the
    offline winner on the workload it was tuned for.
    """
    import json

    from repro.control.policy import PolicyRule, PolicyTable
    from repro.traffic.scenarios import BUILTIN_SCENARIOS

    if isinstance(best, Path):
        best = json.loads(best.read_text())
    if isinstance(best, Mapping):
        best = best.get("best") or ()

    scenario_fw = {s.name: s.fw for s in BUILTIN_SCENARIOS}
    rules: List[PolicyRule] = []
    seen: set = set()
    for row in best:
        key = (row["scheme"], row["benchmark"])
        if key in seen:
            continue
        seen.add(key)
        fw_raw = scenario_fw.get(row["benchmark"])
        fw = _TUNE_FW if fw_raw is None else float(fw_raw)
        read_heavy = fw < 0.5
        rules.append(
            PolicyRule(
                name=f"tuned-{row['scheme']}-{row['param']}",
                scheme=row["scheme"],
                params=tuple(sorted(row["params"].items())),
                min_read_fraction=0.5 if read_heavy else 0.0,
                max_read_fraction=1.0 if read_heavy else 0.5,
                min_requests=2,
            )
        )
    return PolicyTable(rules=tuple(rules), max_swaps_per_boundary=max_swaps_per_boundary)
