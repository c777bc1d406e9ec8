"""The sweep subcommands as one table: ``conform``, ``faults``, ``traffic``,
``scale`` and ``tune``.

Each :class:`Suite` record builds its subcommand's parser, carries its
``--smoke`` grid, binds its runner from the parsed flags and prints its
report; :mod:`repro.cli` generates its parser and dispatch from
:data:`SUITES`.  Every sweep, ``campaign run`` and ``regress --bless``
included, runs through :func:`sweep` and ends with :func:`finish`.  The
suites' engines are imported on use, so importing this module stays light.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass, field, replace
from functools import partial
from pathlib import Path
from typing import Any, Callable, Dict, Mapping, Optional, Sequence, Tuple, Union

from repro.api.registry import get_scheme
from repro.bench.campaign import SweepReport, write_manifest_json
from repro.bench.regress import bless_sweep, manifest_path
from repro.bench.report import format_table

__all__ = ["SUITES", "Suite", "add_sweep_flags", "finish", "run_suite", "sweep"]


_MANY: Dict[str, Any] = {"nargs": "+"}
_INT: Dict[str, Any] = {"type": int}
_INTS: Dict[str, Any] = {"type": int, "nargs": "+"}
_ON: Dict[str, Any] = {"action": "store_true"}

#: The flags the sweep subcommands share, each defined once, as ``(group,
#: flag, keywords, help)``: a subcommand takes the ``None`` group and the
#: groups it names.
_SHARED: Tuple[Tuple[Optional[str], str, Dict[str, Any], str], ...] = (
    (None, "--jobs", _INT, "worker processes (default: REPRO_JOBS or all cores; rows are "
                           "bit-identical regardless)"),
    ("cache", "--no-cache", _ON, "compute every point, store nothing"),
    ("cache", "--refresh", _ON, "ignore cached rows but refresh the cache (needed only after "
                                "editing an --import provider: the cache epoch tracks the repro "
                                "sources)"),
    (None, "--cache-dir", {}, "cache root (default: <repo>/.repro-cache)"),
    (None, "--output", {}, "write the sweep's JSON manifest here (CI artifact)"),
    ("bless", "--bless", _ON, "record a new committed baseline through the campaign cache (cold run, "
                              "then a warm run that must hit every row); refuses a manifest `repro "
                              "regress` would flag"),
    ("bless", "--baseline", {}, "baseline manifest path (default: the suite's committed "
                                "<repo>/BENCH_*.json)"),
    ("imports", "--import", {"dest": "imports", "action": "append", "default": [], "metavar": "MODULE"},
     "import a third-party lock provider first (module name or path/to/file.py; repeatable) so its "
     "@register_scheme locks join the sweep"),
)


def add_sweep_flags(parser: argparse.ArgumentParser, *groups: str) -> None:
    """Add the shared flags of the ``groups`` (``cache``, ``bless``, ``imports``)."""
    for group, flag, kind, help_ in _SHARED:
        if group is None or group in groups:
            parser.add_argument(flag, help=help_, **kind)


def sweep(
    args: argparse.Namespace,
    run: Callable[..., SweepReport],
    baseline: Optional[Path] = None,
) -> Tuple[SweepReport, Optional[Tuple[Path, Dict[str, Any]]]]:
    """Run one suite from its shared flags, or bless it under ``--bless``.

    ``run`` is the suite's runner with everything but the cache arguments
    bound.  Returns the report and, for a bless, the written baseline path
    with its timing block.
    """
    run = partial(run, cache_dir=Path(args.cache_dir) if args.cache_dir else None)
    if getattr(args, "bless", False):
        if getattr(args, "no_cache", False):
            raise ValueError("--bless needs the cache for its warm run; drop --no-cache")
        path = Path(args.baseline) if args.baseline else baseline
        report, timing = bless_sweep(run, path, jobs=args.jobs)
        return report, (path, timing)
    report = run(
        jobs=args.jobs, cache=False if args.no_cache else None, refresh=args.refresh
    )
    return report, None


def finish(
    args: argparse.Namespace,
    report: SweepReport,
    blessed: Optional[Tuple[Path, Dict[str, Any]]],
    what: str = "points",
) -> None:
    """The summary line, then the manifest: the blessed file copied to
    ``--output``, or the report written there."""
    print(f"\n{report.summary(what)}")
    if blessed is not None:
        path, timing = blessed
        print(
            f"blessed {path} ({report.points} rows; cold {timing['cold_wall_s']}s, "
            f"warm {timing['warm_wall_s']}s)"
        )
        if args.output and Path(args.output) != path:
            # Verbatim copy so the secondary report keeps the timing record
            # the bless just measured.
            Path(args.output).write_text(path.read_text())
            print(f"wrote {args.output}")
    elif args.output:
        print(f"wrote {write_manifest_json(report, Path(args.output))}")


#: What ``run`` and ``show`` of a :class:`Suite` return.
_Runner = Union[int, Callable[..., SweepReport]]
_Shown = Tuple[str, int, Optional[str]]


@dataclass(frozen=True)
class Suite:
    """One sweep subcommand.

    ``flags`` are its own ``(flag, add_argument keywords, help)``, in help
    order, after the ``cache`` and ``shared`` groups of :func:`add_sweep_flags`.
    ``smoke`` holds the values ``--smoke`` gives those attributes of
    ``args`` that no flag set (each is None otherwise).  ``run(args)``
    returns the runner with all but the cache arguments bound, or the exit
    code when it finished the command itself.  ``show(args, report)`` prints
    the report's tables and returns the noun of the summary line, the exit
    code and the verdict line printed after the summary (None for none).
    """

    name: str
    help: str
    flags: Tuple[Tuple[str, Dict[str, Any], str], ...]
    run: Callable[[argparse.Namespace], _Runner]
    show: Callable[[argparse.Namespace, SweepReport], _Shown]
    shared: Tuple[str, ...] = ()
    smoke: Mapping[str, Any] = field(default_factory=dict)


def _refuse(args: argparse.Namespace, names: Sequence[str], why: str) -> None:
    """A usage error naming each given flag of ``names`` (attribute names)."""
    given = [
        f"--{name.replace('_', '-')}" for name in names if getattr(args, name) not in (None, False)
    ]
    if given:
        raise ValueError(f"{' and '.join(given)} {why}")


def _verdicts(
    what: str,
    columns: Tuple[str, ...],
    passed: str,
    vacuous: Callable[[SweepReport], Optional[str]] = lambda report: None,
) -> Callable[[argparse.Namespace, SweepReport], _Shown]:
    """The display of a verdict suite: the per-scheme table, the failing
    points' ``columns``, and the verdict, ``passed`` only when every point
    passed and ``vacuous`` names no reason that nothing was judged."""

    def show(args: argparse.Namespace, report: SweepReport) -> _Shown:
        from repro.bench.conformance import failure_rows

        print(format_table(report.extra["schemes"]))
        verdict = vacuous(report)
        if not report.ok:
            print("\nfailing points:")
            print(format_table(failure_rows(report, columns)))
            verdict = f"verdict: {len(report.failures)} point(s) FAILED"
        if verdict is None:
            return what.format(**report.extra), 0, passed
        return what.format(**report.extra), 1, verdict

    return show


def _conform(args: argparse.Namespace) -> _Runner:
    from repro.bench.conformance import run_conformance

    return partial(
        run_conformance, seeds=args.seeds, recheck=not args.no_recheck, schemes=args.schemes,
        benchmarks=args.benchmarks, process_counts=args.procs, iterations=args.iterations,
    )


def _faults(args: argparse.Namespace) -> _Runner:
    from repro.bench.faults import run_faults

    seeds = {} if args.seeds is None else {"seeds": args.seeds}
    return partial(
        run_faults, schemes=args.schemes, scenarios=args.scenarios,
        process_counts=args.procs, iterations=args.iterations, **seeds,
    )


def _no_kill(report: SweepReport) -> Optional[str]:
    """A fault sweep in which no kill landed judged nothing."""
    if all(row["status"] in ("no-crash-window", "not-manifested") for row in report.rows):
        return "verdict: no point staged a kill that landed, so no recovery was judged"
    return None


#: The summary line of a traffic or scale sweep, which runs on ``horizon``.
_ON_HORIZON = "rows on scheduler(s) horizon"


def _traffic(args: argparse.Namespace) -> _Runner:
    from repro.traffic import engine

    spec = engine.traffic_spec(
        schemes=args.schemes, scenarios=args.scenarios, process_counts=args.procs,
        iterations=args.iterations,
    )
    if args.top_keys is None:
        return partial(engine.run_traffic, spec)
    _refuse(args, ("bless", "baseline", "output"), "cannot be used with --top-keys")
    # Analysis-only hot-key report: no simulation, no cache — just the
    # materialized schedules' per-entry request shares.
    rows = engine.top_key_rows(spec, top_keys=args.top_keys)
    print(format_table(rows))
    print(
        f"\ntop {args.top_keys} key(s) per scenario x P over "
        f"{len({r['scenario'] for r in rows})} scenario(s) (virtual-time analysis, "
        f"scheduler-independent)"
    )
    return 0


def _show_traffic(args: argparse.Namespace, report: SweepReport) -> _Shown:
    from repro.traffic.engine import traffic_display_rows

    print(format_table(traffic_display_rows(report.rows)))
    return _ON_HORIZON, 0, None


def _scale(args: argparse.Namespace) -> _Runner:
    from repro.scale import engine

    spec = engine.scale_spec(schemes=args.schemes, scenarios=args.scenarios, iterations=args.iterations)
    return partial(engine.run_scale, spec, fluid_names=args.fluid)


def _show_scale(args: argparse.Namespace, report: SweepReport) -> _Shown:
    from repro.scale.engine import scale_display_rows

    print(format_table(scale_display_rows(report)))
    fluid, rehome = report.extra["fluid"], report.extra["rehome"]
    fluid_ok = all(r["within_tolerance"] and r["fingerprints_identical"] for r in fluid)
    print(
        f"\nfluid: {len(fluid)} scenario(s), "
        f"{'all within tolerance' if fluid_ok else 'VALIDATION FAILED'}; "
        f"re-homing improved={rehome['improved']} over {len(rehome['pairs'])} pair(s)"
    )
    return _ON_HORIZON, 0 if fluid_ok else 1, None


def _tune(args: argparse.Namespace) -> _Runner:
    from repro.control import tune

    if args.scheme is None:
        _refuse(args, ("scenario", "tune_param"), "only apply with --scheme")
        grids = (
            [tune.TuneGrid(values=tune.derive_axis(g["scheme"], g["param"]), **g) for g in args.grids]
            if args.grids
            else list(tune.default_grids())
        )
    else:
        params = (
            [args.tune_param]
            if args.tune_param
            else [p.name for p in get_scheme(args.scheme).tunable_params()]
        )
        axes = {}
        for param in params:
            try:
                axes[param] = tune.derive_axis(args.scheme, param)
            except ValueError as exc:
                if args.tune_param:
                    raise
                # Without --tune-param, sweep what the registry can span.
                print(f"skipped: {exc}", file=sys.stderr)
        if not axes:
            that = " that tune can sweep" if params else ""
            print(f"scheme {args.scheme!r} declares no tunable parameters{that}", file=sys.stderr)
            return 2
        scenario = args.scenario or "traffic-zipf"
        grids = [tune.TuneGrid(args.scheme, param, scenario, values) for param, values in axes.items()]
    overrides = {
        k: v for k, v in (("procs", args.procs), ("iterations", args.iterations)) if v is not None
    }
    return partial(tune.run_tune, [replace(grid, **overrides) for grid in grids])


def _show_tune(args: argparse.Namespace, report: SweepReport) -> _Shown:
    from repro.control.tune import render_sensitivity

    print(render_sensitivity(report.extra["sensitivity"]))
    best_rows = [
        {
            "scheme": b["scheme"],
            "scenario": b["benchmark"],
            "P": b["P"],
            "param": b["param"],
            "best": b["best_value"],
            "p99_us": round(b["e2e_p99_us"], 2),
            "default_p99_us": round(b["default_p99_us"], 2),
            "improvement_pct": b["improvement_pct"],
            "certified": "yes" if b["fingerprint"] == b["refingerprint"] else "NO",
        }
        for b in report.extra["best"]
    ]
    print("\nBest-known thresholds (winner re-run certifies the fingerprint):")
    print(format_table(best_rows))
    return "grid points on horizon", 0, None


SUITES: Tuple[Suite, ...] = (
    Suite(
        "conform",
        "conformance & chaos sweep: perturbed schedules x live safety/fairness oracles",
        (
            ("--seeds", {"type": int, "default": 5},
             "perturbation seeds per scheme/benchmark/P cell (plus one unperturbed control each)"),
            ("--schemes", _MANY, "restrict to these schemes (default: the 'conformance' selector = "
                                 "every conformance-capable registered scheme)"),
            ("--benchmarks", _MANY, "benchmarks to drive the locks with (default: ecsb wcsb warb)"),
            ("--procs", _INTS, "process counts (default: 8 32)"),
            ("--iterations", _INT, "lock acquisitions per rank per run"),
            ("--no-recheck", _ON, "skip the second run per point (faster; forfeits the "
                                  "bit-reproducibility certificate)"),
        ),
        _conform,
        _verdicts(
            "points ({seeds} chaos seed(s) + control per cell)", ("case", "P", "perturb_seed"),
            "verdict: every scheme upheld every oracle on every schedule",
        ),
        shared=("imports",),
    ),
    Suite(
        "faults",
        "fault sweep: seeded rank crashes x recovery-safety oracles per scheme",
        (
            ("--seeds", _INT, "crash seeds per scheme/scenario cell (each seed draws a different "
                              "victim interval from the probe timeline; default: 5, or 2 under "
                              "--smoke)"),
            ("--scenarios", _MANY, "crash scenarios to stage (default: holder-crash waiter-crash "
                                   "restart)"),
            ("--schemes", _MANY, "restrict to these schemes (default: the 'conformance' selector = "
                                 "every conformance-capable registered scheme but the known mutants, "
                                 "which `repro verify` judges)"),
            ("--procs", _INTS, "process counts (default: 4)"),
            ("--iterations", _INT, "lock acquisitions per rank per run"),
            ("--smoke", _ON, "small CI grid: the fault/recovery schemes plus four non-recovering "
                             "controls, 2 crash seeds"),
        ),
        _faults,
        _verdicts(
            "points ({seeds} crash seed(s) per scheme/scenario cell)",
            ("case", "status", "victim", "kill_us"),
            "verdict: every declared recovery recovered, every undeclared crash was honestly "
            "unavailable",
            _no_kill,
        ),
        # The fault subsystem's own schemes plus four non-recovering controls
        # (the rma-mcs/ticket pair and two lock families): every verdict class.
        shared=("imports",),
        smoke={
            "seeds": 2,
            "schemes": ("lease-lock", "repair-mcs", "rma-mcs", "ticket", "alock", "lock-server"),
        },
    ),
    Suite(
        "traffic",
        "open-loop traffic sweep: scheme x scenario with tail-latency percentiles",
        (
            ("--schemes", _MANY, "lock schemes to sweep (default: the traffic-suite grid; selectors "
                                 "like 'all'/'mcs'/'rw' work too)"),
            ("--scenarios", _MANY, "traffic scenarios (benchmark names or the 'traffic'/'traffic-rw' "
                                   "selectors; default: every registered scenario)"),
            ("--procs", _INTS, "process counts (default: the campaign's, P=64)"),
            ("--iterations", _INT, "requests per rank (default: the campaign's)"),
            ("--smoke", _ON, "small CI grid: 3 schemes x 2 scenarios at P=16"),
            ("--top-keys", {"type": int, "metavar": "N"},
             "print each scenario's N hottest table entries (request share from the materialized "
             "schedules) instead of running the sweep — a pure virtual-time report"),
        ),
        _traffic,
        _show_traffic,
        shared=("bless",),
        smoke={
            "schemes": ("fompi-spin", "rma-mcs", "rma-rw"),
            "scenarios": ("traffic-zipf", "traffic-phased"),
            "procs": (16,),
            "iterations": 6,
        },
    ),
    Suite(
        "scale",
        "fluid-scale sweep: fluid-flow load models + sampled tails, elastic tables and "
        "topology-aware re-homing",
        (
            ("--schemes", _MANY, "lock schemes for the campaign grid (default: scale-suite's)"),
            ("--scenarios", _MANY, "scale scenarios (benchmark names or the 'scale' selector; "
                                   "default: every registered scale scenario)"),
            ("--fluid", _MANY, "fluid scenarios to validate (default: all registered)"),
            ("--iterations", _INT, "requests per rank (default: the campaign's)"),
            ("--smoke", _ON, "small CI grid: fewer requests per rank (the fluid set, including the "
                             "10^6/s scenario, runs in full)"),
        ),
        _scale,
        _show_scale,
        shared=("bless",),
        # Still traffic on both sides of every phase boundary; fluid-mega *is*
        # the smoke test of the 10^6-clients/s claim.
        smoke={"iterations": 32},
    ),
    Suite(
        "tune",
        "offline threshold auto-tuner: sweep registry-declared parameter grids, report "
        "best-known thresholds per scheme x scenario",
        (
            ("--scheme", {}, "tune one scheme only (default: the built-in suite)"),
            ("--tune-param", {}, "with --scheme: the parameter to sweep (default: every tunable "
                                 "parameter the scheme registered)"),
            ("--scenario", {}, "with --scheme: the traffic scenario to tune on (default: "
                               "traffic-zipf)"),
            ("--procs", _INT, "process count per point (default: the suite's)"),
            ("--iterations", _INT, "requests per rank (default: the suite's)"),
            ("--smoke", _ON, "small CI grid: 4 schemes, one axis each, P=16"),
        ),
        _tune,
        _show_tune,
        shared=("bless", "imports"),
        smoke={"grids": tuple(
            {"scheme": scheme, "param": param, "scenario": scenario, "procs": 16, "iterations": 6}
            for scheme, param, scenario in (
                ("rma-rw", "t_r", "traffic-readheavy"),
                ("hbo", "local_cap_us", "traffic-zipf"),
                ("lease-lock", "lease_us", "traffic-zipf"),
                ("lock-server", "queue_threshold", "traffic-zipf"),
            )
        )},
    ),
)


def run_suite(suite: Suite, args: argparse.Namespace) -> int:
    """Run the sweep subcommand ``suite`` from its parsed ``args``; returns the exit code."""
    if getattr(args, "smoke", False):
        # Explicit flags win over the smoke grid.
        for name, value in suite.smoke.items():
            if getattr(args, name) is None:
                setattr(args, name, value)
    run = suite.run(args)
    if isinstance(run, int):
        return run
    baseline = manifest_path(suite.name) if "bless" in suite.shared else None
    report, blessed = sweep(args, run, baseline)
    what, code, verdict = suite.show(args, report)
    finish(args, report, blessed, what)
    if verdict is not None:
        print(verdict, file=sys.stderr if code else sys.stdout)
    return code
