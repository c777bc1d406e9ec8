"""Command-line interface: ``python -m repro <command>``; ``--help`` describes each command."""

from __future__ import annotations

import argparse
import difflib
import json
import sys
from functools import partial
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.api.registry import benchmark_names, get_scheme, scheme_names
from repro.bench.harness import run_lock_benchmark
from repro.bench.report import format_figure, format_table
from repro.bench.suites import SUITES, add_sweep_flags, finish, run_suite, sweep
from repro.bench.workloads import LockBenchConfig
from repro.rma.portability import environments, supports_all_required_ops
from repro.topology.builder import xc30_like

__all__ = ["main", "build_parser"]

#: Figure name -> (driver attribute, series field, value field)
_FIGURES = {
    "3": ("figure3", "scheme", "throughput_mln_s"),
    "4a": ("figure4a", "t_dc", "throughput_mln_s"),
    "4b": ("figure4b", "tl_product", "throughput_mln_s"),
    "4c": ("figure4c", "tl_split", "throughput_mln_s"),
    "4d": ("figure4d", "tl_split", "latency_us"),
    "4e": ("figure4e", "t_r", "throughput_mln_s"),
    "4f": ("figure4f", "series", "throughput_mln_s"),
    "5": ("figure5", "series", "throughput_mln_s"),
    "6": ("figure6", "scheme", "total_time_us"),
    "ablation-dc": ("ablation_counter_placement", "series", "throughput_mln_s"),
    "ablation-fabric": ("ablation_flat_latency", "series", "throughput_mln_s"),
    "ablation-fabric-links": ("ablation_fabric_contention", "series", "throughput_mln_s"),
    "ablation-locality": ("ablation_locality", "t_l2", "throughput_mln_s"),
    "ablation-handoff": ("ablation_handoff_locality", "t_l2", "node_locality_pct"),
    "related-mcs": ("related_mcs_comparison", "series", "throughput_mln_s"),
    "related-rw": ("related_rw_comparison", "series", "throughput_mln_s"),
}


def _parse_param_assignments(pairs: Sequence[str], scheme: str) -> Tuple[Tuple[str, object], ...]:
    """Parse repeated ``NAME=VALUE`` flags into ``scheme``'s parameter overlay.

    Values parse as JSON when possible (numbers, lists for sequence
    parameters) and fall back to the raw string; each is then coerced by the
    scheme's :class:`~repro.api.registry.ParamSpec`, so ``--param t_l=[2,4]``
    and ``LockBenchConfig(t_l=(2, 4))`` give one bit-identical overlay.  An
    unknown name raises :class:`~repro.api.registry.UnknownNameError`.
    """
    info = get_scheme(scheme)
    out: List[Tuple[str, object]] = []
    for pair in pairs:
        name, sep, raw = pair.partition("=")
        if not sep or not name:
            raise SystemExit(f"--param expects NAME=VALUE, got {pair!r}")
        try:
            value: object = json.loads(raw)
        except ValueError:
            value = raw
        name = name.replace("-", "_")
        out.append((name, info.param(name).coerce(value)))
    return tuple(out)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'High-Performance Distributed RMA Locks' (HPDC'16)",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    schemes = scheme_names(harness=True)

    figures = sub.add_parser("figures", help="regenerate paper figures as text tables")
    figures.add_argument("names", nargs="*", default=[], help=f"figures to run (default: all); choices: {', '.join(_FIGURES)}")
    figures.add_argument("--procs", type=int, nargs="+", default=None, help="process counts to sweep")
    figures.add_argument("--iterations", type=int, default=None, help="lock acquisitions per process")
    figures.add_argument("--output-dir", default=None, help="also save each figure's rows as CSV and JSON in this directory")
    figures.add_argument("--jobs", type=int, default=None,
                         help="worker processes per sweep (default: REPRO_JOBS or all cores; "
                              "rows are bit-identical regardless)")

    bench = sub.add_parser("bench", help="run one lock microbenchmark configuration")
    bench.add_argument("--scheme", choices=schemes, default="rma-rw")
    bench.add_argument("--benchmark", choices=benchmark_names(), default="ecsb")
    bench.add_argument("--procs", type=int, default=32)
    bench.add_argument("--procs-per-node", type=int, default=8)
    bench.add_argument("--iterations", type=int, default=20)
    bench.add_argument("--fw", type=float, default=0.02, help="fraction of writers")
    bench.add_argument(
        "--param",
        action="append",
        default=[],
        metavar="NAME=VALUE",
        dest="scheme_params",
        help="set any registered scheme parameter by name (repeatable); "
        "see 'repro info' / repro.api.get_scheme(...).params for the "
        "per-scheme catalogue — third-party @register_scheme locks "
        "included",
    )
    bench.add_argument("--seed", type=int, default=1)

    trace = sub.add_parser("trace", help="trace one contended workload and show where its RMA time goes")
    trace.add_argument("--scheme", choices=schemes, default="rma-mcs")
    trace.add_argument("--procs", type=int, default=32)
    trace.add_argument("--procs-per-node", type=int, default=8)
    trace.add_argument("--iterations", type=int, default=8)
    trace.add_argument("--fw", type=float, default=0.2, help="fraction of writers (RW schemes only)")
    trace.add_argument("--activity", action="store_true", help="also print the per-rank activity strip")

    verify = sub.add_parser("verify", help="model-check every registered scheme's step programs over all interleavings")
    verify.add_argument("--procs", type=int, default=3, help="ranks per exploration (at least 2)")
    verify.add_argument("--rounds", type=int, default=1, help="acquisitions per rank (at least 1)")

    campaign = sub.add_parser(
        "campaign", help="run named sweep campaigns (parallel execution + result cache)"
    )
    campaign_sub = campaign.add_subparsers(dest="campaign_command", required=True)
    campaign_sub.add_parser("list", help="list the registered campaigns")
    camp_show = campaign_sub.add_parser("show", help="print a campaign's expanded grid")
    camp_show.add_argument("name", help="registered campaign name")
    camp_run = campaign_sub.add_parser("run", help="execute a campaign")
    camp_run.add_argument("name", help="registered campaign name")
    add_sweep_flags(camp_run, "cache")
    camp_run.add_argument("--prune-cache", action="store_true",
                          help="also delete cache entries from stale epochs")
    camp_run.add_argument("--figure", action="store_true",
                          help="render ASCII throughput-vs-P charts (one per benchmark x fw panel)")

    regress = sub.add_parser(
        "regress", help="gate campaign determinism against the committed baselines (CI check)"
    )
    add_sweep_flags(regress, "bless")
    regress.add_argument("--campaign", default="ci-gate",
                         help="campaign to gate on (any other than ci-gate needs --baseline)")
    regress.add_argument("--reuse-cache", action="store_true",
                         help="serve cached rows instead of recomputing (the gate recomputes by "
                              "default so it checks what this code produces, not the cache)")

    for suite in SUITES:
        parser_ = sub.add_parser(suite.name, help=suite.help)
        add_sweep_flags(parser_, "cache", *suite.shared)
        for flag, kind, help_ in suite.flags:
            parser_.add_argument(flag, help=help_, **kind)
        parser_.set_defaults(**{name: None for name in suite.smoke})

    info = sub.add_parser("info", help="describe a simulated machine and the portability table")
    info.add_argument("--procs", type=int, default=64)
    info.add_argument("--procs-per-node", type=int, default=8)

    return parser


def _run_figures(args: argparse.Namespace) -> int:
    names = args.names or list(_FIGURES)
    unknown = [n for n in names if n not in _FIGURES]
    if unknown:
        message = f"unknown figure(s): {', '.join(unknown)}; choices: {', '.join(_FIGURES)}"
        hints = [
            m[0]
            for m in (difflib.get_close_matches(n, list(_FIGURES), n=1, cutoff=0.5) for n in unknown)
            if m
        ]
        if hints:
            message += f". Did you mean: {', '.join(hints)}?"
        print(message, file=sys.stderr)
        return 2
    from repro.bench import experiments

    for name in names:
        driver_name, series, value = _FIGURES[name]
        driver = getattr(experiments, driver_name)
        kwargs: Dict[str, Any] = {"jobs": args.jobs}
        if args.procs is not None:
            kwargs["process_counts"] = tuple(args.procs)
        if args.iterations is not None and driver_name != "figure6":
            kwargs["iterations"] = args.iterations
        rows = [{k: v for k, v in row.items() if k != "cached"} for row in driver(**kwargs).rows]
        print(format_figure(rows, title=f"Figure {name}", series=series, value=value))
        print()
        if args.output_dir:
            from repro.bench.export import save_figure_rows

            paths = save_figure_rows(rows, args.output_dir, f"figure_{name.replace('-', '_')}")
            print(f"  saved: {paths['csv']} and {paths['json']}\n")
    return 0


def _run_bench(args: argparse.Namespace) -> int:
    try:
        config = LockBenchConfig(
            machine=xc30_like(args.procs, procs_per_node=args.procs_per_node),
            scheme=args.scheme,
            benchmark=args.benchmark,
            iterations=args.iterations,
            fw=args.fw,
            seed=args.seed,
            params=_parse_param_assignments(args.scheme_params, args.scheme),
        )
    except ValueError as exc:
        # Covers UnknownNameError from a bad --param name, with its
        # did-you-mean suggestion intact.
        print(f"invalid benchmark configuration: {exc}", file=sys.stderr)
        return 2
    result = run_lock_benchmark(config)
    print(format_table([result.as_row()]))
    print(f"\nRMA operations issued: {sum(result.op_counts.values())} ({dict(sorted(result.op_counts.items()))})")
    return 0


def _run_trace(args: argparse.Namespace) -> int:
    from repro.bench.ascii_plot import bar_chart
    from repro.bench.harness import build_lock_spec
    from repro.bench.trace import (
        TraceRecorder,
        distance_breakdown,
        hottest_targets,
        render_rank_activity,
        summarize_trace,
        trace_rows_by_distance,
    )
    from repro.core.lock_base import RWLockHandle, program_for_spec
    from repro.rma.runtime_base import BARRIER, COMPUTE
    from repro.rma.sim_runtime import SimRuntime

    try:
        machine = xc30_like(args.procs, procs_per_node=args.procs_per_node)
        config = LockBenchConfig(
            machine=machine, scheme=args.scheme, benchmark="ecsb", iterations=args.iterations, fw=args.fw
        )
    except ValueError as exc:
        print(f"invalid trace configuration: {exc}", file=sys.stderr)
        return 2
    spec, is_rw = build_lock_spec(config)
    recorder = TraceRecorder()
    runtime = SimRuntime(machine, window_words=spec.window_words, observer=recorder, seed=config.seed)

    def program(ctx):
        lock = spec.make(ctx)
        draw = ctx.random
        yield (BARRIER,)
        for _ in range(args.iterations):
            as_writer = not is_rw or bool(draw() < args.fw)
            if is_rw and not as_writer:
                rw_lock: RWLockHandle = lock  # type: ignore[assignment]
                yield from rw_lock.acquire_read_steps()
                yield (COMPUTE, 0.3)
                yield from rw_lock.release_read_steps()
            else:
                yield from lock.acquire_steps()
                yield (COMPUTE, 0.3)
                yield from lock.release_steps()
        yield (BARRIER,)

    program = program_for_spec(spec, machine, program)
    result = runtime.run(program, window_init=spec.init_window)
    summary = summarize_trace(recorder.events)
    breakdown = distance_breakdown(recorder.events, machine)
    print(f"Machine : {machine.describe()}")
    print(f"Scheme  : {args.scheme}, {args.iterations} acquisitions per rank")
    traced = f"{summary.num_events}"
    if recorder.dropped_events:
        total = summary.num_events + recorder.dropped_events
        traced += f" of {total}; shares cover the first {summary.num_events}"
    print(f"Total virtual time: {result.total_time_us:.1f} us; RMA calls traced: {traced}\n")
    print(format_table(summary.as_rows()))
    print()
    print(format_table(trace_rows_by_distance(breakdown)))
    print()
    print(
        bar_chart(
            {cls: values["ops_share_pct"] for cls, values in breakdown.items()},
            title="operation share by distance [%]",
            unit="%",
            width=40,
        )
    )
    print("\nhottest remote targets:")
    print(format_table(hottest_targets(recorder.events, top=5)))
    if args.activity:
        print()
        print(render_rank_activity(recorder.events, machine.num_processes, width=60))
    return 0


def _run_verify(args: argparse.Namespace) -> int:
    from repro.fault import recovery_info
    from repro.topology.machine import Machine
    from repro.verification.explorer import CRASHES, KNOWN_MUTANTS, PARAMS, Explorer, NotExplorable

    if args.procs < 2:
        print(f"error: --procs must be at least 2, got {args.procs}", file=sys.stderr)
        return 2
    if args.rounds < 1:
        print(f"error: --rounds must be at least 1, got {args.rounds}", file=sys.stderr)
        return 2
    procs = args.procs
    witnesses: List[str] = []

    def explore(name: str, procs: int, row: Dict[str, Any], crash: Optional[str] = None):
        """Per machine shape: its label, its exploration (states into ``row``)
        or None, and then the verdict that stands in for it."""
        for label, machine in (("1 node", Machine.single_node(procs)), (f"{procs} nodes", Machine.cluster(procs, 1))):
            row[f"states ({label})"] = "-"
            try:
                result = Explorer(name, machine, rounds=args.rounds, crash=crash).explore()
            except NotExplorable as exc:
                yield label, None, f"skipped: {exc}"
                continue
            except Exception as exc:  # noqa: BLE001 - the state cap, a crashing builder
                yield label, None, f"FAIL ({label}): {type(exc).__name__}: {exc}"
                continue
            row[f"states ({label})"] = result.states
            if not result.ok:
                witnesses.append(f"{name}{'' if crash is None else ' ' + crash} ({label}): {result.witness}")
            yield label, result, None

    def verdict(verdicts: List[str]) -> str:
        failures = [verdict for verdict in verdicts if verdict.startswith("FAIL")]
        return (failures or verdicts or ["ok"])[0]

    rows = []
    for name in scheme_names():
        row: Dict[str, Any] = {"scheme": name}
        verdicts, bound, worst = [], "-", 0
        for label, result, note in explore(name, procs, row):
            if result is None:
                verdicts.append(note)
                continue
            bound = "-" if result.bypass_bound is None else result.bypass_bound
            worst = max(worst, result.max_bypass)
            if not result.ok:
                verdicts.append(f"FAIL ({label}): {result.violation}")
        row.update({"bypass bound": bound, "max bypass": worst, "verdict": verdict(verdicts)})
        rows.append(row)
    print(format_table(rows))
    print(
        f"\nEvery interleaving of each scheme's own step programs: {procs} ranks x "
        f"{args.rounds} round(s), one node and one rank per node, judged by the live oracles "
        f"(mutual exclusion, reader/writer exclusion, handoff, declared bypass bound) and "
        f"deadlock freedom; RW schemes run one writer among readers.  A scheme without a declared "
        f"bound reports its worst bypass as data.  Exploration parameters: "
        + "; ".join(f"{name} {', '.join(f'{k}={v}' for k, v in params.items())}" for name, params in PARAMS.items())
        + "."
    )

    # A waiter crash orphans a racer only with a third rank behind the dead one.
    crash_procs = max(procs, 3)
    crash_rows = []
    for name in scheme_names():
        for crash in CRASHES:
            if crash not in recovery_info(name).scenarios:
                continue
            row = {"scheme": name, "scenario": crash}
            verdicts = []
            for label, result, note in explore(name, crash_procs, row, crash):
                if result is None:
                    verdicts.append(note)
                elif name in KNOWN_MUTANTS:
                    verdicts.append(f"mutant caught: {result.violation}" if not result.ok else f"FAIL ({label}): mutant escaped")
                elif not result.ok:
                    verdicts.append(f"FAIL ({label}): {result.violation}")
            row["verdict"] = verdict(verdicts)
            crash_rows.append(row)
    if crash_rows:
        print()
        print(format_table(crash_rows))
        print(
            f"\nEach scheme's declared holder- and waiter-crash scenarios: {crash_procs} ranks x {args.rounds} "
            f"round(s), at most one kill per run, at every moment the scenario allows, and lease time passing only "
            f"for a dead holder; judged by the recovery oracles (no re-grant inside a dead holder's lease) and "
            f"deadlock freedom.  A known mutant ({', '.join(KNOWN_MUTANTS)}) passes only if a violation is found."
        )
    if witnesses:
        print("\nWitness schedules (rank steps, kills and ticks; Explorer.replay re-runs each):")
        for witness in witnesses:
            print(f"  {witness}")
    return 1 if any(row["verdict"].startswith("FAIL") for row in rows + crash_rows) else 0


def _run_campaign(args: argparse.Namespace) -> int:
    from repro.api.registry import UnknownNameError
    from repro.bench import campaign as campaign_mod

    if args.campaign_command == "list":
        rows = []
        for name in campaign_mod.campaign_names():
            spec = campaign_mod.get_campaign(name)
            # One campaign with an unresolvable scheme must not take the
            # whole listing down (e.g. a third-party provider that failed
            # to import in this process).
            try:
                points = str(len(spec.points()))
            except ValueError as exc:
                points = f"error: {exc}"
            rows.append(
                {
                    "campaign": name,
                    "points": points,
                    "schemes": ", ".join(spec.schemes),
                    "benchmarks": ", ".join(spec.benchmarks),
                    "P": ", ".join(str(p) for p in spec.process_counts),
                    "help": spec.help,
                }
            )
        print(format_table(rows))
        return 0

    try:
        spec = campaign_mod.get_campaign(args.name)
    except UnknownNameError as exc:
        print(exc, file=sys.stderr)
        return 2

    if args.campaign_command == "show":
        try:
            points = spec.points()
        except ValueError as exc:
            print(f"campaign {spec.name!r} cannot be expanded: {exc}", file=sys.stderr)
            return 2
        print(f"campaign {spec.name!r}: {spec.help}")
        print(f"{len(points)} points (schemes resolved through the registry):\n")
        rows = [
            {
                "case": p.case,
                "scheme": p.scheme,
                "benchmark": p.benchmark,
                "P": p.procs,
                "fw": p.fw,
                "iterations": p.iterations,
                "seed": p.seed,
            }
            for p in points
        ]
        print(format_table(rows))
        return 0

    # campaign run
    report, _ = sweep(args, partial(campaign_mod.run_campaign, spec))
    display = [
        {
            "case": row["case"],
            "P": row["P"],
            "throughput_mln_s": round(float(row["throughput_mln_s"]), 4),
            "latency_us": round(float(row["latency_mean_us"]), 3),
            "rma_ops": row["rma_ops"],
            "sim_ops_per_s": row["sim_ops_per_s"],
            "cached": "yes" if row.get("cached") else "no",
        }
        for row in report.rows
    ]
    print(format_table(display))
    if args.figure:
        print()
        print(campaign_mod.render_campaign_figure(report.rows, title=report.name))
    finish(args, report, None)
    if args.prune_cache and not args.no_cache:
        cache_dir = Path(args.cache_dir) if args.cache_dir else None
        removed = campaign_mod.ResultCache(cache_dir).prune()
        print(f"pruned {removed} stale cache epoch(s)")
    return 0


def _run_regress(args: argparse.Namespace) -> int:
    from repro.bench import campaign as campaign_mod
    from repro.bench import regress as regress_mod

    campaign_mod.get_campaign(args.campaign)  # an unknown name fails first
    if args.baseline is None and args.campaign != regress_mod.DEFAULT_CAMPAIGN:
        raise ValueError(
            f"--campaign {args.campaign} needs --baseline: the default "
            f"{regress_mod.DEFAULT_CAMPAIGN_BASELINE.name} holds the "
            f"{regress_mod.DEFAULT_CAMPAIGN} rows"
        )
    baseline = Path(args.baseline) if args.baseline else regress_mod.DEFAULT_CAMPAIGN_BASELINE
    if args.bless:
        report, blessed = sweep(
            args, partial(campaign_mod.run_campaign, args.campaign), baseline
        )
        finish(args, report, blessed)
        return 0
    return regress_mod.run_regress(
        campaign=args.campaign,
        baseline_path=baseline,
        jobs=args.jobs,
        fresh=not args.reuse_cache,
        cache_dir=Path(args.cache_dir) if args.cache_dir else None,
        output=Path(args.output) if args.output else None,
    )


def _load_provider(token: str) -> None:
    """Import a third-party lock provider named by ``--import``.

    ``path/to/file.py`` is imported by file location with its directory put on
    ``sys.path`` first (so pool workers under a spawn start method can re-import
    it by module name); anything else is treated as a regular module path.
    """
    import importlib

    if token.endswith(".py"):
        file = Path(token).resolve()
        if not file.exists():
            raise FileNotFoundError(f"provider file not found: {token}")
        parent = str(file.parent)
        if parent not in sys.path:
            sys.path.insert(0, parent)
        importlib.import_module(file.stem)
    else:
        importlib.import_module(token)


def _run_info(args: argparse.Namespace) -> int:
    try:
        machine = xc30_like(args.procs, procs_per_node=args.procs_per_node)
    except ValueError as exc:
        print(f"invalid machine: {exc}", file=sys.stderr)
        return 2
    print(f"Machine: {machine.describe()}")
    print(f"Levels : {[lvl.name for lvl in machine.levels()]}")
    print(f"Default RMA-RW thresholds: T_DC={machine.ranks_per_element(machine.n_levels)} "
          f"(one counter per node), T_R=64, T_L=(4, 8)")
    rows = [
        {"environment": env, "all Listing-1 ops available": "yes" if supports_all_required_ops(env) else "needs adjustment"}
        for env in environments()
    ]
    print("\nPortability (Table 3):")
    print(format_table(rows))
    return 0


_COMMANDS: Dict[str, Callable[[argparse.Namespace], int]] = {
    "figures": _run_figures,
    "bench": _run_bench,
    "trace": _run_trace,
    "verify": _run_verify,
    "campaign": _run_campaign,
    "regress": _run_regress,
    **{suite.name: partial(run_suite, suite) for suite in SUITES},
    "info": _run_info,
}

#: Sweep subcommands: a bad name, an unusable grid or fluid scenario, or a
#: refused bless is a usage error (exit 2 with the reason), not a traceback.
_SWEEPS = ("figures", "campaign", "regress", *(suite.name for suite in SUITES))


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    for token in getattr(args, "imports", ()):
        try:
            _load_provider(token)
        except (ImportError, FileNotFoundError) as exc:
            print(f"cannot import provider {token!r}: {exc}", file=sys.stderr)
            return 2
    command = _COMMANDS[args.command]
    if args.command not in _SWEEPS:
        return command(args)
    try:
        return command(args)
    except (KeyError, ValueError, RuntimeError) as exc:
        # An unknown fluid scenario is a KeyError whose message is args[0].
        reason = exc.args[0] if isinstance(exc, KeyError) and exc.args else exc
        print(f"{args.command} sweep cannot run: {reason}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
