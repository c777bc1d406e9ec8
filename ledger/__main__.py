"""``python3 -m ledger`` — launch, judge, report.

    python3 -m ledger                          every workload, end-to-end metrics
    python3 -m ledger --trace                  per-layer metrics (a separate run)
    python3 -m ledger --workload W --seed N --seconds S --trace 0|1
    python3 -m ledger --check-repeat           two sets back to back must agree
    python3 -m ledger --bless-expected         rewrite ledger/expected.json
    python3 -m ledger compare A.json B.json    verdict per (metric, workload)

With exactly one ``--workload`` the last line of standard output is the JSON
object the benchmark contract asks for.  The exit code is 0 only when no
simulated run failed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import tempfile
import time
from typing import Any, Dict, List, Optional

from ledger import report

ROOT = report.ROOT
TMP_PARENT = ROOT / ".ledger_tmp"

#: Fresh child launches behind one ``setup_s`` value.
SETUP_LAUNCHES = 5
#: How many of them also measure, each for an equal share of ``--seconds``.
#: Medians of single processes of one deterministic workload sit 4-6 % apart
#: (address-space layout, hash seeds), a wider band than the repetitions
#: inside any one of them, so a run pools repetitions from several.
MEASURING_CHILDREN = 3
#: No child may outlive this; the contract allows a run 180 s in total.
CHILD_TIMEOUT_S = 150


class ChildFailed(RuntimeError):
    pass


def _child(tmp: str, *argv: str) -> Dict[str, Any]:
    """Run ``ledger.child`` to completion and parse its last stdout line."""
    command = [sys.executable, "-m", "ledger.child", "--tmp", tmp, *argv]
    launched = time.monotonic()
    try:
        done = subprocess.run(
            command, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S
        )
    except subprocess.TimeoutExpired:
        raise ChildFailed(f"{' '.join(command)} exceeded {CHILD_TIMEOUT_S} s") from None
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise ChildFailed(f"{' '.join(command)} exited with code {done.returncode}")
    out = json.loads(lines[-1])
    out["launched"] = launched
    return out


def measure(
    workload: str,
    *,
    seed: int,
    seconds: float,
    trace: bool,
    smoke: bool,
    tmp: str,
    benchmark: Dict[str, Any],
    expected: Optional[Dict[str, Any]],
    trace_out: Optional[str] = None,
) -> Dict[str, Any]:
    """One run of one workload: metrics plus the correctness verdict."""
    common = ["--workload", workload, "--seed", str(seed)] + (["--smoke"] if smoke else [])
    result: Dict[str, Any] = {"workload": workload, "seed": seed, "metrics": {}}
    pinned = expected["workloads"].get(workload) if expected else None

    if not trace:
        measuring = 1 if smoke else MEASURING_CHILDREN
        outs = [_child(tmp, *common, "--seconds", str(seconds / measuring))
                for _ in range(measuring)]
        if not smoke:
            outs += [_child(tmp, *common, "--setup-only")
                     for _ in range(SETUP_LAUNCHES - measuring)]
        reps = [r for out in outs for r in out.get("reps", ())]
        timed = [r for r in reps if not r["warmup"]]
        walls = report.summary([r["wall_s"] for r in timed])
        ops = sum(p["ops"] for p in timed[0]["points"])
        # Repetition 0 of the first child is the reference, so this also
        # checks that separate processes agree bit for bit.
        attempted, failed, reasons = report.judge(reps, pinned)
        result["metrics"] = {
            "setup_s": report.summary([out["ready"] - out["launched"] for out in outs]),
            "wall_s": walls,
            "sim_ops_per_s": report.summary([ops / w for w in walls["samples"]]),
            "peak_rss_mb": report.summary([out["peak_rss_mb"] for out in outs[:measuring]]),
            "fail_share": report.summary([failed / attempted]),
            "sim_throughput_mln_s": report.summary([report.sim_throughput(timed[0]["points"])]),
        }
        # Not metrics: what the scaled wall_s was computed from.
        result["raw"] = {
            "ops": ops,
            "wall_raw_s": report.summary([r["wall_raw_s"] for r in timed]),
            "loop_s": report.summary([r["loop_s"] for r in timed]),
        }
    else:
        args = [*common, "--seconds", str(seconds), "--trace"]
        if trace_out:
            args += ["--trace-out", trace_out]
        out = _child(tmp, *args)
        unpinned = _child(tmp, *common, "--placement")
        layers = out["layers"]
        layers["rma.placement.unpinned_ratio"] = (
            unpinned["flagship_s"] / layers.pop("_ref.flagship_s")
        )
        layers["bench.campaign.jobs_ratio"] = unpinned["jobs_s"] / layers.pop("_ref.jobs1_s")
        timed = [r for r in out["reps"] if not r["warmup"]]
        layers["sim_throughput_mln_s"] = report.sim_throughput(timed[0]["points"])
        attempted, failed, reasons = report.judge(out["reps"], pinned)
        # A probe that differs between runtimes, or self times that do not
        # add up, is a failed check of its own.
        attempted += len(out["problems"])
        failed += len(out["problems"])
        reasons += out["problems"]
        missing = [d["name"] for d in benchmark["per_layer"] if d["name"] not in layers]
        if missing:
            raise ChildFailed(f"per-layer metrics not produced: {missing}")
        result["layers"] = layers

    result.update(attempted=attempted, failed=failed, correct=failed == 0, reasons=reasons,
                  points=timed[0]["points"])
    return result


def contract_line(result: Dict[str, Any], benchmark: Dict[str, Any], trace: bool) -> str:
    """The one JSON object the driver reads from the last line."""
    if trace:
        metrics = {
            d["name"]: {"value": result["layers"][d["name"]], "unit": d["unit"]}
            for d in benchmark["per_layer"]
        }
    else:
        metrics = {
            d["name"]: {"value": result["metrics"][d["name"]]["value"], "unit": d["unit"]}
            for d in benchmark["end_to_end"]
        }
    return json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    })


def run_set(args: argparse.Namespace, benchmark: Dict[str, Any], tmp: str,
            names: List[str], expected: Optional[Dict[str, Any]]) -> Dict[str, Any]:
    results = {}
    for name in names:
        results[name] = measure(
            name, seed=args.seed, seconds=args.seconds, trace=args.trace, smoke=args.smoke,
            tmp=tmp, benchmark=benchmark, expected=expected, trace_out=args.trace_out,
        )
    return {
        "meta": {
            "seed": args.seed, "seconds": args.seconds, "smoke": args.smoke,
            "trace": args.trace, "platform": platform.platform(),
            "python": platform.python_version(), "nproc": os.cpu_count(),
        },
        "workloads": results,
    }


def print_set(run: Dict[str, Any], benchmark: Dict[str, Any], trace: bool) -> None:
    results = run["workloads"]
    if trace:
        print(report.per_layer_table(results, benchmark["per_layer"]))
    else:
        print(report.end_to_end_table(results, report.end_to_end_defs(benchmark)))
    for name, result in results.items():
        raw = result.get("raw")
        note = ""
        if raw:
            note = (f"; raw wall {raw['wall_raw_s']['value']:.4f} s at host loop "
                    f"{1000 * raw['loop_s']['value']:.2f} ms, {raw['ops']} ops")
        print(f"{name}: {result['failed']} failed of {result['attempted']} simulated runs{note}")
        for reason in result["reasons"][:10]:
            print(f"  FAILED {reason}")


def bless(benchmark: Dict[str, Any], tmp: str) -> int:
    """Rewrite expected.json from seed 1, cross-checked on the seed scheduler."""
    pinned: Dict[str, Any] = {}
    for w in benchmark["workloads"]:
        name = w["name"]
        out = _child(tmp, "--workload", name, "--seed", "1", "--seconds", "0")
        attempted, failed, reasons = report.judge(out["reps"], None)
        if failed:
            print(f"refusing to bless: {name} is not repeatable: {reasons[:3]}", file=sys.stderr)
            return 1
        points = out["reps"][0]["points"]
        if out["single_run"]:
            reference = _child(tmp, "--workload", name, "--seed", "1", "--scheduler", "baseline")
            _, failed, reasons = report.judge(
                [{"points": points}, reference["reps"][0]], None
            )
            if failed:
                print(f"refusing to bless: {name} differs on the baseline scheduler: {reasons}",
                      file=sys.stderr)
                return 1
        pinned[name] = report.pin_points(points)
        print(f"{name}: {len(points)} points, {pinned[name]['ops']} ops, "
              f"{pinned[name]['sim_throughput_mln_s']!r} Mln/s")
    scratch = report.EXPECTED_JSON.with_suffix(".json.tmp")
    scratch.write_text(json.dumps({"seed": 1, "workloads": pinned}, indent=1, sort_keys=True) + "\n")
    scratch.replace(report.EXPECTED_JSON)
    return 0


def compare_main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(prog="ledger compare")
    parser.add_argument("a")
    parser.add_argument("b")
    args = parser.parse_args(argv)
    with open(args.a) as fa, open(args.b) as fb:
        text, clean = report.compare(
            json.load(fa), json.load(fb), report.end_to_end_defs(report.load_benchmark())
        )
    print(text)
    return 0 if clean else 1


def main(argv: Optional[List[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv[:1] == ["compare"]:
        return compare_main(argv[1:])
    benchmark = report.load_benchmark()
    names = [w["name"] for w in benchmark["workloads"]]
    parser = argparse.ArgumentParser(prog="ledger", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", action="append", choices=names)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=float(benchmark["run_seconds"]))
    parser.add_argument("--trace", nargs="?", type=int, const=1, default=0, choices=(0, 1))
    parser.add_argument("--smoke", action="store_true",
                        help="iterations / 10, 1 + 2 repetitions, no expected.json check")
    parser.add_argument("--out", help="write the full results as JSON")
    parser.add_argument("--trace-out", help="write the spans of a traced run as JSON")
    parser.add_argument("--check-repeat", action="store_true")
    parser.add_argument("--bless-expected", action="store_true")
    args = parser.parse_args(argv)
    args.trace = bool(args.trace)
    if args.check_repeat and args.trace:
        parser.error("--check-repeat compares end-to-end metrics; run it without --trace")

    if not (ROOT / "src" / "repro").is_dir():
        print(f"ledger: no program to measure: {ROOT / 'src' / 'repro'} is missing", file=sys.stderr)
        return 2

    TMP_PARENT.mkdir(exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="run-", dir=TMP_PARENT)
    try:
        if args.bless_expected:
            return bless(benchmark, tmp)
        expected = None
        if args.seed == 1 and not args.smoke:
            with open(report.EXPECTED_JSON) as handle:
                expected = json.load(handle)
        selected = args.workload or names
        run = run_set(args, benchmark, tmp, selected, expected)
        print_set(run, benchmark, args.trace)
        ok = all(r["correct"] for r in run["workloads"].values())
        if args.check_repeat:
            second = run_set(args, benchmark, tmp, selected, expected)
            print_set(second, benchmark, args.trace)
            text, clean = report.compare(run, second, report.end_to_end_defs(benchmark))
            print(text)
            print("check-repeat:", "the two sets agree" if clean else "the two sets DISAGREE")
            ok = ok and clean and all(r["correct"] for r in second["workloads"].values())
            run = {"first": run, "second": second}
        if args.out:
            with open(args.out, "w") as handle:
                json.dump(run, handle, indent=1)
        if len(selected) == 1 and not args.check_repeat:
            print(contract_line(run["workloads"][selected[0]], benchmark, args.trace))
        return 0 if ok else 1
    except ChildFailed as exc:
        print(f"ledger: {exc}", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            TMP_PARENT.rmdir()
        except OSError:
            pass  # another run is using it


if __name__ == "__main__":
    sys.exit(main())
