"""Tests for the command-line interface (`python -m repro ...`)."""

from __future__ import annotations

import contextlib
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from repro.api.registry import get_scheme, scheme_names
from repro.cli import _FIGURES, build_parser, main

#: Every harness scheme this package registers.
BUILTIN_HARNESS_SCHEMES = [
    name for name in scheme_names(harness=True)
    if get_scheme(name).builder.__module__.startswith("repro.")
]


def _table_rows(out, first_column):
    """The rows of the printed table whose header starts with ``first_column``."""
    lines = out.splitlines()
    start = next(
        i for i, line in enumerate(lines)
        if line.split()[:1] == [first_column] and lines[i + 1].startswith("-")
    )
    header = lines[start].split()
    rows = []
    for line in lines[start + 2:]:
        if not line.strip():
            break
        rows.append(dict(zip(header, line.split())))
    return rows


class TestParser:
    def test_requires_a_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_figures_defaults(self):
        args = build_parser().parse_args(["figures"])
        assert args.command == "figures"
        assert args.names == []

    def test_bench_arguments(self):
        args = build_parser().parse_args(
            ["bench", "--scheme", "rma-mcs", "--benchmark", "sob", "--procs", "16", "--param", "t_l=[2,4]"]
        )
        assert args.scheme == "rma-mcs"
        assert args.scheme_params == ["t_l=[2,4]"]

    def test_bench_rejects_unknown_scheme(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["bench", "--scheme", "bogus"])


class TestCommands:
    def test_figures_unknown_name_errors(self, capsys):
        code = main(["figures", "99z"])
        assert code == 2
        assert "unknown figure" in capsys.readouterr().err

    def test_figures_single_small_sweep(self, capsys):
        code = main(["figures", "4a", "--procs", "4", "8", "--iterations", "4"])
        assert code == 0
        out = capsys.readouterr().out
        assert "Figure 4a" in out
        assert "P" in out

    def test_figures_ablation(self, capsys):
        code = main(["figures", "ablation-locality", "--procs", "4", "--iterations", "4"])
        assert code == 0
        assert "ablation-locality" in capsys.readouterr().out.lower()

    def test_bench_runs_and_prints_metrics(self, capsys):
        code = main([
            "bench", "--scheme", "d-mcs", "--benchmark", "ecsb",
            "--procs", "8", "--procs-per-node", "4", "--iterations", "5",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "throughput_mln_s" in out
        assert "RMA operations issued" in out

    def test_bench_rma_rw_with_thresholds(self, capsys):
        code = main([
            "bench", "--scheme", "rma-rw", "--procs", "8", "--procs-per-node", "4",
            "--iterations", "5", "--fw", "0.1",
            "--param", "t_dc=4", "--param", "t_r=8", "--param", "t_l=[2,2]",
        ])
        assert code == 0
        assert "rma-rw" in capsys.readouterr().out

    def test_figures_unknown_name_suggests_close_match(self, capsys):
        code = main(["figures", "4x"])
        assert code == 2
        err = capsys.readouterr().err
        assert "unknown figure" in err
        assert "Did you mean" in err

    def test_info(self, capsys):
        code = main(["info", "--procs", "16", "--procs-per-node", "8"])
        assert code == 0
        out = capsys.readouterr().out
        assert "Machine:" in out
        assert "Portability" in out
        assert "fortran-2008" in out

    @pytest.mark.parametrize(
        "argv,reason",
        [
            (["bench", "--procs", "0"], "num_processes must be >= 1"),
            (["trace", "--iterations", "0"], "iterations must be >= 1"),
            (["info", "--procs", "0"], "num_processes must be >= 1"),
        ],
        ids=["bench", "trace", "info"],
    )
    def test_a_bad_size_is_a_one_line_usage_error(self, argv, reason, capsys):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert reason in captured.err and captured.err.count("\n") == 1
        assert not captured.out


def _fresh(*args: str) -> subprocess.CompletedProcess:
    """``python *args`` in a fresh interpreter on this process's path."""
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
    )


class TestImportCost:
    def test_cli_import_loads_no_figure_driver_or_dht_workload(self):
        """`repro --help` and every command skip the figure drivers, and
        neither the suite table nor the built-in registrations the parser
        reads import a sweep engine."""
        heavy = (
            "repro.bench.experiments", "repro.dht.workload", "repro.traffic.engine",
            "repro.scale.engine", "repro.scale.fluid", "repro.control.tune",
            "repro.bench.conformance", "repro.bench.faults", "repro.verification.explorer",
        )
        done = _fresh("-c", (
            "import sys, repro.cli\nrepro.cli.build_parser()\n"
            f"print(sorted(m for m in {heavy!r} if m in sys.modules))\n"
        ))
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "[]"

    def test_a_fresh_process_knows_the_scale_builtins(self):
        """The scale scenarios and the scale-suite campaign load with the
        other built-ins, whatever the process imported first."""
        done = _fresh("-c", (
            "from repro.api.registry import benchmark_names\n"
            "from repro.bench.campaign import campaign_names\n"
            "print({'scale-elastic', 'scale-hot', 'scale-hot-rehome'} <= set(benchmark_names()),"
            " 'scale-suite' in campaign_names())\n"
        ))
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "True True"
        bench = _fresh("-m", "repro", "bench", "--benchmark", "scale-hot", "--iterations", "4")
        assert bench.returncode == 0, bench.stderr
        assert "scale-hot" in bench.stdout

    def test_every_suite_has_a_ci_matrix_row(self):
        from repro.bench.suites import SUITES

        ci = (Path(__file__).parents[1] / ".github" / "workflows" / "ci.yml").read_text()
        commands = set(re.findall(r"^\s+command: (\S+) ", ci, re.M))
        assert {suite.name for suite in SUITES} <= commands


class TestFigureExport:
    def test_output_dir_writes_csv_and_json(self, tmp_path, capsys):
        code = main([
            "figures", "4a", "--procs", "4", "--iterations", "4",
            "--output-dir", str(tmp_path / "out"),
        ])
        assert code == 0
        assert (tmp_path / "out" / "figure_4a.csv").exists()
        assert (tmp_path / "out" / "figure_4a.json").exists()
        assert "saved:" in capsys.readouterr().out

    @pytest.mark.parametrize("name", list(_FIGURES))
    def test_every_figure_prints_the_rows_it_saves(self, name, tmp_path, capsys):
        code = main([
            "figures", name, "--procs", "4", "--iterations", "4", "--jobs", "1",
            "--output-dir", str(tmp_path),
        ])
        out = capsys.readouterr().out
        assert code == 0
        _, series, value = _FIGURES[name]
        lines = out.splitlines()
        assert lines[0] == f"== Figure {name} ==  (y = {value})"
        rows = json.loads((tmp_path / f"figure_{name.replace('-', '_')}.json").read_text())["rows"]
        assert rows and all(row["P"] == 4 and row[value] >= 0 for row in rows)
        # Series names may hold single spaces; columns are two or more apart.
        columns = re.split(r"\s{2,}", lines[1].strip())
        cells = re.split(r"\s{2,}", lines[3].strip())
        assert columns[0] == "P" and cells[0] == "4" and lines[4] == ""
        assert set(columns[1:]) == {str(row[series]) for row in rows}
        for column, cell in zip(columns[1:], cells[1:]):
            assert cell in {f"{row[value]:.3f}" for row in rows if str(row[series]) == column}


class TestTraceCommand:
    def test_trace_mcs_scheme(self, capsys):
        from repro.cli import main

        code = main(["trace", "--scheme", "rma-mcs", "--procs", "8", "--procs-per-node", "4", "--iterations", "3"])
        out = capsys.readouterr().out
        assert code == 0
        assert "operation share by distance" in out
        assert "hottest remote targets" in out

    def test_trace_rw_scheme_with_activity_strip(self, capsys):
        from repro.cli import main

        code = main([
            "trace", "--scheme", "rma-rw", "--procs", "8", "--procs-per-node", "4",
            "--iterations", "3", "--fw", "0.5", "--activity",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "virtual time 0" in out  # the per-rank activity strip header

    @pytest.mark.parametrize("scheme", BUILTIN_HARNESS_SCHEMES)
    def test_trace_tables_account_for_every_traced_call(self, scheme, capsys):
        code = main([
            "trace", "--scheme", scheme, "--procs", "8", "--procs-per-node", "4",
            "--iterations", "3", "--fw", "0.5", "--activity",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert f"Scheme  : {scheme}, 3 acquisitions per rank" in out
        traced = int(re.search(r"RMA calls traced: (\d+)", out).group(1))
        assert traced > 0
        assert sum(int(row["count"]) for row in _table_rows(out, "call")) == traced
        assert sum(int(row["ops"]) for row in _table_rows(out, "distance")) == traced
        assert re.findall(r"^rank (\d+) \|", out, re.M) == [str(r) for r in range(8)]

    def test_a_truncated_trace_says_so(self, capsys, monkeypatch):
        from repro.bench import trace

        args = ["trace", "--scheme", "rma-mcs", "--procs", "8", "--procs-per-node", "4", "--iterations", "3"]
        assert main(args) == 0
        total = int(re.search(r"RMA calls traced: (\d+)\n", capsys.readouterr().out).group(1))
        assert total > 100

        class Capped(trace.TraceRecorder):
            def __init__(self):
                super().__init__(capacity=100)

        monkeypatch.setattr(trace, "TraceRecorder", Capped)
        assert main(args) == 0
        out = capsys.readouterr().out
        assert f"RMA calls traced: 100 of {total}; shares cover the first 100\n" in out
        assert sum(int(row["count"]) for row in _table_rows(out, "call")) == 100


class TestVerifyCommand:
    @pytest.fixture(scope="class")
    def verify(self):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(["verify", "--procs", "2", "--rounds", "1"])
        return code, out.getvalue()

    def test_verify_explores_every_registered_scheme(self, verify):
        code, out = verify
        table = out.split("\n\n")[0]
        assert code == 0
        rows = {line.split()[0]: line.split() for line in table.splitlines()[2:]}
        for name in scheme_names():
            assert rows[name][-1] == "ok", rows[name]
        assert rows["ticket"][3:5] == ["1", "1"]  # declared bound P - 1, reached

    def test_verify_explores_each_declared_crash(self, verify):
        code, out = verify
        crashes = out.split("\n\n")[2]
        rows = {tuple(line.split()[:2]): line for line in crashes.splitlines()[2:]}
        assert list(rows) == [
            ("lease-lock", "holder-crash"), ("lease-lock", "waiter-crash"),
            ("repair-mcs", "waiter-crash"), ("repair-mcs-racy", "waiter-crash"),
        ]
        # At least three ranks (a racer behind the dead waiter), on both shapes.
        assert "states (1 node)" in crashes and "states (3 nodes)" in crashes
        assert all(line.rstrip().endswith(" ok") for key, line in rows.items() if key[0] != "repair-mcs-racy")
        assert "mutant caught: [deadlock] no rank can move: rank 2 waits" in rows[("repair-mcs-racy", "waiter-crash")]

    def test_verify_prints_witnesses_that_replay(self, verify):
        from repro.topology.machine import Machine
        from repro.verification.explorer import Explorer

        code, out = verify
        row = next(line for line in out.splitlines() if line.startswith("repair-mcs-racy  waiter-crash"))
        violation = row[row.index("mutant caught: ") + len("mutant caught: "):].rstrip()
        witness = next(line for line in out.splitlines() if line.startswith("  repair-mcs-racy waiter-crash (1 node): "))
        schedule = witness.split("): ", 1)[1]
        assert "kill " in schedule
        assert Explorer("repair-mcs-racy", Machine.single_node(3), crash="waiter-crash").replay(schedule) == violation

    def test_verify_exits_1_when_the_racy_walk_is_patched_into_repair_mcs(self, monkeypatch, capsys):
        from tests.support import MUTANTS

        mutant = MUTANTS["racy-repair-walk"]
        monkeypatch.setattr(mutant.handle, mutant.method, mutant.steps)
        assert main(["verify", "--procs", "2"]) == 1
        out = capsys.readouterr().out
        row = next(line for line in out.splitlines() if line.startswith("repair-mcs  ") and "waiter-crash" in line)
        assert "FAIL (1 node): [deadlock]" in row
        assert "  repair-mcs waiter-crash (1 node): " in out  # its witness

    def test_verify_exits_1_when_a_known_mutant_is_clean(self, monkeypatch, capsys):
        monkeypatch.setattr("repro.verification.explorer.KNOWN_MUTANTS", ("repair-mcs-racy", "repair-mcs"))
        assert main(["verify", "--procs", "2"]) == 1
        out = capsys.readouterr().out
        row = next(line for line in out.splitlines() if line.startswith("repair-mcs  ") and "waiter-crash" in line)
        assert "FAIL (1 node): mutant escaped" in row

    def test_verify_exits_1_on_a_violation(self, monkeypatch, capsys):
        from tests.support import MUTANTS

        # The racy counter reset needs rma-rw at t_r = 1: the defaults reach it.
        mutant = MUTANTS["racy-reset"]
        monkeypatch.setattr(mutant.handle, mutant.method, mutant.steps)
        assert main(["verify"]) == 1
        out = capsys.readouterr().out
        row = next(line for line in out.splitlines() if line.startswith("rma-rw "))
        assert "FAIL (1 node): [mutual-exclusion]" in row
        assert "  rma-rw (1 node): " in out  # its witness

    def test_verify_skips_a_blocking_only_lock(self, capsys):
        import runpy
        from pathlib import Path

        from repro.api.registry import unregister

        runpy.run_path(str(Path(__file__).parents[1] / "examples" / "custom_lock.py"), run_name="custom_lock_example")
        try:
            assert main(["verify", "--procs", "2"]) == 0
        finally:
            unregister("scheme", "tas-backoff")
        row = next(line for line in capsys.readouterr().out.splitlines() if line.startswith("tas-backoff "))
        assert "skipped: scheme 'tas-backoff': TASBackoffLockHandle is blocking-only" in row

    @pytest.mark.parametrize(
        "flags,message",
        [(["--procs", "1"], "--procs must be at least 2"), (["--rounds", "0"], "--rounds must be at least 1")],
    )
    def test_too_small_procs_or_rounds_exit_2(self, flags, message, capsys):
        assert main(["verify", *flags]) == 2
        assert message in capsys.readouterr().err


class TestRelatedFigureNames:
    def test_related_mcs_figure_runs(self, capsys):
        from repro.cli import main

        code = main(["figures", "related-rw", "--procs", "4", "8", "--iterations", "4"])
        out = capsys.readouterr().out
        assert code == 0
        assert "Figure related-rw" in out
        assert "numa-rw" in out


class TestNoSchedulerFlag:
    # horizon is the one runtime.  The reference interpreter is compared with
    # it at the library entry points the flag used to reach: Cluster.bench
    # (api/test_session.py), the figure drivers (bench/test_experiments.py),
    # run_campaign (bench/test_campaign.py), run_traffic
    # (traffic/test_engine.py) and run_tune (control/test_tune.py).
    @pytest.mark.parametrize(
        "command",
        [["figures", "4a"], ["bench"], ["campaign", "run", "ci-gate"], ["conform"],
         ["traffic"], ["scale"], ["tune"]],
        ids=" ".join,
    )
    def test_scheduler_is_an_unknown_option(self, command, capsys):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args([*command, "--scheduler", "horizon"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --scheduler" in capsys.readouterr().err


class TestCampaignCommand:
    @pytest.fixture()
    def tiny_campaign(self, tmp_path, monkeypatch):
        from repro.bench.campaign import CampaignSpec, register_campaign, unregister_campaign

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        spec = CampaignSpec(
            name="cli-tiny",
            schemes=("rma-mcs",),
            benchmarks=("ecsb",),
            process_counts=(4,),
            iterations=3,
            procs_per_node=4,
        )
        register_campaign(spec, replace=True)
        yield spec
        unregister_campaign(spec.name)

    def test_campaign_list_names_builtins(self, capsys):
        assert main(["campaign", "list"]) == 0
        out = capsys.readouterr().out
        assert "ci-gate" in out
        assert "rw-contention" in out

    def test_campaign_show_prints_expanded_grid(self, capsys):
        assert main(["campaign", "show", "ci-gate"]) == 0
        out = capsys.readouterr().out
        assert "rma-rw-wcsb-p64" in out
        # schemes resolve against the live registry: every harness scheme
        # (including the fault-recovery locks) x P in {8, 32, 64}.
        expected = 3 * len(scheme_names(harness=True))
        assert f"{expected} points" in out

    def test_campaign_show_unknown_name_suggests(self, capsys):
        assert main(["campaign", "show", "ci-gat"]) == 2
        err = capsys.readouterr().err
        assert "unknown campaign" in err
        assert "ci-gate" in err

    def test_campaign_list_survives_a_broken_campaign(self, capsys):
        """One campaign with an unresolvable scheme must not take down the
        listing (nor `show`/`run` crash with a traceback)."""
        from repro.bench.campaign import CampaignSpec, register_campaign, unregister_campaign

        register_campaign(
            CampaignSpec(name="broken", schemes=("no-such-lock",)), replace=True
        )
        try:
            assert main(["campaign", "list"]) == 0
            out = capsys.readouterr().out
            assert "ci-gate" in out
            assert "error:" in out
            assert main(["campaign", "show", "broken"]) == 2
            assert "cannot be expanded" in capsys.readouterr().err
            assert main(["campaign", "run", "broken", "--jobs", "1", "--no-cache"]) == 2
        finally:
            unregister_campaign("broken")

    def test_campaign_run_computes_then_hits_cache(self, tiny_campaign, capsys):
        assert main(["campaign", "run", "cli-tiny", "--jobs", "1"]) == 0
        out = capsys.readouterr().out
        assert "0 cached / 1 computed" in out
        assert main(["campaign", "run", "cli-tiny", "--jobs", "1"]) == 0
        assert "1 cached / 0 computed" in capsys.readouterr().out

    def test_campaign_run_writes_manifest(self, tiny_campaign, tmp_path, capsys):
        out_file = tmp_path / "out.json"
        assert main(["campaign", "run", "cli-tiny", "--jobs", "1", "--no-cache",
                     "--output", str(out_file)]) == 0
        import json

        payload = json.loads(out_file.read_text())
        assert payload["campaign"] == "cli-tiny"
        assert len(payload["rows"]) == 1
        assert "fingerprint" in payload["rows"][0]


class TestRegressCommand:
    @pytest.fixture()
    def tiny_campaign(self, tmp_path, monkeypatch):
        from repro.bench.campaign import CampaignSpec, register_campaign, unregister_campaign

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        spec = CampaignSpec(
            name="cli-regress-tiny",
            schemes=("ticket",),
            benchmarks=("ecsb",),
            process_counts=(4,),
            iterations=3,
            procs_per_node=4,
        )
        register_campaign(spec, replace=True)
        yield spec.name
        unregister_campaign(spec.name)

    def test_regress_bless_then_pass(self, tiny_campaign, tmp_path, capsys):
        baseline = tmp_path / "BENCH_campaign.json"
        assert main(["regress", "--campaign", tiny_campaign, "--jobs", "1",
                     "--baseline", str(baseline), "--bless"]) == 0
        assert baseline.exists()
        assert main(["regress", "--campaign", tiny_campaign, "--jobs", "1",
                     "--baseline", str(baseline)]) == 0
        out = capsys.readouterr().out
        assert "regress: PASS" in out

    def test_another_campaign_is_not_gated_against_the_default_baseline(
        self, tiny_campaign, tmp_path, monkeypatch, capsys
    ):
        from repro.bench import regress as regress_mod

        # A default baseline that holds this campaign's own rows: only the
        # missing --baseline can fail the gate.
        baseline = tmp_path / "BENCH_campaign.json"
        assert main(["regress", "--campaign", tiny_campaign, "--jobs", "1",
                     "--baseline", str(baseline), "--bless"]) == 0
        monkeypatch.setattr(regress_mod, "DEFAULT_CAMPAIGN_BASELINE", baseline)
        capsys.readouterr()
        assert main(["regress", "--campaign", tiny_campaign, "--jobs", "1"]) == 2
        assert f"--campaign {tiny_campaign} needs --baseline" in capsys.readouterr().err

    def test_another_campaign_is_not_blessed_over_the_default_baseline(
        self, tiny_campaign, tmp_path, monkeypatch, capsys
    ):
        from repro.bench import regress as regress_mod

        default = tmp_path / "BENCH_campaign.json"
        monkeypatch.setattr(regress_mod, "DEFAULT_CAMPAIGN_BASELINE", default)
        assert main(["regress", "--campaign", tiny_campaign, "--jobs", "1", "--bless"]) == 2
        assert f"--campaign {tiny_campaign} needs --baseline" in capsys.readouterr().err
        assert not default.exists()

    def test_regress_unknown_campaign_errors(self, capsys):
        assert main(["regress", "--campaign", "nope"]) == 2
        assert "unknown campaign" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["perf"],
            ["regress", "--soft"],
            ["regress", "--strict-tol", "0.1"],
            ["regress", "--soft-tol", "0.1"],
            ["regress", "--scaling"],
            ["regress", "--runtime-baseline", "none"],
        ],
        ids=" ".join,
    )
    def test_speed_options_are_gone(self, argv):
        """Speed is measured with the ledger, not by the CLI."""
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(argv)
        assert exc.value.code == 2

    @pytest.mark.parametrize("flag", ["--traffic-baseline", "--tune-baseline", "--scale-baseline"])
    def test_committed_manifests_are_always_checked(self, flag):
        """No flag skips or redirects the traffic, tune and scale checks."""
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["regress", flag, "none"])
        assert exc.value.code == 2


class TestBlessRules:
    """Every ``--bless`` writes only what ``repro regress`` accepts."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["traffic", "--schemes", "fompi-spin", "rma-mcs", "rma-rw",
             "--scenarios", "traffic-zipf", "--procs", "8", "--iterations", "3"],
            ["scale", "--smoke", "--fluid", "fluid-phased"],
            ["tune", "--smoke"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_bless_refuses_no_cache(self, argv, tmp_path, capsys):
        """A bless needs the cache for its warm run: the pair is a usage error
        that computes nothing and stores nothing."""
        cache, baseline = tmp_path / "cache", tmp_path / "BENCH.json"
        code = main(argv + ["--jobs", "1", "--cache-dir", str(cache), "--no-cache",
                            "--bless", "--baseline", str(baseline)])
        assert code == 2
        assert "--bless needs the cache" in capsys.readouterr().err
        assert not cache.exists() and not baseline.exists()

    def test_one_scheme_bless_is_refused(self, tmp_path, capsys):
        baseline = tmp_path / "BENCH_traffic.json"
        baseline.write_text("committed\n")
        code = main([
            "traffic", "--schemes", "rma-mcs", "--scenarios", "traffic-zipf",
            "--procs", "8", "--iterations", "3", "--jobs", "1",
            "--cache-dir", str(tmp_path / "cache"), "--bless", "--baseline", str(baseline),
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert "schemes: baseline covers 1 scheme(s)" in err
        assert baseline.read_text() == "committed\n"


@pytest.fixture
def crash_lock(monkeypatch):
    """Register ``cli-crash-lock``: a ticket lock whose ``make`` raises when
    ``crashes(ctx)`` holds.  Yields a function that installs the predicate
    and returns the scheme name."""
    from dataclasses import dataclass

    from repro.api.registry import register_scheme, unregister
    from repro.core.lock_base import LockSpec

    predicate = {}

    @dataclass(frozen=True)
    class _CrashSpec(LockSpec):
        inner: LockSpec

        @property
        def window_words(self):
            return self.inner.window_words

        def init_window(self, rank):
            return self.inner.init_window(rank)

        def make(self, ctx):
            if predicate["crashes"](ctx):
                raise KeyError("third-party bug")
            return self.inner.make(ctx)

    @register_scheme("cli-crash-lock", category="custom", replace=True)
    def _build(machine):
        return _CrashSpec(get_scheme("ticket").build(machine))

    def install(crashes):
        predicate["crashes"] = crashes
        return "cli-crash-lock"

    yield install
    unregister("scheme", "cli-crash-lock")


class TestConformCommand:
    @staticmethod
    def argv(scheme, iterations="2"):
        return ["conform", "--schemes", scheme, "--benchmarks", "wcsb", "--procs", "4",
                "--iterations", iterations, "--seeds", "1", "--jobs", "1", "--no-cache"]

    def test_a_passing_grid_prints_the_scheme_table_and_the_verdict(self, capsys):
        assert main(self.argv("ticket")) == 0
        out = capsys.readouterr().out
        rows = _table_rows(out, "scheme")
        assert [(r["scheme"], r["points"], r["verdict"]) for r in rows] == [("ticket", "2", "ok")]
        assert "verdict: every scheme upheld every oracle on every schedule" in out
        assert "failing points:" not in out

    def test_a_failing_grid_lists_the_points_and_exits_1(self, crash_lock, capsys):
        scheme = crash_lock(lambda ctx: True)
        assert main(self.argv(scheme)) == 1
        captured = capsys.readouterr()
        assert "failing points:" in captured.out
        failing = _table_rows(captured.out.split("failing points:")[1], "case")
        assert len(failing) == 2 and "KeyError:" in captured.out
        assert "verdict: 2 point(s) FAILED" in captured.err

    def test_zero_iterations_is_a_usage_error(self, capsys):
        assert main(self.argv("ticket", iterations="0")) == 2
        assert "iterations must be >= 1" in capsys.readouterr().err


class TestFaultsCommand:
    @staticmethod
    def argv(scheme, iterations="4"):
        return ["faults", "--schemes", scheme, "--scenarios", "holder-crash", "--procs", "4",
                "--iterations", iterations, "--seeds", "1", "--jobs", "1", "--no-cache"]

    def test_a_passing_grid_prints_the_scheme_table_and_the_verdict(self, capsys):
        assert main(self.argv("lease-lock")) == 0
        out = capsys.readouterr().out
        rows = _table_rows(out, "scheme")
        assert [(r["scheme"], r["points"], r["verdict"]) for r in rows] == [
            ("lease-lock", "1", "ok")
        ]
        assert rows[0]["statuses"] == "recovered:1"
        assert "verdict: every declared recovery recovered" in out
        assert "failing points:" not in out

    def test_a_failing_grid_lists_the_points_and_exits_1(self, crash_lock, monkeypatch, capsys):
        from repro.fault import plan as fault_plan

        # The lock crashes only in the faulted run, not in the probe, and
        # declares a recovery it does not make: a lost lock.
        scheme = crash_lock(lambda ctx: getattr(ctx, "fault", None) is not None)
        monkeypatch.setitem(
            fault_plan._RECOVERY, scheme,
            fault_plan.RecoveryInfo(scenarios=frozenset({"holder-crash"})),
        )
        assert main(self.argv(scheme)) == 1
        captured = capsys.readouterr()
        failing = _table_rows(captured.out.split("failing points:")[1], "case")
        assert [r["status"] for r in failing] == ["unavailable"]
        assert "[error] KeyError:" in captured.out
        assert "verdict: 1 point(s) FAILED" in captured.err

    def test_a_scheme_whose_unfaulted_run_fails_is_a_failing_row(self, crash_lock, capsys):
        """The probe run is inside the verdict net: its failure is a
        ``violation`` row, not the end of the sweep."""
        scheme = crash_lock(lambda ctx: True)
        assert main(self.argv(scheme)) == 1
        captured = capsys.readouterr()
        failing = _table_rows(captured.out.split("failing points:")[1], "case")
        assert [r["status"] for r in failing] == ["violation"]
        assert "[error] KeyError: 'third-party bug'" in captured.out
        assert "verdict: 1 point(s) FAILED" in captured.err

    def test_zero_iterations_is_a_usage_error(self, capsys):
        assert main(self.argv("lease-lock", iterations="0")) == 2
        assert "iterations must be >= 1" in capsys.readouterr().err

    def test_a_sweep_that_staged_no_kill_exits_1(self, capsys):
        """At P = 1 no rank ever waits, so every point is ``no-crash-window``:
        nothing recovered, and nothing was judged."""
        assert main(["faults", "--procs", "1", "--schemes", "ticket", "--seeds", "1",
                     "--jobs", "1", "--no-cache"]) == 1
        captured = capsys.readouterr()
        assert _table_rows(captured.out, "scheme")[0]["statuses"] == "no-crash-window:3"
        assert "every declared recovery recovered" not in captured.out
        assert captured.err == "verdict: no point staged a kill that landed, so no recovery was judged\n"

    def test_a_named_mutant_is_a_usage_error_that_names_repro_verify(self, capsys):
        """Under the sweep's bar the racy mutant's waiter-crash and restart
        rows would read ``recovered``: it is refused, not run."""
        assert main(self.argv("repair-mcs-racy")) == 2
        err = capsys.readouterr().err
        assert err.startswith("faults sweep cannot run: 'repair-mcs-racy' is a known mutant")
        assert "`repro verify`" in err

    @pytest.mark.parametrize(
        "flags,seeds",
        [(["--smoke"], 2), (["--smoke", "--seeds", "3"], 3), (["--schemes", "ticket"], 5)],
        ids=["smoke", "smoke-explicit-seeds", "default"],
    )
    def test_an_explicit_seed_count_wins_over_the_smoke_grid(self, flags, seeds, tmp_path, capsys):
        from tests.support import smoke

        manifest = tmp_path / "faults.json"
        assert main(["faults", *flags, "--scenarios", "holder-crash", "--iterations", "2",
                     "--jobs", "1", "--no-cache", "--output", str(manifest)]) == 0
        assert f"({seeds} crash seed(s) per scheme/scenario cell)" in capsys.readouterr().out
        rows = json.loads(manifest.read_text())["rows"]
        assert {row["crash_seed"] for row in rows} == set(range(1, seeds + 1))
        schemes = list(dict.fromkeys(row["scheme"] for row in rows))
        smoke_schemes = ["lease-lock", "repair-mcs", "rma-mcs", "ticket", "alock", "lock-server"]
        assert list(smoke("faults")["schemes"]) == smoke_schemes
        assert schemes == (smoke_schemes if "--smoke" in flags else ["ticket"])


class TestTrafficCommand:
    TINY_ARGS = [
        "traffic", "--schemes", "fompi-spin", "--scenarios", "traffic-zipf",
        "--procs", "8", "--iterations", "3", "--jobs", "1",
    ]

    def test_traffic_defaults(self):
        args = build_parser().parse_args(["traffic"])
        assert args.command == "traffic"
        assert args.smoke is False

    def test_traffic_runs_on_horizon_and_prints_percentiles(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        assert main(self.TINY_ARGS) == 0
        out = capsys.readouterr().out
        assert "e2e_p99_us" in out
        assert "1 rows on scheduler(s) horizon" in out

    def test_traffic_writes_report_and_hits_cache(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        report = tmp_path / "TRAFFIC_report.json"
        assert main(self.TINY_ARGS + ["--output", str(report)]) == 0
        assert "0 cached / 1 computed" in capsys.readouterr().out
        import json

        payload = json.loads(report.read_text())
        assert payload["suite"] == "traffic"
        assert payload["rows"][0]["percentiles"]["e2e_p99_us"] > 0
        assert main(self.TINY_ARGS) == 0
        assert "1 cached / 0 computed" in capsys.readouterr().out

    def test_traffic_bless_writes_baseline(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        baseline = tmp_path / "BENCH_traffic.json"
        args = [
            "traffic", "--schemes", "fompi-spin", "rma-mcs", "rma-rw",
            "--scenarios", "traffic-zipf", "--procs", "8", "--iterations", "3",
            "--jobs", "1", "--bless", "--baseline", str(baseline),
        ]
        assert main(args) == 0
        assert "blessed" in capsys.readouterr().out
        assert baseline.exists()

    def test_traffic_unknown_scheme_errors(self, capsys):
        assert main(["traffic", "--schemes", "no-such-lock", "--jobs", "1"]) == 2
        assert "cannot run" in capsys.readouterr().err

    def test_traffic_smoke_flag_parses(self):
        args = build_parser().parse_args(["traffic", "--smoke", "--jobs", "4"])
        assert args.smoke is True
        assert args.jobs == 4

    def test_traffic_top_keys_is_analysis_only(self, capsys):
        # No sweep, no cache: the hot-key table prints straight from the
        # materialized schedules.
        args = [
            "traffic", "--scenarios", "traffic-zipf", "--procs", "8",
            "--iterations", "16", "--top-keys", "3",
        ]
        assert main(args) == 0
        out = capsys.readouterr().out
        assert "share" in out
        assert "virtual-time analysis" in out
        assert "e2e_p99_us" not in out  # the sweep never ran

    @pytest.mark.parametrize(
        "flags,named",
        [(["--bless"], "--bless"), (["--bless", "--no-cache"], "--bless"),
         (["--baseline", "B.json"], "--baseline"), (["--output", "T.json"], "--output")],
        ids=["bless", "bless-no-cache", "baseline", "output"],
    )
    def test_top_keys_refuses_the_manifest_flags(self, flags, named, tmp_path, monkeypatch, capsys):
        """The hot-key report writes no manifest: a flag that would write or
        bless one is a usage error, not silently ignored."""
        monkeypatch.chdir(tmp_path)
        args = ["traffic", "--scenarios", "traffic-zipf", "--procs", "8", "--iterations", "16",
                "--top-keys", "3", "--cache-dir", "cache", *flags]
        assert main(args) == 2
        captured = capsys.readouterr()
        assert captured.err == f"traffic sweep cannot run: {named} cannot be used with --top-keys\n"
        assert not captured.out and not list(tmp_path.iterdir())


class TestScaleCommand:
    def test_scale_defaults(self):
        args = build_parser().parse_args(["scale"])
        assert args.command == "scale"
        assert args.smoke is False
        assert args.fluid is None

    def test_scale_smoke_runs_and_reports_the_verdicts(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        report = tmp_path / "SCALE_report.json"
        args = [
            "scale", "--smoke", "--jobs", "1", "--fluid", "fluid-phased",
            "--output", str(report),
        ]
        assert main(args) == 0
        out = capsys.readouterr().out
        assert "fluid: 1 scenario(s), all within tolerance" in out
        assert "re-homing improved=True" in out
        import json

        payload = json.loads(report.read_text())
        assert payload["suite"] == "scale"
        assert payload["rehome"]["improved"] is True
        assert payload["fluid"][0]["name"] == "fluid-phased"

    def test_scale_unknown_fluid_errors(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        assert main(["scale", "--smoke", "--jobs", "1", "--fluid", "no-such"]) == 2
        assert "cannot run" in capsys.readouterr().err


class TestParamOverlayFlag:
    def test_param_flag_parses_json_values_and_coerces_them(self):
        from repro.cli import _parse_param_assignments

        overlay = _parse_param_assignments(["t-r=16", "t_l=[2, 2]"], "rma-rw")
        assert overlay == (("t_r", 16), ("t_l", (2, 2)))
        assert _parse_param_assignments(["local-cap-us=0.5"], "hbo") == (("local_cap_us", 0.5),)

    def test_param_flag_rejects_missing_value(self):
        from repro.cli import _parse_param_assignments

        with pytest.raises(SystemExit, match="NAME=VALUE"):
            _parse_param_assignments(["t_r"], "rma-rw")

    def test_bench_accepts_param_overlay(self, capsys):
        code = main([
            "bench", "--scheme", "hbo", "--procs", "8", "--procs-per-node", "4",
            "--iterations", "4", "--param", "local-cap-us=0.5",
            "--param", "min_backoff_us=0.2",
        ])
        assert code == 0
        assert "hbo" in capsys.readouterr().out

    def test_bench_unknown_param_errors_helpfully(self, capsys):
        code = main([
            "bench", "--scheme", "rma-rw", "--procs", "8", "--procs-per-node", "4",
            "--iterations", "4", "--param", "t_rr=8",
        ])
        assert code == 2
        assert "t_r" in capsys.readouterr().err

    def test_bench_accepts_t_w_param(self, capsys):
        code = main([
            "bench", "--scheme", "rma-rw", "--procs", "8", "--procs-per-node", "4",
            "--iterations", "4", "--param", "t_l=[2,2]", "--param", "t_w=3",
        ])
        assert code == 0
        assert "rma-rw" in capsys.readouterr().out

    @pytest.mark.parametrize("flag", ["--t-dc", "--t-l", "--t-r", "--t-w"])
    def test_removed_threshold_aliases_are_unknown_arguments(self, flag, capsys):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["bench", flag, "2"])
        assert excinfo.value.code == 2
        assert f"unrecognized arguments: {flag} 2" in capsys.readouterr().err


class TestTuneCommand:
    def test_tune_defaults_parse(self):
        args = build_parser().parse_args(["tune", "--smoke", "--jobs", "4"])
        assert args.smoke is True and args.jobs == 4
        assert args.bless is False

    def test_tune_single_grid_runs_and_prints_figure(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_EPOCH", "cli-tune-test")
        out_path = tmp_path / "TUNE.json"
        code = main([
            "tune", "--scheme", "rma-rw", "--tune-param", "t_r",
            "--scenario", "traffic-zipf", "--procs", "8", "--iterations", "3",
            "--jobs", "1", "--cache-dir", str(tmp_path / "cache"),
            "--output", str(out_path),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "e2e p99" in out and "default" in out
        assert "Best-known thresholds" in out
        assert out_path.exists()

    def test_tune_bless_records_horizon(self, tmp_path, capsys):
        baseline = tmp_path / "BENCH_tune.json"
        code = main([
            "tune", "--smoke", "--jobs", "1", "--cache-dir", str(tmp_path / "cache"),
            "--bless", "--baseline", str(baseline),
        ])
        assert code == 0
        assert "blessed" in capsys.readouterr().out
        payload = json.loads(baseline.read_text())
        assert payload["scheduler"] == "horizon"
        assert all(row["scheduler"] == "horizon" for row in payload["rows"])
        # horizon adds no scheduler suffix to a case name.
        assert not any("horizon" in row["case"] for row in payload["rows"])

    @pytest.mark.parametrize(
        "flags", [["--scenario", "nonexistent"], ["--tune-param", "bogus"]], ids=["scenario", "tune-param"]
    )
    def test_scheme_only_flags_without_scheme_exit_2(self, flags, tmp_path, capsys):
        cache = tmp_path / "cache"
        assert main(["tune", "--smoke", *flags, "--jobs", "1", "--cache-dir", str(cache)]) == 2
        assert f"{flags[0]} only apply with --scheme" in capsys.readouterr().err
        assert not cache.exists()

    def test_procs_and_iterations_narrow_the_suite(self, tmp_path, capsys):
        manifest = tmp_path / "TUNE.json"
        assert main(["tune", "--smoke", "--procs", "8", "--iterations", "3", "--jobs", "1",
                     "--no-cache", "--output", str(manifest)]) == 0
        rows = json.loads(manifest.read_text())["rows"]
        assert rows and {(row["P"], row["iterations"]) for row in rows} == {(8, 3)}

    def test_tune_sweeps_the_parameters_it_can_span_and_names_the_rest(self, tmp_path, capsys):
        """rma-rw's t_l and t_w default to None and have no curated axis: without
        --tune-param they are skipped on stderr, and t_dc and t_r are swept."""
        manifest = tmp_path / "TUNE.json"
        assert main(["tune", "--scheme", "rma-rw", "--procs", "8", "--iterations", "3", "--jobs", "1",
                     "--no-cache", "--output", str(manifest)]) == 0
        err = capsys.readouterr().err
        assert "skipped: parameter 't_l'" in err and "skipped: parameter 't_w'" in err
        swept = {name for row in json.loads(manifest.read_text())["rows"] for name in row["params"]}
        assert swept == {"t_dc", "t_r"}

    def test_tune_exits_2_when_no_parameter_can_be_spanned(self, capsys):
        assert main(["tune", "--scheme", "rma-mcs", "--jobs", "1", "--no-cache"]) == 2
        err = capsys.readouterr().err
        assert "skipped: parameter 't_l'" in err
        assert "scheme 'rma-mcs' declares no tunable parameters that tune can sweep" in err

    def test_an_explicit_unspannable_tune_param_exits_2(self, capsys):
        assert main(["tune", "--scheme", "rma-rw", "--tune-param", "t_l", "--jobs", "1", "--no-cache"]) == 2
        assert "tune sweep cannot run: parameter 't_l' has no positive numeric default" in capsys.readouterr().err

    def test_tune_rejects_untunable_scheme(self, capsys):
        code = main(["tune", "--scheme", "ticket", "--jobs", "1", "--no-cache"])
        assert code == 2
        assert "no tunable parameters" in capsys.readouterr().err
