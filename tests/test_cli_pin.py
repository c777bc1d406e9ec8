"""Byte-for-byte pins of the CLI's output: every ``--help`` text, and stdout,
stderr and exit code of one small run per sweep.

The goldens live in ``tests/cli_golden/`` and are only read here.  Host
facts are masked before the comparison: the ``N.NNs wall`` time, the cache
epoch, the cold / warm times of a bless, the ``sim_ops_per_s`` column and
the temporary directory.  After an intended output change, rewrite the
goldens with ``PYTHONPATH=src python tests/test_cli_pin.py`` and review the
diff.
"""

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

from repro.bench.campaign import CampaignSpec, register_campaign, unregister_campaign
from repro.cli import main

GOLDEN = Path(__file__).parent / "cli_golden"

HELP = [
    [],
    ["figures"], ["bench"], ["trace"], ["verify"],
    ["campaign"], ["campaign", "list"], ["campaign", "show"], ["campaign", "run"],
    ["regress"], ["conform"], ["faults"], ["traffic"], ["scale"], ["tune"], ["info"],
]

#: One small run per sweep: the tiny grids ``tests/test_cli.py`` runs.
RUNS = {
    "conform": ["conform", "--schemes", "ticket", "--benchmarks", "wcsb", "--procs", "4",
                "--iterations", "2", "--seeds", "1", "--jobs", "1", "--no-cache"],
    "faults": ["faults", "--schemes", "lease-lock", "--scenarios", "holder-crash", "--procs", "4",
               "--iterations", "4", "--seeds", "1", "--jobs", "1", "--no-cache"],
    "traffic": ["traffic", "--schemes", "fompi-spin", "--scenarios", "traffic-zipf",
                "--procs", "8", "--iterations", "3", "--jobs", "1", "--no-cache"],
    "scale": ["scale", "--smoke", "--jobs", "1", "--fluid", "fluid-phased", "--no-cache"],
    "tune": ["tune", "--scheme", "rma-rw", "--tune-param", "t_r", "--scenario", "traffic-zipf",
             "--procs", "8", "--iterations", "3", "--jobs", "1", "--no-cache"],
    "campaign-run": ["campaign", "run", "pin-tiny", "--jobs", "1", "--no-cache"],
    "regress-bless": ["regress", "--campaign", "pin-tiny", "--jobs", "1", "--bless",
                      "--baseline", "{tmp}/BENCH_campaign.json", "--cache-dir", "{tmp}/cache"],
}

TINY = CampaignSpec(
    name="pin-tiny", schemes=("ticket",), benchmarks=("ecsb",), process_counts=(4,),
    iterations=3, procs_per_node=4,
)


def _mask_column(text: str, column: str) -> str:
    """Replace every cell of ``column`` in the tables of ``text`` by ``#``s."""
    out, start = [], None
    for line in text.split("\n"):
        if start is not None and line.strip() and not line.startswith("-"):
            end = start + len(column)
            line = line[:start] + "#" * len(column) + line[end:]
        elif not line.strip():
            start = None
        if column in line.split():
            start = line.index(column)
        out.append(line)
    return "\n".join(out)


def _mask(text: str, tmp: str) -> str:
    if tmp:
        text = text.replace(tmp, "<tmp>")
    text = re.sub(r"\d+\.\d\ds wall", "N.NNs wall", text)
    text = re.sub(r"cache epoch [^)\s]+", "cache epoch EPOCH", text)
    text = re.sub(r"cold [\d.]+s, warm [\d.]+s", "cold N.NNs, warm N.NNs", text)
    return _mask_column(text, "sim_ops_per_s")


def _record(argv, tmp: str) -> str:
    """The masked transcript of ``repro <argv>`` at a fixed terminal width."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main([arg.format(tmp=tmp) for arg in argv])
        except SystemExit as exc:  # --help
            code = exc.code
    return _mask(f"exit: {code}\n--- stdout\n{out.getvalue()}--- stderr\n{err.getvalue()}", tmp)


def _golden_name(argv) -> str:
    return "help-" + ("-".join(argv) or "repro") + ".txt"


def _help_transcripts():
    """Every ``--help`` transcript, from one fresh interpreter: the
    ``--scheme`` / ``--benchmark`` choices list what the registries hold,
    and importing a suite engine registers more."""
    script = (
        "import json\n"
        "from tests.test_cli_pin import HELP, _golden_name, _record\n"
        "print(json.dumps({_golden_name(argv): _record([*argv, '--help'], '') for argv in HELP}))\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, timeout=120,
        cwd=GOLDEN.parents[1],
        env={**os.environ, "COLUMNS": "80", "PYTHONPATH": os.pathsep.join(sys.path)},
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


@pytest.fixture(scope="module")
def help_transcripts():
    return _help_transcripts()


@pytest.fixture
def tiny_campaign():
    register_campaign(TINY, replace=True)
    yield
    unregister_campaign(TINY.name)


@pytest.mark.parametrize("argv", HELP, ids=lambda argv: " ".join(argv) or "repro")
def test_help_is_pinned(argv, help_transcripts):
    golden = _golden_name(argv)
    assert help_transcripts[golden] == (GOLDEN / golden).read_text()


@pytest.mark.parametrize("name", list(RUNS))
def test_run_is_pinned(name, tiny_campaign, tmp_path, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    assert _record(RUNS[name], str(tmp_path)) == (GOLDEN / f"run-{name}.txt").read_text()


if __name__ == "__main__":  # pragma: no cover - rewrites the goldens
    import tempfile

    sys.path.insert(0, str(GOLDEN.parents[1]))
    os.environ["COLUMNS"] = "80"
    for golden, text in _help_transcripts().items():
        (GOLDEN / golden).write_text(text)
    register_campaign(TINY, replace=True)
    for name, argv in RUNS.items():
        with tempfile.TemporaryDirectory() as tmp:
            (GOLDEN / f"run-{name}.txt").write_text(_record(argv, tmp))
