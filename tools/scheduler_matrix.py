#!/usr/bin/env python
"""Regenerate the README's scheduler-selection matrix from the runtime registry.

The table between the ``<!-- scheduler-matrix:begin -->`` /
``<!-- scheduler-matrix:end -->`` markers in ``README.md`` is generated, not
hand-written: every ``@register_runtime`` backend contributes one row from
its registry metadata (name, determinism flag, help string) plus the
selection guidance below.  Adding a runtime therefore updates the docs by
re-running this script — and ``tests/api/test_scheduler_matrix.py`` fails
until someone does.

Usage::

    PYTHONPATH=src python tools/scheduler_matrix.py            # rewrite README.md
    PYTHONPATH=src python tools/scheduler_matrix.py --check    # exit 1 when stale
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.api.registry import get_runtime, runtime_names

README = Path(__file__).resolve().parent.parent / "README.md"
BEGIN = "<!-- scheduler-matrix:begin (tools/scheduler_matrix.py) -->"
END = "<!-- scheduler-matrix:end -->"

#: Selection guidance per backend; the registry's help string is the
#: fallback for runtimes registered after this tool shipped.
WHEN_TO_PICK = {
    "horizon": "the default, and the fastest on step programs (the harness, traffic and conformance loops): no rank threads, every hook (tracer, fabric, perturbation, observer) on the canonical path; blocking programs and fault plans run thread-backed",
    "baseline": "cross-checking a scheduler change against the preserved seed semantics",
    "vector": "spin-dominated *blocking* programs (batched spinner waves); about 2x slower than `horizon` on step programs, which it drives on rank threads; hooks fall back to the canonical single-shard mode",
    "thread": "demonstrating genuine races on real OS threads (wall-clock, non-reproducible)",
}


def matrix_markdown() -> str:
    lines = [
        "| scheduler | deterministic | fault injection | what it is | pick it when |",
        "|-----------|---------------|-----------------|------------|--------------|",
    ]
    for name in runtime_names():
        info = get_runtime(name)
        deterministic = "yes" if info.deterministic else "no"
        faults = "yes" if info.fault_injection else "no"
        when = WHEN_TO_PICK.get(name, "see its registry help string")
        lines.append(
            f"| `{name}` | {deterministic} | {faults} | {info.help} | {when} |"
        )
    return "\n".join(lines)


def render_readme(text: str) -> str:
    begin = text.index(BEGIN)
    end = text.index(END)
    return text[: begin + len(BEGIN)] + "\n" + matrix_markdown() + "\n" + text[end:]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--check", action="store_true", help="exit 1 when README is stale")
    args = parser.parse_args(argv)
    current = README.read_text()
    try:
        rendered = render_readme(current)
    except ValueError:
        print(f"error: {BEGIN!r} / {END!r} markers not found in {README}", file=sys.stderr)
        return 2
    if args.check:
        if rendered != current:
            print("README scheduler matrix is stale; run tools/scheduler_matrix.py")
            return 1
        print("README scheduler matrix is up to date")
        return 0
    if rendered != current:
        README.write_text(rendered)
        print(f"rewrote {README}")
    else:
        print("README already up to date")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
