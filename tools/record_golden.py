"""Record the golden scheduler outputs for the determinism tests.

Run from the repository root::

    PYTHONPATH=src python tools/record_golden.py

Writes ``tests/rma/golden/seed_scheduler.json`` and, next to it,
``perturbed.json`` (the perturbed cases), recorded on the reference
interpreter (``tests/reference.py``, README "The determinism contract").
The checked-in ``seed_scheduler.json`` was produced by the original
baton-passing scheduler, and the reference reproduces it bit for bit;
re-recording either file would defeat the point of the golden test, so only
do that when the simulation *semantics* (latency model, protocols,
perturbation streams) intentionally change — and say so in the commit
message.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Any, Dict

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))
sys.path.insert(0, str(REPO))

from tests.rma.golden_cases import (  # noqa: E402
    GOLDEN_CASES, PERTURBED_CASES, golden_config, golden_perturbation, result_fingerprint,
)
from tests.reference import REFERENCE, ReferenceRuntime  # noqa: E402


def record(cases: Dict[str, Dict[str, Any]] = GOLDEN_CASES) -> Dict[str, Any]:
    """Run every case of ``cases`` on the reference; returns the golden file's payload."""
    from repro.bench.harness import build_lock_spec, make_lock_program

    payload: Dict[str, Any] = {"runtime": REFERENCE, "cases": {}}
    for name in cases:
        config = golden_config(name, cases)
        spec, is_rw = build_lock_spec(config)
        runtime = ReferenceRuntime(
            config.machine, window_words=spec.window_words + 2, seed=config.seed,
            perturbation=golden_perturbation(name, cases),
        )
        program = make_lock_program(config, spec, is_rw, spec.window_words)
        payload["cases"][name] = result_fingerprint(runtime.run(program, window_init=spec.init_window))
    return payload


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--output",
        default=str(REPO / "tests" / "rma" / "golden" / "seed_scheduler.json"),
    )
    args = parser.parse_args()
    out = Path(args.output)
    out.parent.mkdir(parents=True, exist_ok=True)
    for path, cases in ((out, GOLDEN_CASES), (out.with_name("perturbed.json"), PERTURBED_CASES)):
        path.write_text(json.dumps(record(cases), indent=2, sort_keys=True) + "\n")
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
