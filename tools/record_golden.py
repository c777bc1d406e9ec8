"""Record the golden scheduler outputs for the determinism tests.

Run from the repository root::

    PYTHONPATH=src python tools/record_golden.py

Writes ``tests/rma/golden/seed_scheduler.json`` and, next to it,
``perturbed.json`` (the perturbed cases) and ``request_streams.json`` (the
request-stream gate: per-rank chunk digests of every registered scheme's
requests), recorded on the reference interpreter (``tests/reference.py``,
README "The determinism contract").
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
    GOLDEN_CASES, PERTURBED_CASES, STREAM_CHUNK, RequestStreamHasher, golden_config, golden_perturbation,
    result_fingerprint, stream_cases, stream_digests,
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


def record_streams() -> Dict[str, Any]:
    """Every request-stream gate case's per-rank digests, on the reference."""
    cases = {case: stream_digests(case, ReferenceRuntime, RequestStreamHasher())[0] for case in stream_cases()}
    return {"runtime": REFERENCE, "chunk": STREAM_CHUNK, "cases": cases}


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
    path = out.with_name("request_streams.json")
    path.write_text(json.dumps(record_streams(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
