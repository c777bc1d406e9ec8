"""Golden determinism cases shared by the recording tool and the golden tests.

The cases pin down the observable behaviour of the discrete-event scheduler:
any scheduler change must reproduce these results *bit-identically* (exact
floats, exact op counts, exact per-rank returns).  The reference outputs in
``golden/seed_scheduler.json`` were recorded from the original baton-passing
seed scheduler; the horizon scheduler and the reference interpreter
(``tests/reference.py``, on which ``tools/record_golden.py`` now records) are
required to match them exactly.  ``golden/perturbed.json`` pins the same kind
of run under a seeded :class:`~repro.rma.perturbation.PerturbationModel`
(``PERTURBED_CASES``), recorded on the reference.

Floats are serialized with ``float.hex`` so the comparison is bit-exact and
immune to repr/rounding differences.  Rank-program returns (which contain
long per-iteration latency lists) are folded into a SHA-256 digest of a
canonical serialization.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Dict, List, Optional

from repro.bench.workloads import LockBenchConfig
from repro.rma.perturbation import PerturbationModel
from repro.topology.builder import xc30_like

__all__ = [
    "GOLDEN_CASES", "PERTURBED_CASES", "golden_config", "golden_perturbation", "result_fingerprint",
]

#: name -> LockBenchConfig keyword arguments (machine built from P / ppn).
GOLDEN_CASES: Dict[str, Dict[str, Any]] = {
    "rma-mcs-ecsb-p8": {
        "P": 8,
        "procs_per_node": 4,
        "scheme": "rma-mcs",
        "benchmark": "ecsb",
        "iterations": 6,
        "seed": 3,
    },
    "rma-mcs-wcsb-p32": {
        "P": 32,
        "procs_per_node": 8,
        "scheme": "rma-mcs",
        "benchmark": "wcsb",
        "iterations": 5,
        "seed": 3,
    },
    "rma-rw-ecsb-p8": {
        "P": 8,
        "procs_per_node": 4,
        "scheme": "rma-rw",
        "benchmark": "ecsb",
        "iterations": 6,
        "fw": 0.2,
        "seed": 7,
    },
    "rma-rw-wcsb-p32": {
        "P": 32,
        "procs_per_node": 8,
        "scheme": "rma-rw",
        "benchmark": "wcsb",
        "iterations": 5,
        "fw": 0.2,
        "seed": 7,
    },
    # The competing lock families (recorded with a preserved copy of the
    # seed scheduler, since retired; horizon must match).
    "alock-ecsb-p8": {
        "P": 8,
        "procs_per_node": 4,
        "scheme": "alock",
        "benchmark": "ecsb",
        "iterations": 6,
        "seed": 3,
    },
    "alock-wcsb-p32": {
        "P": 32,
        "procs_per_node": 8,
        "scheme": "alock",
        "benchmark": "wcsb",
        "iterations": 5,
        "seed": 3,
    },
    "lock-server-ecsb-p8": {
        "P": 8,
        "procs_per_node": 4,
        "scheme": "lock-server",
        "benchmark": "ecsb",
        "iterations": 6,
        "seed": 3,
    },
    "lock-server-wcsb-p32": {
        "P": 32,
        "procs_per_node": 8,
        "scheme": "lock-server",
        "benchmark": "wcsb",
        "iterations": 5,
        "seed": 3,
    },
}


#: Perturbed runs: one per kind of per-operation draw (jitter only, pauses
#: only, both, a zero-width pause range), each with per-rank slowdowns.  The
#: P=64 case issues 300-673 operations per rank, enough to run every rank's
#: factor stream past the cached prefix of its perturbation schedule.
PERTURBED_CASES: Dict[str, Dict[str, Any]] = {
    "rma-rw-wcsb-p32-jitter": {
        "P": 32, "procs_per_node": 8, "scheme": "rma-rw", "benchmark": "wcsb",
        "iterations": 5, "fw": 0.2, "seed": 7,
        "perturbation": {"seed": 21, "latency_jitter": 0.3, "rank_slowdown": 0.5},
    },
    "d-mcs-wcsb-p32-pauses": {
        "P": 32, "procs_per_node": 8, "scheme": "d-mcs", "benchmark": "wcsb",
        "iterations": 5, "seed": 3,
        "perturbation": {"seed": 22, "pause_rate": 0.02, "rank_slowdown": 1.0},
    },
    "fompi-spin-wcsb-p32-both": {
        "P": 32, "procs_per_node": 8, "scheme": "fompi-spin", "benchmark": "wcsb",
        "iterations": 5, "seed": 3,
        "perturbation": {"seed": 23, "latency_jitter": 0.3, "pause_rate": 0.02, "rank_slowdown": 1.0},
    },
    "d-mcs-ecsb-p32-pause-lo-eq-hi": {
        "P": 32, "procs_per_node": 8, "scheme": "d-mcs", "benchmark": "ecsb",
        "iterations": 5, "seed": 3,
        "perturbation": {
            "seed": 24, "latency_jitter": 0.2, "pause_rate": 0.05, "pause_us": (7.0, 7.0),
            "rank_slowdown": 0.25,
        },
    },
    "rma-rw-wcsb-p64-both": {
        "P": 64, "procs_per_node": 8, "scheme": "rma-rw", "benchmark": "wcsb",
        "iterations": 30, "fw": 0.2, "seed": 7,
        "perturbation": {"seed": 25, "latency_jitter": 0.3, "pause_rate": 0.02, "rank_slowdown": 1.0},
    },
}


def golden_config(name: str, cases: Dict[str, Dict[str, Any]] = GOLDEN_CASES) -> LockBenchConfig:
    """Build the :class:`LockBenchConfig` for one case of ``cases``."""
    spec = dict(cases[name])
    spec.pop("perturbation", None)
    machine = xc30_like(spec.pop("P"), procs_per_node=spec.pop("procs_per_node"))
    return LockBenchConfig(machine=machine, **spec)


def golden_perturbation(name: str, cases: Dict[str, Dict[str, Any]] = GOLDEN_CASES) -> Optional[PerturbationModel]:
    """The perturbation model of one case of ``cases`` (None if it has none)."""
    model = cases[name].get("perturbation")
    return PerturbationModel(**model) if model is not None else None


def _canonical(value: Any) -> Any:
    """Recursively convert a value to a canonical, bit-exact JSON form."""
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, dict):
        return {str(k): _canonical(v) for k, v in sorted(value.items())}
    if isinstance(value, (list, tuple)):
        return [_canonical(v) for v in value]
    return value


def result_fingerprint(result: Any) -> Dict[str, Any]:
    """Bit-exact fingerprint of a :class:`~repro.rma.runtime_base.RunResult`.

    ``finish_times_us`` and ``op_counts`` are stored in full (they are the
    quantities the figures derive from); the bulky per-rank returns are
    hashed.  Two runs match iff their fingerprints are equal.
    """
    finish_hex: List[str] = [float(t).hex() for t in result.finish_times_us]
    returns_blob = json.dumps(_canonical(result.returns), sort_keys=True)
    return {
        "finish_times_us_hex": finish_hex,
        "total_time_us_hex": float(result.total_time_us).hex(),
        "op_counts": {k: int(v) for k, v in sorted(result.op_counts.items())},
        "per_rank_op_counts": [
            {k: int(v) for k, v in sorted(c.items())} for c in result.per_rank_op_counts
        ],
        "returns_sha256": hashlib.sha256(returns_blob.encode()).hexdigest(),
    }
