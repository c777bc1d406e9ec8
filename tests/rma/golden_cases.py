"""Golden determinism cases shared by the recording tool and the golden tests.

The cases pin down the observable behaviour of the discrete-event scheduler:
any scheduler change must reproduce these results *bit-identically* (exact
floats, exact op counts, exact per-rank returns).  The reference outputs in
``golden/seed_scheduler.json`` were recorded from the original baton-passing
seed scheduler; the horizon scheduler and the reference interpreter
(``tests/reference.py``, on which ``tools/record_golden.py`` now records) are
required to match them exactly.

Floats are serialized with ``float.hex`` so the comparison is bit-exact and
immune to repr/rounding differences.  Rank-program returns (which contain
long per-iteration latency lists) are folded into a SHA-256 digest of a
canonical serialization.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Dict, List

from repro.bench.workloads import LockBenchConfig
from repro.topology.builder import xc30_like

__all__ = ["GOLDEN_CASES", "golden_config", "result_fingerprint"]

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


def golden_config(name: str, cases: Dict[str, Dict[str, Any]] = GOLDEN_CASES) -> LockBenchConfig:
    """Build the :class:`LockBenchConfig` for one case of ``cases``."""
    spec = dict(cases[name])
    machine = xc30_like(spec.pop("P"), procs_per_node=spec.pop("procs_per_node"))
    return LockBenchConfig(machine=machine, **spec)


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
