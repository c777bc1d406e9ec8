"""Golden determinism cases shared by the recording tool and the golden tests.

The cases pin down the observable behaviour of the discrete-event scheduler:
any scheduler change must reproduce these results *bit-identically* (exact
floats, exact op counts, exact per-rank returns).  The reference outputs in
``golden/seed_scheduler.json`` were recorded from the original baton-passing
seed scheduler; the horizon scheduler and the reference interpreter
(``tests/reference.py``, on which ``tools/record_golden.py`` now records) are
required to match them exactly.  ``golden/perturbed.json`` pins the same kind
of run under a seeded :class:`~repro.rma.perturbation.PerturbationModel`
(``PERTURBED_CASES``), recorded on the reference.  ``LIVE_ONLY_CASES`` are
larger shapes that are compared live, horizon against the reference, and
never recorded.

``golden/request_streams.json`` is the request-stream gate for protocol
refactors: for every registered scheme on one machine of each depth (one to
four levels) under ecsb and wcsb (``stream_cases``), the digests a
:class:`RequestStreamHasher` takes of each rank's charged requests, in chunks
of ``STREAM_CHUNK``, so a mismatch names the rank and chunk where the streams
part.

Floats are serialized with ``float.hex`` so the comparison is bit-exact and
immune to repr/rounding differences.  Rank-program returns (which contain
long per-iteration latency lists) are folded into a SHA-256 digest of a
canonical serialization.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Dict, List, Optional

from repro.api.registry import scheme_names
from repro.bench.harness import build_lock_spec, make_lock_program
from repro.bench.workloads import LockBenchConfig
from repro.rma.perturbation import PerturbationModel
from repro.rma.runtime_base import RunObserver
from repro.topology.builder import xc30_like
from repro.topology.machine import Machine

__all__ = [
    "GOLDEN_CASES", "LIVE_ONLY_CASES", "PERTURBED_CASES", "STREAM_CHUNK", "RequestStreamHasher",
    "golden_config", "golden_perturbation", "result_fingerprint", "stream_cases", "stream_config",
    "stream_digests",
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


#: Checked live against the reference but not recorded: rma-rw on wcsb with
#: the Figure-5 writer mix and the read-heavy mix at P=64, above the goldens'
#: largest P, the MCS writer path at P=64 and rma-rw on ecsb at P=32.
LIVE_ONLY_CASES: Dict[str, Dict[str, Any]] = {
    "rma-rw-wcsb-p64": {
        "P": 64, "procs_per_node": 8, "scheme": "rma-rw", "benchmark": "wcsb",
        "iterations": 4, "fw": 0.02, "seed": 1,
    },
    "rma-rw-wcsb-p64-readheavy": {
        "P": 64, "procs_per_node": 8, "scheme": "rma-rw", "benchmark": "wcsb",
        "iterations": 4, "fw": 0.002, "seed": 1,
    },
    "rma-mcs-wcsb-p64": {
        "P": 64, "procs_per_node": 8, "scheme": "rma-mcs", "benchmark": "wcsb",
        "iterations": 4, "fw": 0.0, "seed": 1,
    },
    "rma-rw-ecsb-p32": {
        "P": 32, "procs_per_node": 8, "scheme": "rma-rw", "benchmark": "ecsb",
        "iterations": 4, "fw": 0.02, "seed": 1,
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


#: Requests per digest of the request-stream gate.
STREAM_CHUNK = 32

#: One machine per hierarchy depth (level names are the defaults).
STREAM_MACHINES: Dict[str, Machine] = {
    "1-level": Machine.single_node(4),
    "2-level": Machine.cluster(2, 3),
    "3-level": Machine((2, 2), 2),
    "4-level": Machine((2, 2, 2), 2),
}


class RequestStreamHasher(RunObserver):
    """Digests what :meth:`on_request` delivers, per rank, ``STREAM_CHUNK`` requests at a time.

    Each request is hashed as ``(rank, call, target, start, duration)``, the
    times as ``float.hex``; :meth:`digests` closes the last, partial chunk of
    every rank.  It watches only, so it changes no fingerprint.
    """

    def on_run_start(self, nranks: int) -> None:
        self._open = [hashlib.sha256() for _ in range(nranks)]
        self._counts = [0] * nranks
        self._chunks: List[List[str]] = [[] for _ in range(nranks)]

    def on_request(self, rank, call, target, start_us, duration_us) -> None:
        self._open[rank].update(
            f"{rank} {call.name} {target} {float(start_us).hex()} {float(duration_us).hex()}\n".encode()
        )
        self._counts[rank] += 1
        if self._counts[rank] % STREAM_CHUNK == 0:
            self._chunks[rank].append(self._open[rank].hexdigest()[:16])
            self._open[rank] = hashlib.sha256()

    def digests(self) -> List[str]:
        """Per rank, its chunk digests joined by spaces (the partial chunk last)."""
        out = []
        for rank, chunks in enumerate(self._chunks):
            if self._counts[rank] % STREAM_CHUNK:
                chunks = chunks + [self._open[rank].hexdigest()[:16]]
            out.append(" ".join(chunks))
        return out


def stream_cases() -> List[str]:
    """``<scheme>/<machine>/<benchmark>`` for every registered scheme."""
    return [
        f"{scheme}/{machine}/{benchmark}"
        for scheme in sorted(scheme_names())
        for machine in STREAM_MACHINES
        for benchmark in ("ecsb", "wcsb")
    ]


def stream_config(case: str) -> LockBenchConfig:
    """The lock benchmark of one gate case: reader-writer schemes draw each
    role half and half, the others ignore ``fw``."""
    scheme, machine, benchmark = case.split("/")
    return LockBenchConfig(
        machine=STREAM_MACHINES[machine], scheme=scheme, benchmark=benchmark, iterations=8, fw=0.5, seed=5,
    )


def stream_digests(case: str, runtime_factory: Any, hasher: Optional[RequestStreamHasher] = None):
    """Run one gate case on ``runtime_factory``; returns ``(per-rank digests, RunResult)``.

    ``hasher=None`` runs it unobserved (the digests are then None).
    """
    config = stream_config(case)
    spec, is_rw = build_lock_spec(config)
    extra = {} if hasher is None else {"observer": hasher}
    runtime = runtime_factory(config.machine, window_words=spec.window_words + 2, seed=config.seed, **extra)
    result = runtime.run(make_lock_program(config, spec, is_rw, spec.window_words), window_init=spec.init_window)
    return (None if hasher is None else hasher.digests()), result
