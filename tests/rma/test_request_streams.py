"""The request-stream gate: every registered scheme issues the requests it was recorded issuing.

``golden/request_streams.json`` holds, per case of ``stream_cases`` (every
registered scheme on a one-, two-, three- and four-level machine, under ecsb
and wcsb), each rank's charged requests ``(rank, call, target, start,
duration)`` digested ``STREAM_CHUNK`` at a time on the reference interpreter
by ``tools/record_golden.py``.  Horizon must give the same digests, so a
refactor of a lock protocol that changes one request, or one request's time,
fails here with the rank and chunk where the streams part.  A run that raises
(a mutant that deadlocks) is compared on the requests it charged before it
stopped.
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

from repro.api.registry import scheme_names
from repro.rma.sim_runtime import SimRuntime

from golden_cases import STREAM_CHUNK, RequestStreamHasher, result_fingerprint, stream_cases, stream_digests

STREAMS_PATH = Path(__file__).resolve().parent / "golden" / "request_streams.json"


@pytest.fixture(scope="module")
def recorded_streams():
    payload = json.loads(STREAMS_PATH.read_text())
    assert payload["chunk"] == STREAM_CHUNK
    return payload["cases"]


def parting(case, live, recorded):
    """Where ``live`` first differs from ``recorded`` (None when equal)."""
    for rank, (mine, theirs) in enumerate(zip(live, recorded)):
        mine, theirs = mine.split(), theirs.split()
        for chunk in range(max(len(mine), len(theirs))):
            if chunk >= len(mine) or chunk >= len(theirs) or mine[chunk] != theirs[chunk]:
                first = chunk * STREAM_CHUNK
                return f"{case}: rank {rank} parts at chunk {chunk} (requests {first}-{first + STREAM_CHUNK - 1})"
    if len(live) != len(recorded):
        return f"{case}: {len(live)} ranks ran, {len(recorded)} were recorded"
    return None


@pytest.mark.parametrize("case", stream_cases())
def test_request_stream_matches_the_recorded_digests(case, recorded_streams):
    hasher = RequestStreamHasher()
    try:
        stream_digests(case, SimRuntime, hasher)
        error = ""
    except Exception as exc:  # noqa: BLE001 - the requests charged before it still part somewhere
        error = f"; the run raised {type(exc).__name__}: {exc}"
    where = parting(case, hasher.digests(), recorded_streams[case])
    assert where is None and not error, (where or f"{case}: every recorded chunk matched") + error


def test_every_registered_scheme_is_recorded(recorded_streams):
    assert sorted(recorded_streams) == sorted(stream_cases())
    assert {case.split("/")[0] for case in recorded_streams} == set(scheme_names())


@pytest.mark.parametrize("case", ["rma-rw/3-level/wcsb", "repair-mcs/2-level/ecsb", "striped-rw/4-level/wcsb"])
def test_request_stream_hasher_changes_no_fingerprint(case):
    _, plain = stream_digests(case, SimRuntime)
    _, hashed = stream_digests(case, SimRuntime, RequestStreamHasher())
    assert result_fingerprint(hashed) == result_fingerprint(plain)


def test_a_parting_names_the_rank_and_chunk():
    recorded = ["a b c", "d e"]
    assert parting("x", ["a b c", "d e"], recorded) is None
    assert parting("x", ["a b c", "d f"], recorded) == (
        f"x: rank 1 parts at chunk 1 (requests {STREAM_CHUNK}-{2 * STREAM_CHUNK - 1})"
    )
    assert parting("x", ["a b", "d e"], recorded).startswith("x: rank 0 parts at chunk 2")


def test_the_recorder_reproduces_the_committed_table(recorded_streams):
    path = Path(__file__).resolve().parents[2] / "tools" / "record_golden.py"
    spec = importlib.util.spec_from_file_location("record_golden", path)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    assert tool.record_streams()["cases"] == recorded_streams
