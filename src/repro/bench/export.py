"""Exporting benchmark rows to CSV/JSON for plotting outside this repository.

The figure drivers return plain row dictionaries; these helpers write them to
disk so the sweeps can be re-plotted with any external tool (the paper's
figures are simple x/y line plots).  A tiny loader round-trips the files for
the test-suite and for incremental re-plotting.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path
from typing import Dict, List, Mapping, Sequence, Union

__all__ = ["rows_to_csv", "rows_to_json", "save_figure_rows"]

PathLike = Union[str, Path]


def _collect_columns(rows: Sequence[Mapping[str, object]]) -> List[str]:
    columns: List[str] = []
    for row in rows:
        for key in row:
            if key not in columns:
                columns.append(key)
    return columns


def rows_to_csv(rows: Sequence[Mapping[str, object]], path: PathLike) -> Path:
    """Write ``rows`` to ``path`` as CSV (columns = union of row keys)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    columns = _collect_columns(rows)
    with path.open("w", newline="") as handle:
        writer = csv.DictWriter(handle, fieldnames=columns)
        writer.writeheader()
        for row in rows:
            writer.writerow({c: row.get(c, "") for c in columns})
    return path


def rows_to_json(rows: Sequence[Mapping[str, object]], path: PathLike, *, metadata: Mapping[str, object] | None = None) -> Path:
    """Write ``rows`` (plus optional metadata) to ``path`` as JSON."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    payload: Dict[str, object] = {"rows": [dict(r) for r in rows]}
    if metadata:
        payload["metadata"] = dict(metadata)
    path.write_text(json.dumps(payload, indent=2, sort_keys=True))
    return path


def save_figure_rows(rows: Sequence[Mapping[str, object]], directory: PathLike, figure: str) -> Dict[str, Path]:
    """Write one figure's rows as both ``<figure>.csv`` and ``<figure>.json``."""
    directory = Path(directory)
    out = {
        "csv": rows_to_csv(rows, directory / f"{figure}.csv"),
        "json": rows_to_json(rows, directory / f"{figure}.json", metadata={"figure": figure}),
    }
    return out
