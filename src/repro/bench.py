"""Recording benchmark rows in the tracked ``BENCH_*.json`` files."""

from __future__ import annotations

import json
from pathlib import Path

__all__ = ["merge_bench_row"]


def merge_bench_row(path: Path | str, key: str, row) -> None:
    """Set ``key`` to ``row`` in the JSON object at ``path``, keeping the rest.

    Read-modify-write (a missing file starts empty); the file is written
    with sorted keys, two-space indent and a trailing newline so that
    re-recording one row leaves every other line of the diff untouched.
    """
    path = Path(path)
    payload = json.loads(path.read_text()) if path.exists() else {}
    payload[key] = row
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
