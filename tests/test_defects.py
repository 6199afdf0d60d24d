"""The seeded-defect table: each correctness check earns its lines by a
defect it catches.

Every row of ``tests/data/defects.json`` is one defect class, written as
edits to ``src/`` (``file``, ``old``, ``new``; each ``old`` occurs exactly
once in the tree as it stands, so the table cannot rot), and the checks
that catch it.  A catcher is either a lint rule with the file to lint —
run in process through :func:`repro.analysis.lint.main`, ``--dataflow``
for ``REPRO111/112`` — or tier-1 test ids, run in one pytest subprocess
per row against the mutated copy.  Rows are applied to a temporary copy
of ``src/``, never to the working tree.

``evidence`` records every layer on the tree the table was built
against (the same defect at its place there, before the seed-flow and
Gluon-protocol dataflow rules were deleted): the local and dataflow
rules that fired, the tier-1 tests that failed outside the analyzer's
own shipped-tree checks (count and files), and how many more failed
under ``REPRO_SANITIZE=1 REPRO_WORKERS=4``.

A check that no row needs is a candidate for deletion; a defect no check
catches is a row that fails here until one does.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
import contextlib
import io
import json
import os
from pathlib import Path
import shutil
import subprocess
import sys

import pytest

from repro.analysis.dataflow import DATAFLOW_RULE_IDS
from repro.analysis.lint import main

REPO = Path(__file__).resolve().parents[1]
ROWS = json.loads((REPO / "tests" / "data" / "defects.json").read_text())


def test_every_edit_applies_exactly_once():
    for row in ROWS:
        for edit in row["edits"]:
            count = (REPO / edit["file"]).read_text(encoding="utf-8").count(edit["old"])
            assert count == 1, f"{row['id']}: {edit['file']} holds {count} copies of {edit['old']!r}"


def mutated_tree(row: dict, root: Path) -> Path:
    """A copy of ``src/`` with ``row``'s edits applied, under ``root``."""
    shutil.copytree(REPO / "src", root / "src", ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
    for edit in row["edits"]:
        path = root / edit["file"]
        text = path.read_text(encoding="utf-8")
        path.write_text(text.replace(edit["old"], edit["new"], 1), encoding="utf-8")
    return root


def rule_fires(rule: str, path: Path) -> bool:
    argv = ["--select", rule, "--format", "json", str(path)]
    if rule in DATAFLOW_RULE_IDS:
        argv.insert(0, "--dataflow")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        main(argv)
    return json.loads(out.getvalue())["total"] > 0


def failing_tests(nodes: list[str], src: Path) -> set[str]:
    """Of ``nodes``, those that fail (or cannot be collected) against ``src``."""
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "--tb=no", "-rfE", "--continue-on-collection-errors", *nodes],
        cwd=REPO,
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
    )
    reported = [
        line.split(" ", 1)[1].split(" - ", 1)[0].strip()
        for line in proc.stdout.splitlines()
        if line.startswith(("FAILED ", "ERROR "))
    ]
    return {
        node
        for node in nodes
        for r in reported
        if r in (node, node.split("::", 1)[0]) or r.startswith(node + "[")
    }


@pytest.fixture(scope="module")
def trees(tmp_path_factory) -> dict[str, Path]:
    return {row["id"]: mutated_tree(row, tmp_path_factory.mktemp(row["id"])) for row in ROWS}


@pytest.fixture(scope="module")
def failed(trees) -> dict[str, set[str]]:
    """Row id -> its tier-1 catchers that failed; two rows' subprocesses at a time."""
    jobs = {row["id"]: [c["test"] for c in row["catchers"] if "test" in c] for row in ROWS}
    with ThreadPoolExecutor(max_workers=2) as pool:
        futures = {
            key: pool.submit(failing_tests, nodes, trees[key] / "src") for key, nodes in jobs.items() if nodes
        }
        return {key: future.result() for key, future in futures.items()}


@pytest.mark.parametrize("row", ROWS, ids=[row["id"] for row in ROWS])
def test_catchers_fail_on_the_defect(row, trees, failed):
    root = trees[row["id"]]
    missed = [
        c["rule"] for c in row["catchers"] if "rule" in c and not rule_fires(c["rule"], root / c["path"])
    ]
    missed += [
        c["test"] for c in row["catchers"] if "test" in c and c["test"] not in failed[row["id"]]
    ]
    assert not missed, f"{row['id']}: {missed} did not catch {row['defect']!r}"
