"""Tests for the interprocedural dataflow analyzer (REPRO111/112).

Each rule gets at least one failing and one passing fixture,
exercised through the ``python -m repro.analysis --dataflow`` entry point
(:func:`repro.analysis.lint.main`, in process) so the shared suppression
and column machinery is covered too.  The final test gates the shipped
tree: ``--dataflow`` over ``src/repro`` must be clean.
"""

from __future__ import annotations

import contextlib
import io
import json
from pathlib import Path
import subprocess
import sys
import textwrap

import pytest

from repro.analysis.dataflow import DATAFLOW_RULE_IDS
from repro.analysis.lint import main

REPO_ROOT = Path(__file__).resolve().parents[1]
SRC = REPO_ROOT / "src"


def dataflow_findings(mod: Path) -> list[dict]:
    """The finalized dataflow findings ``--dataflow`` reports for ``mod``."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        main(["--dataflow", "--format", "json", str(mod)])
    findings = json.loads(out.getvalue())["findings"]
    return [f for f in findings if f["rule"] in DATAFLOW_RULE_IDS]


def rules_in(tmp_path: Path, source: str, name: str = "fixture.py") -> list[str]:
    """Write ``source`` as a module and return the rule ids found in it."""
    mod = tmp_path / name
    mod.write_text(textwrap.dedent(source), encoding="utf-8")
    return sorted(f["rule"] for f in dataflow_findings(mod))


def run_cli(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "repro.analysis", *args],
        capture_output=True,
        text=True,
        cwd=REPO_ROOT,
        env={"PYTHONPATH": str(SRC), "PATH": "/usr/bin:/bin"},
    )


# ---------------------------------------------------------------------------
# REPRO111 / REPRO112 — do_all effect overlap
# ---------------------------------------------------------------------------
def test_doall_write_overlap_const_index(tmp_path):
    found = rules_in(
        tmp_path,
        """
        from repro.galois.do_all import do_all

        def run(out):
            def op(item):
                out[0] = item
            do_all(range(4), op)
        """,
    )
    assert "REPRO111" in found


def test_doall_write_overlap_through_helper(tmp_path):
    # The racy index is only visible after composing ``bump`` into the
    # operator: the helper itself is fine, the call site pins idx to 0.
    found = rules_in(
        tmp_path,
        """
        from repro.galois.do_all import do_all

        def bump(buf, idx, val):
            buf[idx] = val

        def run(out):
            def op(item):
                bump(out, 0, item)
            do_all(range(4), op)
        """,
    )
    assert "REPRO111" in found


def test_doall_lambda_operator(tmp_path):
    found = rules_in(
        tmp_path,
        """
        from repro.galois.do_all import do_all

        def run(out):
            do_all(range(4), lambda item: out.append(item))
        """,
    )
    assert "REPRO111" in found


def test_doall_item_confined_write_ok(tmp_path):
    found = rules_in(
        tmp_path,
        """
        from repro.galois.do_all import do_all

        def run(out):
            def op(item):
                out[item] = item * 2
            do_all(range(4), op)
        """,
    )
    assert "REPRO111" not in found
    assert "REPRO112" not in found


def test_doall_helper_confined_write_ok(tmp_path):
    found = rules_in(
        tmp_path,
        """
        from repro.galois.do_all import do_all

        def bump(buf, idx, val):
            buf[idx] = val

        def run(out):
            def op(item):
                bump(out, item, 1.0)
            do_all(range(4), op)
        """,
    )
    assert "REPRO111" not in found


def test_doall_read_overlap(tmp_path):
    found = rules_in(
        tmp_path,
        """
        from repro.galois.do_all import do_all

        def run(out):
            def op(item):
                out[item] = out[0] + 1
            do_all(range(4), op)
        """,
    )
    assert "REPRO112" in found


def test_doall_read_own_item_ok(tmp_path):
    found = rules_in(
        tmp_path,
        """
        from repro.galois.do_all import do_all

        def run(out):
            def op(item):
                out[item] = out[item] + 1
            do_all(range(4), op)
        """,
    )
    assert "REPRO112" not in found


def test_doall_write_through_a_generic_base_method(tmp_path):
    # ``Box`` inherits ``put`` from ``Base[int]``: the subscripted base
    # resolves, so the racy write inside the inherited method is found.
    found = rules_in(
        tmp_path,
        """
        from typing import Generic, TypeVar

        from repro.galois.do_all import do_all

        T = TypeVar("T")

        class Base(Generic[T]):
            def __init__(self):
                self.cells = [0]

            def put(self, value):
                self.cells[0] = value

        class Box(Base[int]):
            pass

        def run(items):
            box = Box()

            def op(item):
                box.put(item)

            do_all(items, op)
        """,
    )
    assert "REPRO111" in found


def test_doall_sanctioned_receiver_is_not_descended_into(tmp_path):
    # The accumulator's single-writer cells are its contract: a method
    # called on a sanctioned receiver is never summarized into the
    # operator, even when the analyzer can resolve it.
    found = rules_in(
        tmp_path,
        """
        from repro.galois.do_all import do_all

        class GAccumulator:
            def __init__(self):
                self._cells = [0.0]

            def update(self, value):
                self._cells[0] = self._cells[0] + value

        def run(items):
            acc = GAccumulator()

            def op(item):
                acc.update(item)

            do_all(items, op)
            return acc
        """,
    )
    assert found == []


# ---------------------------------------------------------------------------
# Suppression, API, and CLI integration
# ---------------------------------------------------------------------------
def test_noqa_suppresses_dataflow_finding(tmp_path):
    found = rules_in(
        tmp_path,
        """
        from repro.galois.do_all import do_all

        def run(out):
            def op(item):
                out[0] = item  # repro: noqa[REPRO111]
            do_all(range(4), op)
        """,
    )
    assert "REPRO111" not in found


def test_findings_have_one_based_columns(tmp_path):
    mod = tmp_path / "fixture.py"
    mod.write_text(
        textwrap.dedent(
            """
            from repro.galois.do_all import do_all

            def run(out):
                def op(item):
                    out[0] = item
                do_all(range(4), op)
            """
        ),
        encoding="utf-8",
    )
    findings = [f for f in dataflow_findings(mod) if f["rule"] == "REPRO111"]
    assert findings
    assert all(f["col"] >= 1 for f in findings)


def test_dataflow_rule_ids_catalogued():
    assert DATAFLOW_RULE_IDS == {"REPRO111", "REPRO112"}


def test_cli_dataflow_json_and_exit_code(tmp_path):
    mod = tmp_path / "fixture.py"
    mod.write_text(
        textwrap.dedent(
            """
            from repro.galois.do_all import do_all

            def run(out):
                def op(item):
                    out[0] = item
                do_all(range(4), op)
            """
        ),
        encoding="utf-8",
    )
    proc = run_cli("--dataflow", "--format", "json", str(mod))
    assert proc.returncode == 1
    payload = json.loads(proc.stdout)
    assert payload["counts"].get("REPRO111", 0) >= 1
    assert all(f["col"] >= 1 for f in payload["findings"])


@pytest.mark.slow
def test_shipped_tree_is_dataflow_clean():
    proc = run_cli("--dataflow", "--report-unused-noqa", "src/repro")
    assert proc.returncode == 0, proc.stdout + proc.stderr
