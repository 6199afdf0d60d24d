"""Tests for the interprocedural dataflow analyzer (REPRO1xx rules).

Each rule family gets at least one failing and one passing fixture,
exercised through the ``python -m repro.analysis --dataflow`` entry point
(:func:`repro.analysis.lint.main`, in process) so the shared suppression
and column machinery is covered too.  The final tests
gate the shipped tree: ``--dataflow`` over ``src/repro`` must be clean.
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
# REPRO101 / REPRO102 — seed flow
# ---------------------------------------------------------------------------
def test_seed_collision_two_const_sites(tmp_path):
    found = rules_in(
        tmp_path,
        """
        from repro.util.rng import keyed_rng

        def alpha():
            return keyed_rng(7, 0xA)

        def beta():
            return keyed_rng(7, 0xA)
        """,
    )
    assert "REPRO101" in found


def test_seed_collision_through_helper(tmp_path):
    # The helper's key instantiates to (5, 3) via its caller and collides
    # with the literal site in ``direct`` — only visible interprocedurally.
    found = rules_in(
        tmp_path,
        """
        from repro.util.rng import keyed_rng

        def make(seed):
            return keyed_rng(seed, 3)

        def direct():
            return keyed_rng(5, 3)

        def entry():
            return make(5)
        """,
    )
    assert "REPRO101" in found


def test_seed_no_collision_distinct_salts(tmp_path):
    found = rules_in(
        tmp_path,
        """
        from repro.util.rng import keyed_rng

        def alpha():
            return keyed_rng(7, 0xA)

        def beta():
            return keyed_rng(7, 0xB)
        """,
    )
    assert "REPRO101" not in found


def test_seed_underkeyed_host_param(tmp_path):
    found = rules_in(
        tmp_path,
        """
        from repro.util.rng import keyed_rng

        def per_host(seed, host):
            rng = keyed_rng(seed, 0xB)
            return rng.integers(0, 10, size=host)
        """,
    )
    assert "REPRO102" in found


def test_seed_keyed_by_host_param_ok(tmp_path):
    found = rules_in(
        tmp_path,
        """
        from repro.util.rng import keyed_rng

        def per_host(seed, host):
            rng = keyed_rng(seed, 0xB, host)
            return rng.integers(0, 10)
        """,
    )
    assert "REPRO102" not in found


def test_seed_count_params_are_not_identity(tmp_path):
    # ``num_hosts``/``epochs`` size the stream; they are not identity
    # coordinates and must not trigger the underkeyed-seed rule.
    found = rules_in(
        tmp_path,
        """
        from repro.util.rng import keyed_rng

        def generate(seed, num_hosts, epochs):
            rng = keyed_rng(seed, 0xFA)
            return [rng.random() for _ in range(num_hosts * epochs)]
        """,
    )
    assert "REPRO102" not in found


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


# ---------------------------------------------------------------------------
# REPRO121 / REPRO122 — gluon sync protocol
# ---------------------------------------------------------------------------
def test_gluon_unflagged_write(tmp_path):
    found = rules_in(
        tmp_path,
        """
        from repro.gluon.sync import FieldSync, GluonSynchronizer

        def round_step(field: FieldSync, sync: GluonSynchronizer):
            field.arrays["emb"][3] = 1.0
            sync.fold(field)
        """,
    )
    assert "REPRO121" in found


def test_gluon_flagged_write_ok(tmp_path):
    found = rules_in(
        tmp_path,
        """
        from repro.gluon.sync import FieldSync, GluonSynchronizer

        def round_step(field: FieldSync, sync: GluonSynchronizer, flags):
            field.arrays["emb"][3] = 1.0
            flags.set_many([3])
            sync.fold(field)
        """,
    )
    assert "REPRO121" not in found


def test_gluon_stale_read(tmp_path):
    found = rules_in(
        tmp_path,
        """
        from repro.gluon.sync import FieldSync, GluonSynchronizer

        def peek(field: FieldSync, sync: GluonSynchronizer):
            x = field.arrays["emb"][0]
            sync.fold(field)
            return x
        """,
    )
    assert "REPRO122" in found


def test_gluon_master_confined_read_ok(tmp_path):
    found = rules_in(
        tmp_path,
        """
        from repro.gluon.sync import FieldSync, GluonSynchronizer
        from repro.gluon.proxies import master_block_slice

        def peek(field: FieldSync, sync: GluonSynchronizer, bounds, host):
            sl = master_block_slice(bounds, host)
            x = field.arrays["emb"][sl]
            sync.fold(field)
            return x
        """,
    )
    assert "REPRO122" not in found


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
    assert DATAFLOW_RULE_IDS == {
        "REPRO101",
        "REPRO102",
        "REPRO111",
        "REPRO112",
        "REPRO121",
        "REPRO122",
    }


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


@pytest.mark.slow
def test_support_trees_are_lint_clean():
    proc = run_cli("--report-unused-noqa", "tests", "benchmarks", "examples")
    assert proc.returncode == 0, proc.stdout + proc.stderr
