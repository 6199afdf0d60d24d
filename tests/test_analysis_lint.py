"""The determinism/concurrency linter: each rule has a known-bad source
that triggers it and a known-good source that passes, plus suppression,
reporter, and CLI behavior — and the shipped tree itself lints clean."""

import json
from pathlib import Path
import subprocess
import sys

import pytest

from repro.analysis import RULES, lint_source, main, render_json, render_text

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC = REPO_ROOT / "src" / "repro"


def rules_of(findings):
    return [f.rule for f in findings]


# ----------------------------------------------------------------------
# REPRO001 unseeded-rng
# ----------------------------------------------------------------------
BAD_RNG_SOURCES = [
    "import random\n",
    "from random import shuffle\n",
    "import numpy as np\nx = np.random.rand(3)\n",
    "import numpy as np\nnp.random.seed(0)\n",
    "from numpy import random as npr\nx = npr.normal()\n",
    "import numpy as np\nrng = np.random.default_rng()\n",
]


@pytest.mark.parametrize("source", BAD_RNG_SOURCES)
def test_repro001_flags_unseeded_rng(source):
    assert "REPRO001" in rules_of(lint_source(source, "src/repro/x.py"))


def test_repro001_allows_seeded_and_library_rng():
    good = (
        "import numpy as np\n"
        "from repro.util.rng import default_rng, keyed_rng\n"
        "rng = np.random.default_rng(42)\n"
        "a = default_rng(7)\n"
        "b = keyed_rng(1, 2)\n"
        "x = rng.random(3)\n"
    )
    assert lint_source(good, "src/repro/x.py") == []


def test_repro001_skipped_inside_rng_module():
    # The rng module is the one place allowed to do anything with RNG state.
    src = "import numpy as np\nnp.random.seed(0)\n"
    assert lint_source(src, "src/repro/util/rng.py") == []


# ----------------------------------------------------------------------
# REPRO002 seed-sequence
# ----------------------------------------------------------------------
BAD_SEEDSEQ_SOURCES = [
    "import numpy as np\ns = np.random.SeedSequence(1)\n",
    "from numpy.random import SeedSequence\n",
    "from numpy import random\ns = random.SeedSequence((1, 2))\n",
]


@pytest.mark.parametrize("source", BAD_SEEDSEQ_SOURCES)
def test_repro002_flags_direct_seedsequence(source):
    assert "REPRO002" in rules_of(lint_source(source, "src/repro/x.py"))


def test_repro002_allows_rng_module_and_wrappers():
    src = "import numpy as np\ns = np.random.SeedSequence(1)\n"
    assert lint_source(src, "src/repro/util/rng.py") == []
    good = "from repro.util.rng import derive_seed\ns = derive_seed(1, 2)\n"
    assert lint_source(good, "src/repro/x.py") == []


# ----------------------------------------------------------------------
# REPRO003 wall-clock
# ----------------------------------------------------------------------
BAD_CLOCK_SOURCES = [
    "import time\nt = time.time()\n",
    "import time\nt = time.perf_counter()\n",
    "import time\nt = time.monotonic_ns()\n",
    "from time import perf_counter\n",
]


@pytest.mark.parametrize("source", BAD_CLOCK_SOURCES)
def test_repro003_flags_wall_clock(source):
    assert "REPRO003" in rules_of(lint_source(source, "src/repro/x.py"))


def test_repro003_allows_thread_time():
    good = "import time\nt = time.thread_time()\nu = time.process_time()\n"
    assert lint_source(good, "src/repro/x.py") == []


# ----------------------------------------------------------------------
# REPRO004 unordered-iter (scoped to sync/combiner code)
# ----------------------------------------------------------------------
BAD_ITER_SOURCES = [
    "for h in {1, 2, 3}:\n    pass\n",
    "for h in set(hosts):\n    pass\n",
    "for k in d.keys():\n    pass\n",
    "for v in d.values():\n    pass\n",
    "xs = [k for k, v in d.items()]\n",
]


@pytest.mark.parametrize("source", BAD_ITER_SOURCES)
def test_repro004_flags_unordered_iteration_in_sync_scope(source):
    assert "REPRO004" in rules_of(lint_source(source, "src/repro/gluon/x.py"))


def test_repro004_allows_sorted_and_out_of_scope():
    good = "for k in sorted(d):\n    pass\nfor k in sorted(d.items()):\n    pass\n"
    assert lint_source(good, "src/repro/gluon/x.py") == []
    # The same unordered iteration outside sync scope is not this rule's
    # business (sorting every dict in the codebase would be noise).
    bad_elsewhere = "for k in d.items():\n    pass\n"
    assert lint_source(bad_elsewhere, "src/repro/text/x.py") == []


# ----------------------------------------------------------------------
# REPRO005 doall-closure
# ----------------------------------------------------------------------
def test_repro005_flags_nonlocal_mutation():
    src = (
        "def run(items):\n"
        "    total = 0\n"
        "    def op(item):\n"
        "        nonlocal total\n"
        "        total += item\n"
        "    do_all(items, op)\n"
    )
    assert "REPRO005" in rules_of(lint_source(src, "src/repro/x.py"))


def test_repro005_flags_constant_index_store():
    src = (
        "def run(items, out):\n"
        "    def op(item):\n"
        "        out[0] = item\n"
        "    do_all(items, op)\n"
    )
    assert "REPRO005" in rules_of(lint_source(src, "src/repro/x.py"))


def test_repro005_flags_list_append_from_closure():
    src = (
        "def run(items):\n"
        "    results = []\n"
        "    do_all(items, lambda item: results.append(item))\n"
    )
    assert "REPRO005" in rules_of(lint_source(src, "src/repro/x.py"))


def test_repro005_allows_param_indexed_cells_and_accumulators():
    src = (
        "def run(items, slots):\n"
        "    acc = GAccumulator()\n"
        "    wl = ChunkedWorklist()\n"
        "    def op(item):\n"
        "        local = item * 2\n"
        "        slots[item] = local\n"
        "        acc.update(local)\n"
        "        wl.push(local)\n"
        "    do_all(items, op)\n"
    )
    assert lint_source(src, "src/repro/x.py") == []


def test_repro005_ignores_functions_not_passed_to_do_all():
    src = (
        "def helper():\n"
        "    cache.update(x=1)\n"  # mutation, but never a do_all operator
    )
    assert lint_source(src, "src/repro/x.py") == []


# ----------------------------------------------------------------------
# Suppression
# ----------------------------------------------------------------------
def test_noqa_suppresses_single_rule_on_line():
    src = "import time\nt = time.time()  # repro: noqa[REPRO003]\n"
    assert lint_source(src, "src/repro/x.py") == []
    # Wrong rule id in the bracket does not suppress.
    src = "import time\nt = time.time()  # repro: noqa[REPRO001]\n"
    assert "REPRO003" in rules_of(lint_source(src, "src/repro/x.py"))


def test_bare_noqa_suppresses_all_rules_on_line():
    src = "import time\nt = time.time()  # repro: noqa\n"
    assert lint_source(src, "src/repro/x.py") == []


def test_allow_file_pragma_suppresses_rule_everywhere():
    src = (
        "# repro: allow-file[REPRO003]\n"
        "import time\n"
        "a = time.time()\n"
        "b = time.perf_counter()\n"
    )
    assert lint_source(src, "src/repro/x.py") == []
    # ... but only the listed rule.
    src += "import random\n"
    assert rules_of(lint_source(src, "src/repro/x.py")) == ["REPRO001"]


def test_report_unused_noqa_flags_stale_pragmas(tmp_path):
    stale = tmp_path / "stale.py"
    stale.write_text(
        "# repro: allow-file[REPRO003]\n"
        "import time\n"
        "t = time.thread_time()  # repro: noqa[REPRO001]\n"
    )
    proc = subprocess.run(
        [sys.executable, "-m", "repro.analysis", "--report-unused-noqa", str(stale)],
        capture_output=True,
        text=True,
        env={"PYTHONPATH": str(REPO_ROOT / "src"), "PATH": "/usr/bin:/bin"},
    )
    assert proc.returncode == 1
    assert proc.stdout.count("REPRO900") == 2


def test_report_unused_noqa_keeps_live_pragmas(tmp_path):
    live = tmp_path / "live.py"
    live.write_text("import time\nt = time.time()  # repro: noqa[REPRO003]\n")
    proc = subprocess.run(
        [sys.executable, "-m", "repro.analysis", "--report-unused-noqa", str(live)],
        capture_output=True,
        text=True,
        env={"PYTHONPATH": str(REPO_ROOT / "src"), "PATH": "/usr/bin:/bin"},
    )
    assert proc.returncode == 0, proc.stdout


# ----------------------------------------------------------------------
# Reporters, selection, API
# ----------------------------------------------------------------------
def test_render_text_and_json():
    findings = lint_source("import time\nt = time.time()\n", "src/repro/x.py")
    text = render_text(findings)
    assert "REPRO003" in text and "src/repro/x.py:2" in text
    payload = json.loads(render_json(findings))
    assert payload["total"] == 1
    assert payload["counts"] == {"REPRO003": 1}
    [entry] = payload["findings"]
    assert entry["rule"] == "REPRO003"
    assert entry["name"] == "wall-clock"
    assert entry["line"] == 2
    assert render_text([]) == "repro.analysis: clean"


def test_text_and_json_columns_agree_one_based():
    # `t = time.time()` — the call starts at source column 5 (1-based).
    findings = lint_source("import time\nt = time.time()\n", "src/repro/x.py")
    [finding] = findings
    assert finding.col == 5
    assert "src/repro/x.py:2:5:" in render_text(findings)
    [entry] = json.loads(render_json(findings))["findings"]
    assert (entry["line"], entry["col"]) == (2, 5)


def test_select_restricts_rules():
    src = "import random\nimport time\nt = time.time()\n"
    only = lint_source(src, "src/repro/x.py", select=["REPRO001"])
    assert rules_of(only) == ["REPRO001"]


def test_rule_catalog_is_complete():
    local = {f"REPRO00{i}" for i in range(1, 6)}
    dataflow = {"REPRO111", "REPRO112"}
    assert set(RULES) == local | dataflow | {"REPRO900"}
    for rule_id, rule in RULES.items():
        assert rule.id == rule_id
        assert rule.name and rule.summary


def test_main_on_file_and_missing_path(tmp_path, capsys):
    bad = tmp_path / "bad.py"
    bad.write_text("import random\n")
    assert main(["--format", "json", str(bad)]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert [f["rule"] for f in payload["findings"]] == ["REPRO001"]
    assert main([str(tmp_path / "nope.txt")]) == 2
    assert "not a python file or directory" in capsys.readouterr().err


# ----------------------------------------------------------------------
# The shipped tree is clean, and the CLI exit codes hold
# ----------------------------------------------------------------------
def test_shipped_tree_lints_clean(capsys):
    code = main([str(SRC)])
    assert code == 0, capsys.readouterr().out


def run_cli(*args, cwd=None):
    return subprocess.run(
        [sys.executable, "-m", "repro.analysis", *args],
        capture_output=True,
        text=True,
        cwd=cwd or REPO_ROOT,
    )


def test_support_trees_are_lint_clean():
    proc = run_cli("--report-unused-noqa", "tests", "benchmarks", "examples")
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_cli_clean_tree_exits_zero():
    proc = run_cli(str(SRC))
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "clean" in proc.stdout


def test_cli_findings_exit_one_and_json(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text("import random\nimport time\nt = time.perf_counter()\n")
    proc = run_cli("--format", "json", str(bad))
    assert proc.returncode == 1
    payload = json.loads(proc.stdout)
    assert payload["total"] == 2
    assert payload["counts"] == {"REPRO001": 1, "REPRO003": 1}


def test_cli_usage_errors_exit_two(tmp_path):
    assert run_cli(str(tmp_path / "missing.txt")).returncode == 2
    assert run_cli("--select", "NOPE999", str(SRC)).returncode == 2
    broken = tmp_path / "broken.py"
    broken.write_text("def f(:\n")
    assert run_cli(str(broken)).returncode == 2


def test_cli_list_rules():
    proc = run_cli("--list-rules")
    assert proc.returncode == 0
    for rule_id in RULES:
        assert rule_id in proc.stdout
