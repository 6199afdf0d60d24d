"""Smoke test of the benchmark itself; run as ``pytest bench/``.

Outside tier-1's ``testpaths`` on purpose: it starts a dozen processes.
Each workload runs for a second at a tiny ``--scale``; the test checks the
output contract (names equal ``BENCHMARK.json``'s) and that the trace's
self times add up to the traced wall.
"""

from __future__ import annotations

import json
from pathlib import Path
import subprocess
import sys

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in CONTRACT["workloads"]]
SEED = 3


def run_once(workload: str, trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", str(SEED), "--seconds", "1", "--scale", "0.05", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_names_match_contract(workload):
    row = run_once(workload, trace=0)
    assert set(row) == {"correct", "attempted", "failed", "metrics"}
    assert row["correct"] is True
    assert row["attempted"] >= 1 and row["failed"] == 0
    expected = {m["name"]: m["unit"] for m in CONTRACT["end_to_end"]}
    assert {n: m["unit"] for n, m in row["metrics"].items()} == expected
    assert all(m["value"] > 0 for m in row["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_trace_self_times_add_up(workload):
    row = run_once(workload, trace=1)
    assert row["correct"] is True
    expected = {m["name"]: m["unit"] for m in CONTRACT["per_layer"]}
    assert {n: m["unit"] for n, m in row["metrics"].items()} == expected
    assert row["metrics"]["bench.trace.residual_share"]["value"] <= 0.10

    trace = json.loads((BENCH / "out" / f"trace-{workload}-seed{SEED}.json").read_text())
    covered = [0.0] * len(trace["spans"])
    for _name, _start, duration, parent in trace["spans"]:
        if parent >= 0:
            covered[parent] += duration
    roots = [i for i, span in enumerate(trace["spans"]) if span[3] < 0]
    assert roots and all(
        trace["names"][trace["spans"][i][0]] in ("bench.unit", "bench.drive") for i in roots
    )
    self_sum = sum(span[2] - covered[i] for i, span in enumerate(trace["spans"]))
    root_sum = sum(trace["spans"][i][2] for i in roots)
    # Durations are rounded to 0.1 us when written.
    assert self_sum == pytest.approx(root_sum, abs=0.1 * len(trace["spans"]))


def test_list_prints_every_spec():
    done = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--list"],
        cwd=ROOT, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0
    for workload in WORKLOADS:
        assert f'"name": "{workload}"' in done.stdout
