"""Multi-tenant workload benchmark: the CI SLO gate, recorded.

Runs the checked-in smoke workload spec (``benchmarks/workloads/smoke.json``
— IVF backend, burst arrivals, three QoS-tiered tenants) exactly once,
merges its ``workload:smoke`` row (per-tenant latency, verdicts) into
``BENCH_serve.json`` at the repo root, and asserts the two contracts CI
gates on: every SLO verdict passes, and the modeled accounting (batch
composition, cache accounting, answer/stream hashes) is bit-identical
between ``workers=1`` and ``workers=4``.
"""

from pathlib import Path

from repro.bench import merge_bench_row
from repro.serve.workload import WorkloadSpec, run_workload

REPO_ROOT = Path(__file__).resolve().parents[1]
OUT_PATH = REPO_ROOT / "BENCH_serve.json"
SPEC_PATH = REPO_ROOT / "benchmarks" / "workloads" / "smoke.json"


def test_workload_smoke_slo_gate(once):
    spec = WorkloadSpec.from_file(SPEC_PATH)
    report = once(run_workload, spec, workers=1)
    merge_bench_row(OUT_PATH, f"workload:{spec.name}", report.bench_row())
    print(f"\n{report.summary()}")
    for verdict in report.verdicts:
        print(verdict.summary())
    failed = [v for v in report.verdicts if not v.passed]
    assert not failed, f"SLO verdicts failed: {[v.summary() for v in failed]}"

    wide = run_workload(spec, workers=4)
    assert report.modeled() == wide.modeled(), (
        "modeled workload accounting must be invariant to executor width"
    )
