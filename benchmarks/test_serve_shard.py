"""Sharded serving tier: scatter-gather QPS vs the single-host exact pass.

Drives the same deterministic load through a ``ShardedEngine`` (4 shards x
2 replicas) and through the single-host reference ``ExactIndex`` on the
matching block grid, records both into ``BENCH_serve.json`` at the repo
root, and holds the tier to its two contracts: answers bit-match the
reference within the run (recall 1.0 by construction), and the
scatter-gather overhead stays within an order of magnitude of the exact
pass (QPS floor at 0.2x).
"""

from pathlib import Path

import numpy as np
import pytest

from repro.bench import merge_bench_row
from repro.serve.engine import QueryEngine
from repro.serve.loadgen import LoadConfig, run_load
from repro.serve.shard import ShardedEngine, ShardedIndex
from repro.serve.store import EmbeddingStore
from repro.util.rng import keyed_rng

OUT_PATH = Path(__file__).resolve().parents[1] / "BENCH_serve.json"

V, D, K = 4000, 64, 10
NUM_QUERIES = 2048
SHARDS, REPLICAS = 4, 2


@pytest.fixture(scope="module")
def store():
    matrix = keyed_rng(3, 0x42454E43).normal(size=(V, D)).astype(np.float32)
    return EmbeddingStore(matrix, [f"tok{i:05d}" for i in range(V)])


def test_serve_sharded_latency(store, once):
    config = LoadConfig(num_queries=NUM_QUERIES, k=K, seed=11)
    index = ShardedIndex(store, num_shards=SHARDS, replicas=REPLICAS)
    engine = ShardedEngine(index, max_batch=64, cache_size=512)
    label = f"sharded(s={SHARDS},r={REPLICAS})"
    report = once(run_load, engine, config, index_label=label)

    reference = QueryEngine(
        index.plan.reference_index(store), max_batch=64, cache_size=512
    )
    # Not under `once`: pytest-benchmark allows one timed target per test,
    # and the timed subject here is the sharded tier.
    ref_report = run_load(reference, config, index_label="exact-grid")

    # Within-run parity: the sharded merge must reproduce the single-host
    # answers bit-for-bit — recall 1.0 by construction, checked by hash.
    assert report.answers_sha256 == ref_report.answers_sha256
    assert report.cache_hits == ref_report.cache_hits
    assert report.batch_sizes == ref_report.batch_sizes

    recorded = report.bench_row()
    qps = recorded["throughput_qps"]
    ref_qps = ref_report.bench_row()["throughput_qps"]
    row = {
        "index": label,
        "vocab_size": V,
        "dim": D,
        "num_queries": NUM_QUERIES,
        "k": K,
        "shards": SHARDS,
        "replicas": REPLICAS,
        "block_rows": index.plan.block_rows,
        "recall_at_k": 1.0,
        "throughput_qps": qps,
        "exact_throughput_qps": ref_qps,
        "latency_ms": recorded["latency_ms"],
        "cache_hit_rate": report.cache_hit_rate,
        "answers_sha256": report.answers_sha256,
        "replica_load": report.extras.get("replica_load"),
    }
    merge_bench_row(OUT_PATH, label, row)
    print(
        f"\n{label}: {qps:,.0f} qps (exact-grid {ref_qps:,.0f}), "
        f"p99 {recorded['latency_ms']['p99_ms']:.3f} ms"
    )
    # Scatter-gather overhead floor: the sharded tier serves the same V
    # rows through S sub-searches + a merge; anything below 0.2x the
    # single-host pass means the fan-out cost regressed structurally.
    assert qps >= 0.2 * ref_qps
