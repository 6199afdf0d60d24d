"""Serving-layer latency: exact-index QPS and tail latency.

Seeds the perf trajectory for ``repro.serve``: drives the batched
``QueryEngine`` over a synthetic vocabulary with the deterministic load
generator, records QPS and p50/p95/p99 into ``BENCH_serve.json``
at the repo root, and asserts the batched top-k parity contract (batched
search is bit-identical to one-query-at-a-time search).  ``kernel:scan``
times ``ExactIndex.search`` alone across batch sizes — the serve-side
counterpart of ``kernel:fold`` in ``BENCH_train.json``.
"""

import json
import os
from pathlib import Path

import numpy as np
import pytest

from repro.bench import merge_bench_row
from repro.serve.engine import QueryEngine
from repro.serve.index import ExactIndex
from repro.serve.loadgen import LoadConfig, run_load
from repro.serve.store import EmbeddingStore
from repro.util.rng import keyed_rng

OUT_PATH = Path(__file__).resolve().parents[1] / "BENCH_serve.json"

V, D, K = 4000, 64, 10
NUM_QUERIES = 2048


@pytest.fixture(scope="module")
def store():
    matrix = keyed_rng(3, 0x42454E43).normal(size=(V, D)).astype(np.float32)
    return EmbeddingStore(matrix, [f"tok{i:05d}" for i in range(V)])


def _bench_index(store, label, index, once):
    config = LoadConfig(num_queries=NUM_QUERIES, k=K, seed=11)
    engine = QueryEngine(index, max_batch=64, cache_size=512)
    recorded = once(run_load, engine, config, index_label=label).bench_row()
    return {
        "index": label,
        "vocab_size": V,
        "dim": D,
        "num_queries": NUM_QUERIES,
        "k": K,
        **{
            key: recorded[key]
            for key in ("throughput_qps", "latency_ms", "cache_hit_rate", "answers_sha256")
        },
    }


def test_serve_exact_latency(store, once):
    """Records the ``exact`` row; its answers must hash to the recorded ones,
    so re-pinning them is a visible edit of ``BENCH_serve.json``."""
    row = _bench_index(store, "exact", ExactIndex(store), once)
    recorded = json.loads(OUT_PATH.read_text()).get("exact") if OUT_PATH.exists() else None
    if recorded is not None:
        assert row["answers_sha256"] == recorded["answers_sha256"]
    merge_bench_row(OUT_PATH, "exact", row)
    print(f"\nexact: {row['throughput_qps']:,.0f} qps, p99 {row['latency_ms']['p99_ms']:.3f} ms")


def test_batched_equals_unbatched_topk(store):
    """Parity contract: batching is a throughput lever, never a result change."""
    index = ExactIndex(store)
    queries = store.matrix[keyed_rng(5, 0x504152).choice(V, 96)]
    ids_all, scores_all = index.search(queries, K)
    for i in range(0, len(queries), 17):
        ids_one, scores_one = index.search(queries[i], K)
        np.testing.assert_array_equal(ids_one[0], ids_all[i])
        np.testing.assert_array_equal(scores_one[0], scores_all[i])


#: ``bench/``'s serve store shape (bench/workloads/serve-*.json) beside this
#: module's 4000-row one; batch sizes from a lone cache miss to two panels.
SCAN_SHAPES = [(50_000, n) for n in (1, 4, 16, 32, 64)] + [(V, n) for n in (1, 32)]


def _blas_version() -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy < 1.25 has no dict mode
        return "unknown"
    return f"{blas.get('name')} {blas.get('version')}"


@pytest.mark.parametrize("rows, n", SCAN_SHAPES)
def test_kernel_scan(benchmark, rows, n):
    """One ``ExactIndex.search`` of ``n`` queries.  Time it under
    ``OPENBLAS_NUM_THREADS=1``: with BLAS threads on a small VM the GEMM
    measures an order of magnitude slower and noisier."""
    matrix = keyed_rng(3, 0x42454E43, rows).normal(size=(rows, D)).astype(np.float32)
    index = ExactIndex(EmbeddingStore(matrix, [f"tok{i:05d}" for i in range(rows)]))
    queries = matrix[keyed_rng(11, 0x5343414E, n).choice(rows, n)]  # "SCAN"
    ids, _ = benchmark(index.search, queries, K)
    assert ids.shape == (n, K) and ids.min() >= 0
    if benchmark.stats is None:  # --benchmark-disable: nothing was timed
        return
    stats = benchmark.stats.stats
    row = json.loads(OUT_PATH.read_text()).get("kernel:scan", {}) if OUT_PATH.exists() else {}
    row.update(
        shapes={"dim": D, "k": K, "block_rows": index.block_rows,
                "query_block": index.query_block},
        numpy=np.__version__,
        blas=_blas_version(),
        blas_threads=os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
    )
    row[f"rows={rows},n={n}"] = {
        "us_per_search_median": round(stats.median * 1e6, 1),
        "us_per_search_min": round(stats.min * 1e6, 1),
        "rounds": stats.rounds,
    }
    merge_bench_row(OUT_PATH, "kernel:scan", row)
