#!/usr/bin/env python
"""Serving embeddings: store, ANN indexes, batched engine, load report.

Trains a small model, freezes it into an :class:`EmbeddingStore`, round-trips
the store through the on-disk format, compares the exact index with IVF (the
approximate index the recall-vs-QPS frontier says to pick) on recall and
latency, then drives the batched ``QueryEngine`` with the
deterministic load generator and prints the run reports.

Run:  python examples/serve_embeddings.py
"""

from pathlib import Path
import tempfile

import numpy as np

from repro import SyntheticCorpusSpec, Word2VecParams, generate_corpus
from repro.serve import (
    EmbeddingStore,
    ExactIndex,
    IVFIndex,
    LoadConfig,
    QueryEngine,
    format_reports,
    recall_at_k,
    run_load,
)
from repro.util.rng import keyed_rng
from repro.w2v.shared_memory import SharedMemoryWord2Vec


def main() -> None:
    # 1. Train something small to serve.
    spec = SyntheticCorpusSpec(
        num_tokens=30_000, pairs_per_family=6, filler_vocab=400,
        questions_per_family=5,
    )
    corpus, _ = generate_corpus(spec, seed=1)
    params = Word2VecParams(dim=48, epochs=4, negatives=6)
    model = SharedMemoryWord2Vec(corpus, params, seed=7).train()
    print(f"trained on {corpus}")

    # 2. Freeze it into a store and round-trip the serving format: one
    #    checksummed file that open() memory-maps, so serving processes
    #    share the OS page cache instead of copying the matrix each.
    store = EmbeddingStore.from_model(model, corpus.vocabulary)
    with tempfile.TemporaryDirectory() as tmp:
        reopened = EmbeddingStore.open(store.save(Path(tmp) / "store"))
        assert np.array_equal(store.matrix, reopened.matrix)
        assert reopened.content_sha256() == store.content_sha256()
        print(f"store round-trip ok: {reopened} (memory-mapped)")

    # 3. Exact vs IVF: recall against ground truth, and latency under the
    #    same deterministic load.
    exact = ExactIndex(store)
    ivf = IVFIndex(store, seed=7)
    sample = store.matrix[keyed_rng(7, 1).choice(len(store), 64)]
    recall = recall_at_k(ivf, exact, sample, k=10)
    print(f"IVF(nlist={ivf.nlist}, nprobe={ivf.nprobe}) recall@10 = {recall:.3f}")

    config = LoadConfig(num_queries=384, k=10, seed=11)
    reports = {}
    for label, index in (("exact", exact), ("ivf", ivf)):
        engine = QueryEngine(index, max_batch=32, cache_size=128)
        reports[label] = run_load(engine, config, index_label=label)
    print(format_reports(list(reports.values())))

    # 4. The modeled half of a report is a pure function of the seed:
    #    run the same load again on a fresh engine with a different
    #    worker count — answers, batch composition and cache accounting
    #    are bit-identical.
    again = run_load(
        QueryEngine(exact, max_batch=32, cache_size=128, workers=2),
        config,
        index_label="exact",
    )
    assert again.modeled() == reports["exact"].modeled()
    print("modeled results identical across runs and worker counts")


if __name__ == "__main__":
    main()
