"""Micro-benchmarks of the performance-critical kernels.

These use ordinary pytest-benchmark statistics (many rounds) and guard the
constants the experiment harness depends on: the SGNS scatter-add kernel,
pair generation, alias-table sampling, bit-vector bulk ops, the gradient
combiners, and one full replicated sync round.
"""

from pathlib import Path

import numpy as np
import pytest
import scipy

from repro.bench import merge_bench_row
from repro.core.combiners import get_combiner
from repro.gluon.bitvector import BitVector
from repro.gluon.comm import SimulatedNetwork
from repro.gluon.partitioner import partition_edges, replicate_all_partitions
from repro.gluon.plans import get_plan
from repro.gluon.sync import FieldSync, GluonSynchronizer
from repro.text.negative_sampling import UnigramTable
from repro.w2v.sgd import TrainingBatch, generate_pairs, sgns_update

OUT_PATH = Path(__file__).resolve().parents[1] / "BENCH_train.json"

RNG = np.random.default_rng(0)
V, D, B, K = 2000, 64, 512, 10


def make_batch(batch=B):
    inputs = RNG.integers(0, V, batch)
    outputs = RNG.integers(0, V, batch)
    negatives = RNG.integers(0, V, (batch, K))
    return TrainingBatch(
        inputs=inputs,
        outputs=outputs,
        negatives=negatives,
        negative_mask=np.ones((batch, K), dtype=bool),
    )


def test_micro_sgns_update(benchmark):
    emb = RNG.normal(size=(V, D)).astype(np.float32)
    trn = RNG.normal(size=(V, D)).astype(np.float32)
    batch = make_batch()
    benchmark(sgns_update, emb, trn, batch, 0.025)
    if benchmark.stats is None:  # --benchmark-disable: nothing was timed
        return
    stats = benchmark.stats.stats
    merge_bench_row(
        OUT_PATH,
        "kernel:sgns",
        {
            "ns_per_pair_median": round(stats.median / B * 1e9, 1),
            "ns_per_pair_min": round(stats.min / B * 1e9, 1),
            "rounds": stats.rounds,
            "shapes": {"vocab": V, "dim": D, "pairs": B, "negatives": K},
            "numpy": np.__version__,
            "scipy": scipy.__version__,
        },
    )


def test_micro_generate_pairs(benchmark):
    sentence = RNG.integers(0, V, 1000)
    rng = np.random.default_rng(1)
    benchmark(generate_pairs, sentence, 5, rng)


def test_micro_alias_sampling(benchmark):
    table = UnigramTable(RNG.integers(1, 1000, V).astype(float))
    rng = np.random.default_rng(1)
    benchmark(table.draw, rng, (B, K))


def test_micro_bitvector_bulk(benchmark):
    indices = np.unique(RNG.integers(0, V, 500))

    def work():
        bv = BitVector(V)
        bv.set_many(indices)
        return bv.indices()

    benchmark(work)


@pytest.mark.parametrize("name", ["sum", "avg", "mc"])
def test_micro_combiner(benchmark, name):
    combiner = get_combiner(name)
    rows = np.arange(400, dtype=np.int64)
    contributions = [RNG.normal(size=(400, D)) for _ in range(8)]

    def work():
        state = combiner.create(400, D)
        for c in contributions:
            state.accumulate(rows, c)
        return state.result()

    benchmark(work)


def test_micro_sync_round(benchmark):
    H = 8
    parts = replicate_all_partitions(V, H)
    combiner = get_combiner("mc")
    plan = get_plan("opt")
    touched = [np.unique(RNG.integers(0, V, 300)) for _ in range(H)]
    deltas = [RNG.normal(size=(len(t), D)).astype(np.float32) for t in touched]

    def work():
        net = SimulatedNetwork(H)
        sync = GluonSynchronizer(parts, net)
        init = np.zeros((V, D), dtype=np.float32)
        field = FieldSync(
            "f",
            arrays=[init.copy() for _ in range(H)],
            bases=[init.copy() for _ in range(H)],
        )
        upd = [BitVector(V) for _ in range(H)]
        for h in range(H):
            field.arrays[h][touched[h]] += deltas[h]
            upd[h].set_many(touched[h])
        sync.sync_replicated(field, upd, combiner, plan)
        return net.total_bytes

    benchmark(work)


def test_micro_partitioner(benchmark):
    src = RNG.integers(0, V, 20_000)
    dst = RNG.integers(0, V, 20_000)
    benchmark(partition_edges, src, dst, V, 8, "cvc")
