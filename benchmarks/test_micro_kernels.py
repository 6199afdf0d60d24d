"""Micro-benchmarks of the performance-critical kernels.

These use ordinary pytest-benchmark statistics (many rounds) and guard the
constants the experiment harness depends on: the SGNS scatter-add kernel,
example generation, alias-table sampling, bit-vector bulk ops, the gradient
combiners, and one full replicated sync round.
"""

import itertools
import json
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
from repro.text.synthetic import SyntheticCorpusSpec, generate_corpus
from repro.w2v.params import Word2VecParams
from repro.w2v.sgd import TrainingBatch, sgns_update
from repro.w2v.steps import build_round_work

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


#: ``train-sm``'s corpus and parameters (bench/workloads/train-sm.json).
GEN_SPEC = SyntheticCorpusSpec(
    num_tokens=60_000, pairs_per_family=8, filler_vocab=600, questions_per_family=12
)
GEN_PARAMS = Word2VecParams(dim=64, window=5, negatives=10, subsample_threshold=1e-3)


@pytest.mark.parametrize("sentences", [32, 3])
def test_micro_build_round_work(benchmark, sentences):
    """One chunk's examples + access sets: ``train-sm``'s 32-sentence chunks
    and ``train-bsp32``'s ~3-sentence (host, round) slots, cycling through
    the corpus so a call costs an average chunk."""
    corpus, _ = generate_corpus(GEN_SPEC, seed=7)
    vocab = corpus.vocabulary
    keep_prob = vocab.keep_probabilities(GEN_PARAMS.subsample_threshold)
    table = UnigramTable(vocab.counts)
    chunks = [
        corpus.sentences[i : i + sentences]
        for i in range(0, corpus.num_sentences - sentences + 1, sentences)
    ]
    order = itertools.cycle(chunks)
    rng = np.random.default_rng(1)
    examples = []

    def build():
        work = build_round_work(
            next(order), params=GEN_PARAMS, keep_prob=keep_prob, table=table, tree=None, rng=rng
        )
        examples.append(work.num_examples)

    benchmark(build)
    if benchmark.stats is None:  # --benchmark-disable: nothing was timed
        return
    stats = benchmark.stats.stats
    row = json.loads(OUT_PATH.read_text()).get("kernel:generate", {}) if OUT_PATH.exists() else {}
    row.update(
        shapes={"vocab": len(vocab), "tokens": corpus.num_tokens,
                "sentences": corpus.num_sentences, "window": GEN_PARAMS.window,
                "negatives": GEN_PARAMS.negatives,
                "subsample_threshold": GEN_PARAMS.subsample_threshold},
        numpy=np.__version__,
    )
    row[f"sentences={sentences}"] = {
        "us_per_call_median": round(stats.median * 1e6, 1),
        "us_per_call_min": round(stats.min * 1e6, 1),
        "rounds": stats.rounds,
        "examples_per_call": round(float(np.mean(examples)), 1),
    }
    merge_bench_row(OUT_PATH, "kernel:generate", row)


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


#: ``train-bsp32``'s fold shapes (bench/workloads/train-bsp32.json): the
#: 1 325-word vocabulary, ~450 touched rows per host per field per round.
FOLD_V, FOLD_TOUCHED = 1325, 450


@pytest.mark.parametrize("H", [8, 32, 64])
def test_micro_sync_round(benchmark, monkeypatch, H):
    """One fold-kernel call (reduce -> combine -> broadcast) at H hosts, to
    the training engine's destination: one shared canonical store, and
    landings that write the replica only."""
    parts = replicate_all_partitions(FOLD_V, H)
    combiner = get_combiner("mc")
    plan = get_plan("opt")
    rng = np.random.default_rng(H)
    touched = [np.sort(rng.choice(FOLD_V, FOLD_TOUCHED, replace=False)) for _ in range(H)]
    deltas = [rng.normal(scale=1e-3, size=(len(t), D)) for t in touched]
    sync = GluonSynchronizer(parts, SimulatedNetwork(H))
    init = rng.normal(size=(FOLD_V, D)).astype(np.float32)
    canon = init.copy()
    field = FieldSync("f", arrays=[init.copy() for _ in range(H)])
    offsets = itertools.count()

    def fold():
        return sync.fold(
            field, touched, deltas, combiner, plan,
            canonical=[canon] * H, land=field.land, fold_offset=next(offsets),
        )

    # The algorithmic property beside the clock: accumulate calls per fold.
    state_cls = type(combiner.create(1, D))
    accumulate = state_cls.accumulate
    calls = []

    def counted(self, rows, vals):
        calls.append(len(rows))
        return accumulate(self, rows, vals)

    monkeypatch.setattr(state_cls, "accumulate", counted)
    fold()
    monkeypatch.undo()

    benchmark(fold)
    if benchmark.stats is None:  # --benchmark-disable: nothing was timed
        return
    stats = benchmark.stats.stats
    row = json.loads(OUT_PATH.read_text()).get("kernel:fold", {}) if OUT_PATH.exists() else {}
    row.update(
        shapes={"vocab": FOLD_V, "dim": D, "touched_per_host": FOLD_TOUCHED,
                "combiner": combiner.name, "plan": plan.name,
                "destination": "shared canonical store, replica-only landing"},
        numpy=np.__version__,
    )
    row[f"hosts={H}"] = {
        "us_per_fold_median": round(stats.median * 1e6, 1),
        "us_per_fold_min": round(stats.min * 1e6, 1),
        "rounds": stats.rounds,
        "accumulate_calls_per_fold": len(calls),
        "rows_accumulated_per_fold": int(sum(calls)),
    }
    merge_bench_row(OUT_PATH, "kernel:fold", row)


def test_micro_partitioner(benchmark):
    src = RNG.integers(0, V, 20_000)
    dst = RNG.integers(0, V, 20_000)
    benchmark(partition_edges, src, dst, V, 8, "cvc")
