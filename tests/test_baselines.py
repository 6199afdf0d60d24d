import numpy as np
import pytest

from repro.baselines.sgns_reference import (
    GensimStyleWord2Vec,
    MemoryBudgetExceeded,
    Word2VecCReference,
)
from repro.eval.analogy import evaluate_analogies
from repro.text.synthetic import SyntheticCorpusSpec, generate_corpus
from repro.w2v.params import Word2VecParams


@pytest.fixture(scope="module")
def data():
    spec = SyntheticCorpusSpec(
        num_tokens=8000, pairs_per_family=4, filler_vocab=150, questions_per_family=6
    )
    return generate_corpus(spec, seed=1)


FAST = Word2VecParams(dim=16, epochs=2, negatives=4, window=3, subsample_threshold=1e-2)


class TestW2VReference:
    def test_trains_and_learns_something(self, data):
        corpus, questions = data
        model = Word2VecCReference(corpus, FAST.with_(epochs=8), seed=3).train()
        acc = evaluate_analogies(model, corpus.vocabulary, questions)
        assert np.isfinite(model.embedding).all()
        assert acc.micro > 0.05  # clearly better than chance after 8 epochs

    def test_deterministic(self, data):
        corpus, _ = data
        fast1 = Word2VecCReference(corpus, FAST, seed=3).train()
        fast2 = Word2VecCReference(corpus, FAST, seed=3).train()
        assert fast1 == fast2

    def test_epoch_callback(self, data):
        corpus, _ = data
        seen = []
        Word2VecCReference(corpus, FAST, seed=3).train(lambda e, m: seen.append(e))
        assert seen == [0, 1]


class TestGensimStyle:
    def test_trains(self, data):
        corpus, _ = data
        model = GensimStyleWord2Vec(corpus, FAST, seed=3).train()
        assert np.isfinite(model.embedding).all()

    def test_memory_budget_exceeded(self, data):
        corpus, _ = data
        trainer = GensimStyleWord2Vec(
            corpus, FAST, seed=3, memory_budget_bytes=1000
        )
        with pytest.raises(MemoryBudgetExceeded):
            trainer.train()

    def test_generous_budget_ok(self, data):
        corpus, _ = data
        trainer = GensimStyleWord2Vec(
            corpus, FAST, seed=3, memory_budget_bytes=10**9
        )
        trainer.train()

    def test_pair_bytes_estimate(self):
        assert GensimStyleWord2Vec.pair_bytes(15) == 8 * 17 + 1

    def test_invalid_job_pairs(self, data):
        corpus, _ = data
        with pytest.raises(ValueError):
            GensimStyleWord2Vec(corpus, FAST, job_pairs=0)
