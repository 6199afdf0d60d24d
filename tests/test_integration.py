"""Cross-module integration tests.

These exercise whole pipelines — corpus -> distributed training -> canonical
model -> evaluation — and the semantic invariants that tie the subsystems
together (plan equivalence, host-sharding conservation, learning on planted
structure, divergence at oversized learning rates).
"""

import numpy as np
import pytest

from repro.baselines.sgns_reference import GensimStyleWord2Vec, Word2VecCReference
from repro.eval.analogy import evaluate_analogies
from repro.eval.similarity import most_similar
from repro.text.synthetic import SyntheticCorpusSpec, generate_corpus
from repro.w2v.distributed import GraphWord2Vec
from repro.w2v.params import Word2VecParams
from repro.w2v.shared_memory import SharedMemoryWord2Vec


@pytest.fixture(scope="module")
def data():
    spec = SyntheticCorpusSpec(
        num_tokens=20_000,
        pairs_per_family=6,
        filler_vocab=200,
        questions_per_family=10,
    )
    return generate_corpus(spec, seed=1)


PARAMS = Word2VecParams(dim=32, epochs=6, negatives=8, subsample_threshold=1e-3)


@pytest.fixture(scope="module")
def trained(data):
    """``trained(system, seed)``: the SM / GW2V(8 hosts, MC) model, trained once."""
    corpus, _ = data
    models = {}

    def train(system: str, seed: int):
        if (system, seed) not in models:
            if system == "sm":
                model = SharedMemoryWord2Vec(corpus, PARAMS, seed=seed).train()
            else:
                trainer = GraphWord2Vec(corpus, PARAMS, num_hosts=8, combiner="mc", seed=seed)
                model = trainer.train().model
            models[system, seed] = model
        return models[system, seed]

    return train


class TestLearningOnPlantedStructure:
    def test_sequential_learns_analogies(self, data, trained):
        corpus, questions = data
        acc = evaluate_analogies(trained("sm", 7), corpus.vocabulary, questions)
        assert acc.total > 0.25, f"sequential SGNS failed to learn: {acc}"
        assert acc.semantic > 0.0 and acc.syntactic > 0.0

    def test_distributed_mc_learns_analogies(self, data, trained):
        corpus, questions = data
        acc = evaluate_analogies(trained("gw2v", 7), corpus.vocabulary, questions)
        assert acc.total > 0.15, f"distributed MC failed to learn: {acc}"

    # Total analogy accuracy (mean, sample sd) over trainer seeds 1-30 (SM)
    # and 1-15 (GW2V) with per-sentence example generation, the commit before
    # the one-pass chunk builders; EXPERIMENTS.md, Table 3 gives the script.
    PER_SENTENCE_GENERATION_ACCURACY = {
        "sm": (0.6010, 0.0383),
        "gw2v": (0.2076, 0.0398),
    }

    @pytest.mark.parametrize("system", ["sm", "gw2v"])
    def test_accuracy_inside_previous_kernels_seed_spread(self, data, trained, system):
        """Re-pins moved floats, not quality (tiny Table 3): the mean of three
        seeds lies within 3 standard errors of the previous multi-seed mean."""
        corpus, questions = data
        mean, sd = self.PER_SENTENCE_GENERATION_ACCURACY[system]
        now = [
            evaluate_analogies(trained(system, seed), corpus.vocabulary, questions).total
            for seed in (7, 8, 9)
        ]
        assert abs(np.mean(now) - mean) <= 3 * sd / np.sqrt(3), (mean, sd, now)

    def test_pair_words_become_neighbors(self, data, trained):
        corpus, _ = data
        model = trained("sm", 7)
        # Planted pair (country00, capital00) should be mutually close:
        # capital00 within the top quarter of country00's neighbor list.
        neighbors = [
            w for w, _ in most_similar(model, corpus.vocabulary, "country00",
                                       topn=len(corpus.vocabulary) // 4)
        ]
        assert "capital00" in neighbors

    def test_mc_beats_avg_at_same_learning_rate(self, data):
        corpus, questions = data
        mc = GraphWord2Vec(corpus, PARAMS, num_hosts=8, combiner="mc", seed=7).train()
        avg = GraphWord2Vec(corpus, PARAMS, num_hosts=8, combiner="avg", seed=7).train()
        acc_mc = evaluate_analogies(mc.model, corpus.vocabulary, questions)
        acc_avg = evaluate_analogies(avg.model, corpus.vocabulary, questions)
        assert acc_mc.total >= acc_avg.total - 0.02, (
            f"MC {acc_mc.total:.1%} should not trail AVG {acc_avg.total:.1%}"
        )

    def test_oversized_learning_rate_diverges_sequentially(self, data):
        corpus, questions = data
        params = PARAMS.with_(learning_rate=0.8, epochs=3)
        with np.errstate(over="ignore", invalid="ignore"):
            model = SharedMemoryWord2Vec(corpus, params, seed=7).train()
        acc = evaluate_analogies(model, corpus.vocabulary, questions)
        assert acc.total < 0.05, "lr=0.8 should diverge"


class TestCrossSystemConsistency:
    def test_all_trainers_accept_same_inputs(self, data):
        corpus, _ = data
        fast = PARAMS.with_(epochs=1)
        for trainer in (
            SharedMemoryWord2Vec(corpus, fast, seed=1),
            Word2VecCReference(corpus, fast, seed=1),
            GensimStyleWord2Vec(corpus, fast, seed=1),
            GraphWord2Vec(corpus, fast, num_hosts=2, seed=1),
        ):
            model = trainer.train()
            model = model.model if hasattr(model, "model") else model
            assert model.vocab_size == len(corpus.vocabulary)
            assert np.isfinite(model.embedding).all()

    def test_plan_equivalence_end_to_end(self, data):
        corpus, _ = data
        fast = PARAMS.with_(epochs=2)
        results = {
            plan: GraphWord2Vec(corpus, fast, num_hosts=4, plan=plan, seed=9).train()
            for plan in ("opt", "naive", "pull")
        }
        assert results["opt"].model == results["naive"].model == results["pull"].model
        volumes = {p: r.report.comm_bytes for p, r in results.items()}
        assert volumes["naive"] > volumes["opt"]

    def test_sync_frequency_tradeoff_is_visible(self, data):
        """More rounds => more communication events; same total work."""
        corpus, _ = data
        fast = PARAMS.with_(epochs=1)
        lo = GraphWord2Vec(corpus, fast, num_hosts=4, sync_rounds_per_epoch=2, seed=1).train()
        hi = GraphWord2Vec(corpus, fast, num_hosts=4, sync_rounds_per_epoch=16, seed=1).train()
        assert hi.report.comm_messages > lo.report.comm_messages
        assert hi.epoch_pairs[0] == pytest.approx(lo.epoch_pairs[0], rel=0.05)

    def test_hogwild_batch_granularity_changes_little(self, data):
        """batch_pairs is a Hogwild staleness knob, not a semantics knob."""
        corpus, questions = data
        small = SharedMemoryWord2Vec(corpus, PARAMS.with_(batch_pairs=64), seed=7).train()
        large = SharedMemoryWord2Vec(corpus, PARAMS.with_(batch_pairs=1024), seed=7).train()
        acc_small = evaluate_analogies(small, corpus.vocabulary, questions)
        acc_large = evaluate_analogies(large, corpus.vocabulary, questions)
        assert abs(acc_small.total - acc_large.total) < 0.25
