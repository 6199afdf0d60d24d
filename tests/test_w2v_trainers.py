import hashlib

import numpy as np
import pytest

from repro.cluster.faults import FaultConfig, FaultSchedule
from repro.text.corpus import Corpus
from repro.text.synthetic import SyntheticCorpusSpec, generate_corpus
from repro.w2v.distributed import GraphWord2Vec, default_sync_rounds
from repro.w2v.params import Word2VecParams
from repro.w2v.shared_memory import _SENTENCES_PER_CHUNK, SharedMemoryWord2Vec
from tests.test_cluster import slow_hosts


@pytest.fixture(scope="module")
def corpus_and_questions():
    spec = SyntheticCorpusSpec(
        num_tokens=8000, pairs_per_family=4, filler_vocab=150, questions_per_family=6
    )
    return generate_corpus(spec, seed=1)


FAST = Word2VecParams(dim=16, epochs=2, negatives=4, window=3, subsample_threshold=1e-2)


class TestDefaultSyncRounds:
    @pytest.mark.parametrize(
        "hosts,rounds",
        [(1, 2), (2, 3), (4, 6), (8, 12), (16, 24), (32, 48), (64, 96)],
    )
    def test_paper_rule(self, hosts, rounds):
        # 1(1) in the paper's labels rounds 1.5 down; we use round() -> 2 for
        # H=1, except the figure labels use 1.  max(1, round(1.5)) == 2.
        if hosts == 1:
            assert default_sync_rounds(hosts) in (1, 2)
        else:
            assert default_sync_rounds(hosts) == rounds

    def test_invalid(self):
        with pytest.raises(ValueError):
            default_sync_rounds(0)


class TestMinibatchAllreduce:
    """Synchronous mini-batch SGD with a mean ALLREDUCE is GraphWord2Vec
    with the AVG combiner and one sync per mini-batch."""

    @staticmethod
    def minibatch(corpus, params, hosts, combiner="avg", sentences_per_host=8):
        minibatches = -(-corpus.num_sentences // (hosts * sentences_per_host))  # ceil
        return GraphWord2Vec(
            corpus, params, num_hosts=hosts, combiner=combiner,
            sync_rounds_per_epoch=minibatches, seed=3,
        )

    def test_mean_trains(self, corpus_and_questions):
        corpus, _ = corpus_and_questions
        trainer = self.minibatch(corpus, FAST.with_(epochs=1), hosts=3)
        before = trainer.canonical_model().embedding
        after = trainer.train().model.embedding
        assert not np.allclose(after, before)

    def test_sum_takes_bigger_steps_than_mean(self, corpus_and_questions):
        corpus, _ = corpus_and_questions
        params = FAST.with_(epochs=1)
        mean_t = self.minibatch(corpus, params, hosts=4)
        sum_t = self.minibatch(corpus, params, hosts=4, combiner="sum")
        init = mean_t.canonical_model().embedding
        mean_step = np.abs(mean_t.train().model.embedding - init).sum()
        sum_step = np.abs(sum_t.train().model.embedding - init).sum()
        assert sum_step > mean_step

    def test_allreduce_per_minibatch(self, corpus_and_questions):
        corpus, _ = corpus_and_questions
        trainer = self.minibatch(corpus, FAST.with_(epochs=1), hosts=2, sentences_per_host=4)
        trainer.train()
        expected_batches = -(-corpus.num_sentences // (2 * 4))  # ceil
        folds = [r for r in trainer.network.phase_records if r.name == "reduce:embedding"]
        assert len(folds) == expected_batches
        assert trainer.network.total_bytes > 0


class TestSharedMemory:
    def test_training_moves_model(self, corpus_and_questions):
        corpus, _ = corpus_and_questions
        trainer = SharedMemoryWord2Vec(corpus, FAST, seed=3)
        before = trainer.model.embedding.copy()
        trainer.train()
        assert not np.allclose(trainer.model.embedding, before)

    def test_deterministic(self, corpus_and_questions):
        corpus, _ = corpus_and_questions
        a = SharedMemoryWord2Vec(corpus, FAST, seed=3).train()
        b = SharedMemoryWord2Vec(corpus, FAST, seed=3).train()
        assert a == b

    def test_seed_changes_model(self, corpus_and_questions):
        corpus, _ = corpus_and_questions
        a = SharedMemoryWord2Vec(corpus, FAST, seed=3).train()
        b = SharedMemoryWord2Vec(corpus, FAST, seed=4).train()
        assert a != b

    def test_epoch_callback_and_stats(self, corpus_and_questions):
        corpus, _ = corpus_and_questions
        trainer = SharedMemoryWord2Vec(corpus, FAST, seed=3, compute_loss=True)
        epochs = []
        trainer.train(lambda e, m: epochs.append(e))
        assert epochs == [0, 1]
        assert len(trainer.epoch_stats) == 2
        assert trainer.epoch_stats[0].pairs > 0
        assert trainer.epoch_stats[0].loss > 0

    def test_hogwild_threaded_executor(self, corpus_and_questions):
        from repro.galois.do_all import SerialExecutor, ThreadPoolDoAll

        corpus, _ = corpus_and_questions
        threaded = SharedMemoryWord2Vec(
            corpus, FAST, seed=3, executor=ThreadPoolDoAll(workers=2)
        )
        before = threaded.model.embedding.copy()
        model = threaded.train()
        assert not np.allclose(model.embedding, before)
        assert np.isfinite(model.embedding).all()
        assert threaded.epoch_stats[0].pairs > 0
        # Serial executor through the same Hogwild path is deterministic.
        a = SharedMemoryWord2Vec(
            corpus, FAST, seed=3, executor=SerialExecutor()
        ).train()
        b = SharedMemoryWord2Vec(
            corpus, FAST, seed=3, executor=SerialExecutor()
        ).train()
        assert a == b

    def test_chunk_streams_pinned(self):
        # 95 sentences make three worklist chunks per epoch, so each chunk's
        # seed-tree stream (epoch, "chunk", index) shapes the model: with one
        # chunk, a stream keyed without its index would read the same bits.
        spec = SyntheticCorpusSpec(
            num_tokens=1500, pairs_per_family=3, filler_vocab=60, questions_per_family=3
        )
        corpus, _ = generate_corpus(spec, seed=1)
        trainer = SharedMemoryWord2Vec(corpus, FAST, seed=3, workers=1)
        assert len(trainer.corpus.sentences) > 2 * _SENTENCES_PER_CHUNK
        model = trainer.train()
        digest = hashlib.sha256(model.embedding.tobytes())
        digest.update(model.training.tobytes())
        assert digest.hexdigest() == (
            "399aa97668d7186c51e1cd92f6208b62c2dc74d9ded32f6715826316c4d03686"
        )


class TestGraphWord2Vec:
    def test_single_host_trains(self, corpus_and_questions):
        corpus, _ = corpus_and_questions
        gw = GraphWord2Vec(corpus, FAST, num_hosts=1, seed=3)
        result = gw.train()
        assert result.report.comm_bytes == 0
        assert result.epoch_pairs and all(p > 0 for p in result.epoch_pairs)

    def test_deterministic_given_seed(self, corpus_and_questions):
        corpus, _ = corpus_and_questions
        a = GraphWord2Vec(corpus, FAST, num_hosts=3, seed=5).train().model
        b = GraphWord2Vec(corpus, FAST, num_hosts=3, seed=5).train().model
        assert a == b

    @pytest.mark.parametrize("combiner", ["mc", "avg", "sum", "keep_first"])
    def test_all_combiners_run(self, corpus_and_questions, combiner):
        corpus, _ = corpus_and_questions
        gw = GraphWord2Vec(
            corpus, FAST.with_(epochs=1), num_hosts=3, combiner=combiner, seed=5
        )
        result = gw.train()
        assert result.model.vocab_size == len(corpus.vocabulary)

    def test_plans_produce_identical_models(self, corpus_and_questions):
        """The central invariant: plans change bytes, never the model."""
        corpus, _ = corpus_and_questions
        models = {}
        reports = {}
        for plan in ("opt", "naive", "pull"):
            gw = GraphWord2Vec(corpus, FAST, num_hosts=3, plan=plan, seed=5)
            result = gw.train()
            models[plan] = result.model
            reports[plan] = result.report
        assert models["opt"] == models["naive"]
        assert models["opt"] == models["pull"]
        assert reports["naive"].comm_bytes > reports["opt"].comm_bytes
        assert reports["pull"].breakdown.inspection_s > 0

    def test_combiner_changes_model(self, corpus_and_questions):
        corpus, _ = corpus_and_questions
        mc = GraphWord2Vec(corpus, FAST, num_hosts=3, combiner="mc", seed=5).train().model
        avg = GraphWord2Vec(corpus, FAST, num_hosts=3, combiner="avg", seed=5).train().model
        assert mc != avg

    def test_report_contents(self, corpus_and_questions):
        corpus, _ = corpus_and_questions
        gw = GraphWord2Vec(corpus, FAST, num_hosts=4, seed=5)
        report = gw.train().report
        assert report.num_hosts == 4
        assert report.sync_rounds_per_epoch == default_sync_rounds(4)
        assert report.plan == "RepModel-Opt"
        assert report.combiner == "mc"
        assert report.breakdown.compute_s > 0
        assert report.breakdown.communication_s > 0
        assert report.comm_messages > 0
        assert set(report.bytes_by_phase) == {"reduce", "broadcast"}
        assert report.sequential_compute_s >= report.breakdown.compute_s

    def test_epoch_callback_receives_canonical_model(self, corpus_and_questions):
        corpus, _ = corpus_and_questions
        snapshots = []
        gw = GraphWord2Vec(corpus, FAST, num_hosts=2, seed=5)
        gw.train(lambda e, m: snapshots.append(m))
        assert len(snapshots) == FAST.epochs
        assert snapshots[-1] == gw.canonical_model()
        assert snapshots[0] != snapshots[1]

    def test_sync_rounds_override(self, corpus_and_questions):
        corpus, _ = corpus_and_questions
        gw = GraphWord2Vec(
            corpus, FAST.with_(epochs=1), num_hosts=2, sync_rounds_per_epoch=7, seed=5
        )
        report = gw.train().report
        assert report.sync_rounds_per_epoch == 7

    def test_vocab_smaller_than_hosts_rejected(self):
        corpus, _ = generate_corpus(
            SyntheticCorpusSpec(num_tokens=300, pairs_per_family=2, filler_vocab=5),
            seed=0,
        )
        with pytest.raises(ValueError, match="smaller than host count"):
            GraphWord2Vec(corpus, FAST, num_hosts=10_000)

    def test_invalid_host_count(self, corpus_and_questions):
        corpus, _ = corpus_and_questions
        with pytest.raises(ValueError):
            GraphWord2Vec(corpus, FAST, num_hosts=0)

    def test_invalid_sync_rounds(self, corpus_and_questions):
        corpus, _ = corpus_and_questions
        with pytest.raises(ValueError, match="sync rounds"):
            GraphWord2Vec(corpus, FAST, num_hosts=2, sync_rounds_per_epoch=0)

    def test_accepts_combiner_and_plan_instances(self, corpus_and_questions):
        from repro.core.combiners import ModelCombiner
        from repro.gluon.plans import RepModelOpt

        corpus, _ = corpus_and_questions
        gw = GraphWord2Vec(
            corpus, FAST.with_(epochs=1), num_hosts=2,
            combiner=ModelCombiner(), plan=RepModelOpt(), seed=5,
        )
        report = gw.train().report
        assert report.combiner == "mc"
        assert report.plan == "RepModel-Opt"

    def test_straggler_speed_factors(self, corpus_and_questions):
        corpus, _ = corpus_and_questions
        fast_params = FAST.with_(epochs=1)
        uniform = GraphWord2Vec(corpus, fast_params, num_hosts=4, seed=5)
        res_uniform = uniform.train()
        straggler = GraphWord2Vec(
            corpus, fast_params, num_hosts=4, seed=5,
            faults=slow_hosts([1.0, 1.0, 1.0, 10.0], 1, default_sync_rounds(4)),
        )
        res_straggler = straggler.train()
        # The model is unaffected; only the modeled wall-clock grows
        # (BSP rounds wait for the slowest host).
        assert res_uniform.model == res_straggler.model
        assert (
            res_straggler.report.breakdown.compute_s
            > 2 * res_uniform.report.breakdown.compute_s
        )

    def test_speed_factor_validation(self):
        # A heterogeneous cluster is a FaultSchedule: its constructor
        # checks the slow hosts and their factors.
        def schedule(host: int, factor: float) -> FaultSchedule:
            return FaultSchedule(
                FaultConfig(), 3, 1, 1, crashes={}, stragglers={(0, 0, host): factor},
                message_seed=0,
            )

        with pytest.raises(ValueError, match="host 3 out of range"):
            schedule(3, 2.0)
        for factor in (0.5, float("inf"), float("nan")):
            with pytest.raises(ValueError, match="finite and >= 1"):
                schedule(1, factor)

    def test_instance_and_name_give_same_model(self, corpus_and_questions):
        from repro.core.combiners import ModelCombiner

        corpus, _ = corpus_and_questions
        by_name = GraphWord2Vec(
            corpus, FAST.with_(epochs=1), num_hosts=2, combiner="mc", seed=5
        ).train().model
        by_instance = GraphWord2Vec(
            corpus, FAST.with_(epochs=1), num_hosts=2, combiner=ModelCombiner(), seed=5
        ).train().model
        assert by_name == by_instance

    def test_replicas_agree_after_training(self, corpus_and_questions):
        # Under RepModel-Opt every replica row equals the canonical value
        # once training ends (broadcasts cover every change).
        corpus, _ = corpus_and_questions
        gw = GraphWord2Vec(corpus, FAST, num_hosts=3, plan="opt", seed=5)
        gw.train()
        canonical = gw.canonical_model()
        for h in range(3):
            assert np.array_equal(
                gw._fields["embedding"].arrays[h], canonical.embedding
            )
            assert np.array_equal(
                gw._fields["training"].arrays[h], canonical.training
            )

    def test_more_hosts_changes_trajectory_not_validity(self, corpus_and_questions):
        corpus, _ = corpus_and_questions
        m2 = GraphWord2Vec(corpus, FAST, num_hosts=2, seed=5).train().model
        m4 = GraphWord2Vec(corpus, FAST, num_hosts=4, seed=5).train().model
        assert m2 != m4
        assert np.isfinite(m4.embedding).all()

    @pytest.mark.parametrize(
        "arch,obj",
        [("skipgram", "hierarchical"), ("cbow", "negative"), ("cbow", "hierarchical")],
    )
    def test_other_configurations_plan_equivalence(self, corpus_and_questions, arch, obj):
        """Plans never change the model in any architecture/objective."""
        corpus, _ = corpus_and_questions
        params = FAST.with_(epochs=1, architecture=arch, objective=obj)
        models = {
            plan: GraphWord2Vec(corpus, params, num_hosts=3, plan=plan, seed=5)
            .train()
            .model
            for plan in ("opt", "naive", "pull")
        }
        assert models["opt"] == models["naive"] == models["pull"]

    def test_hierarchical_output_field_shape(self, corpus_and_questions):
        corpus, _ = corpus_and_questions
        params = FAST.with_(epochs=1, objective="hierarchical")
        gw = GraphWord2Vec(corpus, params, num_hosts=3, seed=5)
        result = gw.train()
        V = len(corpus.vocabulary)
        assert result.model.embedding.shape[0] == V
        assert result.model.training.shape[0] == V - 1

    def test_checkpoint_works_with_hierarchical(self, corpus_and_questions):
        corpus, _ = corpus_and_questions
        params = FAST.with_(objective="hierarchical")
        straight = GraphWord2Vec(corpus, params, num_hosts=2, seed=5).train().model
        a = GraphWord2Vec(corpus, params, num_hosts=2, seed=5)
        a.train(until_epoch=1)
        b = GraphWord2Vec(corpus, params, num_hosts=2, seed=5)
        b.load_checkpoint(a.save_checkpoint())
        assert b.train().model == straight


class TestTokenBoundary:
    """A token id outside the vocabulary fails its chunk before any update."""

    @pytest.mark.parametrize("system", ["sm", "gw2v"])
    @pytest.mark.parametrize("where", ["below", "above"])
    def test_out_of_vocabulary_token_leaves_model_untouched(
        self, corpus_and_questions, system, where
    ):
        corpus, _ = corpus_and_questions
        corpus = Corpus(corpus.vocabulary, [s.copy() for s in corpus.sentences])
        # Unshuffled, small slices: sentence 3 sits in the first chunk (SM) and
        # in host 0's first round (GW2V), behind pairs that would otherwise
        # have been applied already.
        params = FAST.with_(shuffle_each_epoch=False, batch_pairs=16)
        if system == "sm":
            trainer = SharedMemoryWord2Vec(corpus, params, seed=3)
            arrays = [trainer.model.embedding, trainer.model.training]
        else:
            trainer = GraphWord2Vec(corpus, params, num_hosts=2, seed=3)
            fields = trainer._fields.values()
            arrays = [a for field in fields for a in field.arrays]
            arrays += [trainer._canonical["embedding"], trainer._canonical["training"]]
        before = [a.copy() for a in arrays]
        token = -1 if where == "below" else len(corpus.vocabulary)
        trainer.corpus.sentences[3][2] = token
        with pytest.raises(ValueError, match=f"sentence 3 of the chunk holds token {token}"):
            trainer.train()
        for after, expected in zip(arrays, before):
            assert np.array_equal(after, expected)
