from hypothesis import given, settings, strategies as st
import pytest

from repro.text.synthetic import SyntheticCorpusSpec, generate_corpus
from repro.util import artifact
from repro.w2v.distributed import GraphWord2Vec
from repro.w2v.params import Word2VecParams

from tests.test_artifact import editing, flipped, reseal


@pytest.fixture(scope="module")
def corpus():
    spec = SyntheticCorpusSpec(
        num_tokens=6000, pairs_per_family=4, filler_vocab=100, questions_per_family=4
    )
    return generate_corpus(spec, seed=1)[0]


PARAMS = Word2VecParams(dim=16, epochs=4, negatives=4, window=3, subsample_threshold=1e-2)


def make(corpus, **kw):
    defaults = dict(num_hosts=3, seed=5)
    defaults.update(kw)
    return GraphWord2Vec(corpus, PARAMS, **defaults)


class TestUntilEpoch:
    def test_pause_and_continue_same_trainer(self, corpus):
        straight = make(corpus).train().model
        paused = make(corpus)
        paused.train(until_epoch=2)
        assert paused._completed_epochs == 2
        final = paused.train().model
        assert final == straight

    def test_until_epoch_beyond_budget_clamped(self, corpus):
        trainer = make(corpus)
        trainer.train(until_epoch=100)
        assert trainer._completed_epochs == PARAMS.epochs


class TestCheckpoint:
    @pytest.mark.parametrize("plan", ["opt", "naive", "pull"])
    def test_resume_reproduces_uninterrupted_run(self, corpus, plan):
        straight = make(corpus, plan=plan).train().model

        first = make(corpus, plan=plan)
        first.train(until_epoch=2)
        blob = first.save_checkpoint()

        resumed = make(corpus, plan=plan)
        assert resumed.load_checkpoint(blob) == 2
        final = resumed.train().model
        assert final == straight

    def test_save_load_roundtrip(self, corpus):
        trainer = make(corpus)
        trainer.train()
        blob = trainer.save_checkpoint()
        fresh = make(corpus)
        next_epoch = fresh.load_checkpoint(blob)
        assert next_epoch == PARAMS.epochs
        assert fresh.canonical_model() == trainer.canonical_model()
        # Fully trained checkpoint: train() is a no-op.
        model_before = fresh.canonical_model()
        fresh.train()
        assert fresh.canonical_model() == model_before

    def test_mismatched_config_rejected(self, corpus):
        trainer = make(corpus)
        trainer.train(until_epoch=1)
        blob = trainer.save_checkpoint()
        other = make(corpus, seed=6)
        with pytest.raises(ValueError, match="different training configuration"):
            other.load_checkpoint(blob)
        other_plan = make(corpus, plan="naive")
        with pytest.raises(ValueError):
            other_plan.load_checkpoint(blob)

    def test_checkpoint_between_every_epoch(self, corpus):
        """Resume is exact regardless of where the boundary falls."""
        straight = make(corpus).train().model
        for boundary in (1, 2, 3):
            a = make(corpus)
            a.train(until_epoch=boundary)
            b = make(corpus)
            b.load_checkpoint(a.save_checkpoint())
            assert b.train().model == straight, f"boundary {boundary}"


class TestRoundGranularCheckpoint:
    """A run killed at an arbitrary *round* boundary resumes exactly."""

    def test_until_round_pauses_mid_epoch(self, corpus):
        trainer = make(corpus)
        S = trainer.sync_rounds
        kill_at = S + S // 2  # strictly inside epoch 1
        trainer.train(until_round=kill_at)
        assert trainer._completed_epochs == 1
        assert trainer._completed_rounds == kill_at - S

    @pytest.mark.parametrize("plan", ["opt", "naive", "pull"])
    def test_mid_epoch_resume_reproduces_uninterrupted_run(self, corpus, plan):
        straight = make(corpus, plan=plan).train()

        first = make(corpus, plan=plan)
        S = first.sync_rounds
        first.train(until_round=S + S // 2)
        blob = first.save_checkpoint()

        resumed = make(corpus, plan=plan)
        resumed.load_checkpoint(blob)
        final = resumed.train()
        assert final.model == straight.model
        assert final.epoch_pairs == straight.epoch_pairs
        assert final.report.pairs_processed == straight.report.pairs_processed

    def test_resume_at_every_round_of_first_epoch(self, corpus):
        probe = make(corpus)
        S = probe.sync_rounds
        straight = make(corpus).train().model
        for kill_at in range(1, S + 1):
            a = make(corpus)
            a.train(until_round=kill_at)
            b = make(corpus)
            b.load_checkpoint(a.save_checkpoint())
            assert b.train().model == straight, f"killed at round {kill_at}"

    def test_double_pause_same_trainer(self, corpus):
        straight = make(corpus).train().model
        trainer = make(corpus)
        S = trainer.sync_rounds
        trainer.train(until_round=S // 2)
        trainer.train(until_round=2 * S + 1)
        assert trainer.train().model == straight

    def test_pair_accounting_survives_resume(self, corpus):
        straight = make(corpus).train()
        a = make(corpus)
        a.train(until_round=a.sync_rounds + 2)
        b = make(corpus)
        b.load_checkpoint(a.save_checkpoint())
        result = b.train()
        assert sum(result.epoch_pairs) == sum(straight.epoch_pairs)
        assert result.epoch_pairs == straight.epoch_pairs


@pytest.fixture(scope="module")
def checkpoint(corpus):
    """A trainer and a real mid-run checkpoint of it."""
    trainer = make(corpus)
    trainer.train(until_round=trainer.sync_rounds + 1)
    return trainer, trainer.save_checkpoint()


class TestCheckpointBoundary:
    """Damaged or hand-made bytes end in success or a ``ValueError`` that
    names the checkpoint artifact's field, never a library exception."""

    @pytest.mark.parametrize("damage, match", [
        (lambda b: b"", "'prefix' is truncated"),
        (lambda b: b[: len(b) // 2], "'sha256'"),
        (lambda b: flipped(b, [len(b) * 8 // 3]), "'sha256'"),
        (lambda b: reseal(b, editing("fields.completed_epochs", drop=True)), r"'fields\.completed_epochs' is missing"),
        (lambda b: reseal(b, editing("fields.completed_epochs", [1, 2])), r"'fields\.completed_epochs' must be count, got list"),
        (lambda b: reseal(b, editing("fields.completed_epochs", -3)), r"'fields\.completed_epochs' must be count, got int"),
        (lambda b: reseal(b, editing("arrays.training.shape", [4])), r"'arrays\.training\.shape' must be 2 counts"),
        (lambda b: reseal(b, head=b'{"fingerprint": "\xff"}'), r"'header' is not UTF-8 JSON"),
    ], ids=["empty", "truncated", "bit-flip", "missing", "vector", "negative", "1-D", "not-utf8"])
    def test_damage_is_a_named_value_error(self, checkpoint, damage, match):
        trainer, blob = checkpoint
        with pytest.raises(ValueError, match=f"checkpoint artifact field {match}"):
            trainer.load_checkpoint(damage(blob))

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_truncations_flips_and_dropped_keys(self, checkpoint, data):
        trainer, blob = checkpoint
        kind = data.draw(st.sampled_from(["truncate", "flip", "drop"]))
        if kind == "truncate":
            damaged = blob[: data.draw(st.integers(0, len(blob) - 1))]
        elif kind == "flip":
            damaged = flipped(blob, data.draw(st.lists(st.integers(0, 8 * len(blob) - 1), min_size=1, max_size=4, unique=True)))
        else:
            keys = [f"fields.{key}" for key in artifact.SCHEMAS["checkpoint"][1]]
            keys += [f"arrays.{key}" for key in artifact.SCHEMAS["checkpoint"][0]]
            damaged = reseal(blob, editing(data.draw(st.sampled_from(keys)), drop=True))
        with pytest.raises(ValueError, match="checkpoint artifact field '"):
            trainer.load_checkpoint(damaged)
