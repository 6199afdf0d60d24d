import io

from hypothesis import given, settings, strategies as st
import numpy as np
import pytest

from repro.text.synthetic import SyntheticCorpusSpec, generate_corpus
from repro.w2v.distributed import GraphWord2Vec
from repro.w2v.params import Word2VecParams


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

    def test_epoch_granular_blob_still_loads(self, corpus):
        """Blobs without a round cursor (the old format) decode cleanly."""
        import io

        import numpy as np

        trainer = make(corpus)
        trainer.train(until_epoch=2)
        model = trainer.canonical_model()
        buf = io.BytesIO()
        np.savez_compressed(
            buf,
            embedding=model.embedding,
            training=model.training,
            completed_epochs=np.int64(2),
            fingerprint=np.frombuffer(
                trainer._config_fingerprint().encode(), dtype=np.uint8
            ),
        )
        fresh = make(corpus)
        assert fresh.load_checkpoint(buf.getvalue()) == 2
        assert fresh._completed_rounds == 0
        straight = make(corpus).train().model
        assert fresh.train().model == straight


@pytest.fixture(scope="module")
def checkpoint(corpus):
    """A trainer and a real mid-run checkpoint of it."""
    trainer = make(corpus)
    trainer.train(until_round=trainer.sync_rounds + 1)
    return trainer, trainer.save_checkpoint()


def repacked(blob, drop=(), **values):
    """``blob`` without the keys in ``drop`` and with ``values`` set."""
    with np.load(io.BytesIO(blob)) as data:
        arrays = {key: data[key] for key in data.files if key not in drop}
    buf = io.BytesIO()
    np.savez_compressed(buf, **{**arrays, **values})
    return buf.getvalue()


def flipped(blob, bits):
    damaged = bytearray(blob)
    for bit in bits:
        damaged[bit // 8] ^= 1 << (bit % 8)
    return bytes(damaged)


class TestCheckpointBoundary:
    """Damaged or hand-made bytes end in success or a ``ValueError`` that
    names the key or says "not a checkpoint", never a library exception."""

    @pytest.mark.parametrize("damage, match", [
        (lambda b: b"", "not a checkpoint"),
        (lambda b: b[: len(b) // 2], "not a checkpoint"),
        (lambda b: flipped(b, [len(b) * 8 // 3]), "not a checkpoint"),  # CRC
        (lambda b: repacked(b, ["completed_epochs"]), "'completed_epochs' is missing"),
        (lambda b: repacked(b, completed_epochs=np.array([1, 2])), "'completed_epochs' must be a 0-D"),
        (lambda b: repacked(b, completed_epochs=np.int64(-3)), "'completed_epochs' .* got int64 -3"),
        (lambda b: repacked(b, training=np.zeros(4)), "'training' must be a 2-D float array"),
        (lambda b: repacked(b, fingerprint=np.array([0xFF], np.uint8)), "'fingerprint' is not UTF-8"),
    ], ids=["empty", "truncated", "bit-flip", "missing", "vector", "negative", "1-D", "not-utf8"])
    def test_damage_is_a_named_value_error(self, checkpoint, damage, match):
        trainer, blob = checkpoint
        with pytest.raises(ValueError, match=match):
            trainer.load_checkpoint(damage(blob))

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_truncations_flips_and_dropped_keys(self, checkpoint, data):
        trainer, blob = checkpoint
        kind = data.draw(st.sampled_from(["truncate", "flip", "drop"]))
        if kind == "truncate":
            damaged = blob[: data.draw(st.integers(0, len(blob)))]
        elif kind == "flip":
            damaged = flipped(blob, data.draw(st.lists(st.integers(0, 8 * len(blob) - 1), min_size=1, max_size=4)))
        else:
            with np.load(io.BytesIO(blob)) as arrays:
                keys = sorted(arrays.files)
            damaged = repacked(blob, data.draw(st.lists(st.sampled_from(keys), min_size=1)))
        try:
            trainer.load_checkpoint(damaged)
        except ValueError as err:
            assert "checkpoint" in str(err)
