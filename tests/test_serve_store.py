"""EmbeddingStore: construction, lookups, and save/open round-trips."""

import io

import numpy as np
import pytest

from repro.serve.store import EmbeddingStore
from repro.text.vocab import Vocabulary
from repro.util import artifact
from repro.util.rng import default_rng
from repro.w2v.io import save_word2vec_text
from repro.w2v.model import Word2VecModel

from tests.test_artifact import SMALL, reseal


@pytest.fixture
def store():
    rng = default_rng(1)
    matrix = rng.normal(size=(6, 4)).astype(np.float32)
    return EmbeddingStore(matrix, [f"w{i}" for i in range(6)])


class TestConstruction:
    def test_shapes_and_lookups(self, store):
        assert len(store) == 6
        assert store.dim == 4
        assert store.word_of(store.id_of("w3")) == "w3"
        assert "w0" in store and "nope" not in store
        np.testing.assert_array_equal(store.vector("w2"), store.matrix[store.id_of("w2")])

    def test_norms_precomputed(self, store):
        np.testing.assert_allclose(
            store.norms, np.linalg.norm(store.matrix, axis=1), rtol=1e-6
        )

    def test_arrays_read_only(self, store):
        with pytest.raises(ValueError):
            store.matrix[0, 0] = 1.0
        with pytest.raises(ValueError):
            store.normalized()[0, 0] = 1.0

    def test_duplicate_words_rejected(self):
        with pytest.raises(ValueError, match="duplicate word"):
            EmbeddingStore(np.zeros((2, 3), dtype=np.float32), ["a", "a"])

    def test_word_count_mismatch(self):
        with pytest.raises(ValueError, match="word table"):
            EmbeddingStore(np.zeros((2, 3), dtype=np.float32), ["a"])

    def test_bad_norms_shape(self):
        with pytest.raises(ValueError, match="norms shape"):
            EmbeddingStore(
                np.zeros((2, 3), dtype=np.float32), ["a", "b"], norms=np.zeros(3)
            )

    def test_normalized_zero_row_stays_zero(self):
        matrix = np.array([[0, 0], [3, 4]], dtype=np.float32)
        store = EmbeddingStore(matrix, ["zero", "v"])
        normalized = store.normalized()
        np.testing.assert_array_equal(normalized[0], [0, 0])
        np.testing.assert_allclose(np.linalg.norm(normalized[1]), 1.0, rtol=1e-6)

    def test_unknown_word(self, store):
        with pytest.raises(KeyError, match="not in store"):
            store.id_of("missing")
        with pytest.raises(IndexError):
            store.word_of(99)


class TestSources:
    def test_from_model_matches_vocab_order(self):
        vocab = Vocabulary({"fox": 2, "dog": 1, "the": 5})
        model = Word2VecModel.initialize(3, 4, default_rng(0))
        store = EmbeddingStore.from_model(model, vocab)
        for i in range(3):
            assert store.word_of(i) == vocab.word_of(i)
        np.testing.assert_array_equal(store.matrix, model.embedding)

    def test_from_model_snapshot_is_a_copy(self):
        vocab = Vocabulary({"a": 1, "b": 1})
        model = Word2VecModel.initialize(2, 4, default_rng(0))
        store = EmbeddingStore.from_model(model, vocab)
        before = store.matrix.copy()
        model.embedding[:] = 7.0
        np.testing.assert_array_equal(store.matrix, before)

    def test_from_model_size_mismatch(self):
        vocab = Vocabulary({"a": 1, "b": 1})
        with pytest.raises(ValueError, match="vocabulary"):
            EmbeddingStore.from_model(np.zeros((3, 4), dtype=np.float32), vocab)

    def test_from_word2vec_text(self):
        vocab = Vocabulary({"naïve": 1, "café": 2})
        model = Word2VecModel.initialize(2, 3, default_rng(0))
        buf = io.StringIO()
        save_word2vec_text(model, vocab, buf, precision=9)
        buf.seek(0)
        store = EmbeddingStore.from_word2vec_text(buf)
        assert set(store.words) == {"naïve", "café"}
        np.testing.assert_allclose(
            store.vector(vocab.word_of(0)), model.embedding[0], rtol=1e-6
        )

    def test_from_checkpoint(self):
        vocab = Vocabulary({"a": 1, "b": 1})
        model = Word2VecModel.initialize(2, 4, default_rng(3))
        blob = artifact.encode(
            "checkpoint", SMALL["checkpoint"][0],
            {"embedding": model.embedding, "training": model.training},
        )
        store = EmbeddingStore.from_checkpoint(blob, vocab)
        np.testing.assert_array_equal(store.matrix, model.embedding)


class TestPersistence:
    # The ids name the two layouts stores were once saved in; each case
    # round-trips a store whose arrays come the way that layout gave them:
    # in memory ("npz" was loaded whole) or mapped from a file ("raw").
    @pytest.mark.parametrize("source", ["npz", "raw"])
    def test_round_trip(self, store, tmp_path, source):
        if source == "raw":
            store = EmbeddingStore.open(store.save(tmp_path / "mapped"))
        path = store.save(tmp_path / "s")
        reopened = EmbeddingStore.open(path)
        assert reopened.words == store.words
        np.testing.assert_array_equal(reopened.matrix, store.matrix)
        np.testing.assert_array_equal(reopened.norms, store.norms)
        fresh = EmbeddingStore(store.matrix, store.words)
        assert reopened.content_sha256() == store.content_sha256() == fresh.content_sha256()

    def test_raw_mmap_round_trip(self, store, tmp_path):
        path = store.save(tmp_path / "s")
        reopened = EmbeddingStore.open(path)
        # No copy: the matrix view's buffer chain bottoms out at the memmap.
        base = reopened.matrix
        while base is not None and not isinstance(base, np.memmap):
            base = base.base
        assert isinstance(base, np.memmap)
        np.testing.assert_array_equal(np.asarray(reopened.matrix), store.matrix)

    def test_unicode_words_survive(self, tmp_path):
        matrix = default_rng(2).normal(size=(2, 3)).astype(np.float32)
        store = EmbeddingStore(matrix, ["naïve", "東京"])
        reopened = EmbeddingStore.open(store.save(tmp_path / "s"))
        assert reopened.words == ["naïve", "東京"]

    def test_missing_meta(self, tmp_path):
        """No store file at the path: the OS error, not a ValueError."""
        with pytest.raises(FileNotFoundError):
            EmbeddingStore.open(tmp_path / "absent")

    def test_truncated_raw_rejected(self, store, tmp_path):
        path = store.save(tmp_path / "s")
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(ValueError, match="store artifact field 'sha256'"):
            EmbeddingStore.open(path)

    def craft(self, tmp_path, words, matrix, norms):
        """A well-sealed store artifact whose parts disagree."""
        path = tmp_path / "s"
        path.write_bytes(
            artifact.encode("store", {"words": words}, {"matrix": matrix, "norms": norms})
        )
        return path

    def test_truncated_matrix_error_names_meta_fields(self, store, tmp_path):
        path = self.craft(tmp_path, store.words, store.matrix[:-1], store.norms[:-1])
        with pytest.raises(ValueError, match=r"'fields\.words' has length 6 where V is 5"):
            EmbeddingStore.open(path)

    def test_truncated_norms_error_names_meta_field(self, store, tmp_path):
        path = self.craft(tmp_path, store.words, store.matrix, store.norms[:-1])
        with pytest.raises(ValueError, match=r"'arrays\.norms\.shape' has length 5 where V is 6"):
            EmbeddingStore.open(path)

    def test_oversized_norms_rejected_up_front(self, store, tmp_path):
        path = self.craft(tmp_path, store.words, store.matrix, np.append(store.norms, 1.0))
        with pytest.raises(ValueError, match=r"'arrays\.norms\.shape' has length 7 where V is 6"):
            EmbeddingStore.open(path)
        path = store.save(path)
        path.write_bytes(path.read_bytes() + b"\x00\x00\x00\x00")
        with pytest.raises(ValueError, match="'sha256'"):
            EmbeddingStore.open(path)

    def test_meta_word_count_mismatch(self, store, tmp_path):
        path = store.save(tmp_path / "s")

        def drop_last_word(header):
            header["fields"]["words"].pop()

        path.write_bytes(reseal(path.read_bytes(), drop_last_word))
        with pytest.raises(ValueError, match=r"'fields\.words' has length 5 where V is 6"):
            EmbeddingStore.open(path)

    def test_bad_format_version(self, store, tmp_path):
        path = store.save(tmp_path / "s")
        path.write_bytes(reseal(path.read_bytes(), version=99))
        with pytest.raises(ValueError, match="'version' is 99"):
            EmbeddingStore.open(path)

    def test_save_replaces_without_touching_an_open_store(self, store, tmp_path):
        """The writer never writes in place, so a mapped store keeps its rows."""
        path = store.save(tmp_path / "s")
        live = EmbeddingStore.open(path)
        EmbeddingStore(store.matrix * 2, store.words).save(path)
        np.testing.assert_array_equal(live.matrix, store.matrix)
        np.testing.assert_array_equal(EmbeddingStore.open(path).matrix, store.matrix * 2)
