from hypothesis import given, settings, strategies as st
import numpy as np
import pytest

from repro.text.vocab import Vocabulary

words = st.text(alphabet=st.characters(min_codepoint=97, max_codepoint=122), min_size=1, max_size=6)


class TestConstruction:
    def test_from_sentences_counts(self):
        vocab = Vocabulary.from_sentences([["the", "quick", "the"], ["fox"]])
        assert len(vocab) == 3
        assert vocab.counts.sum() == 4
        assert vocab.counts[vocab.id_of("the")] == 2

    def test_min_count_filters(self):
        vocab = Vocabulary.from_sentences([["a", "a", "b"]], min_count=2)
        assert "a" in vocab
        assert "b" not in vocab

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            Vocabulary({})
        with pytest.raises(ValueError):
            Vocabulary.from_sentences([["a"]], min_count=5)

    def test_nonpositive_count_rejected(self):
        with pytest.raises(ValueError):
            Vocabulary({"a": 0})


class TestHashIds:
    def test_ids_independent_of_insertion_order(self):
        v1 = Vocabulary({"fox": 1, "dog": 2, "cat": 3})
        v2 = Vocabulary({"cat": 3, "fox": 1, "dog": 2})
        for w in ("fox", "dog", "cat"):
            assert v1.id_of(w) == v2.id_of(w)

    def test_ids_independent_of_counts(self):
        # Node ids come from the shared hash function, not frequencies —
        # this is what lets hosts agree without communication.
        v1 = Vocabulary({"fox": 1, "dog": 200})
        v2 = Vocabulary({"fox": 99, "dog": 1})
        assert v1.id_of("fox") == v2.id_of("fox")

    def test_roundtrip(self):
        vocab = Vocabulary({"a": 1, "b": 2, "c": 3})
        for w in vocab:
            assert vocab.word_of(vocab.id_of(w)) == w

    def test_unknown_word(self):
        vocab = Vocabulary({"a": 1})
        with pytest.raises(KeyError):
            vocab.id_of("zzz")

    def test_bad_id(self):
        vocab = Vocabulary({"a": 1})
        with pytest.raises(IndexError):
            vocab.word_of(5)


class TestEncode:
    def test_encode_skips_unknown(self):
        vocab = Vocabulary({"a": 1, "b": 1})
        ids = vocab.encode(["a", "zzz", "b"])
        assert vocab.decode(ids) == ["a", "b"]

    def test_encode_strict(self):
        vocab = Vocabulary({"a": 1})
        with pytest.raises(KeyError):
            vocab.encode(["a", "zzz"], skip_unknown=False)


class TestStatistics:
    def test_frequency(self):
        vocab = Vocabulary({"a": 3, "b": 1})
        assert vocab.frequency("a") == pytest.approx(0.75)

    def test_counts_read_only(self):
        vocab = Vocabulary({"a": 1})
        with pytest.raises(ValueError):
            vocab.counts[0] = 5

    def test_size_on_disk(self):
        vocab = Vocabulary({"ab": 2, "c": 1})
        # "ab " twice + "c " once = 6 + 2.
        assert vocab.size_on_disk_bytes() == 2 * 3 + 1 * 2


class TestSubsampling:
    def test_rare_words_always_kept(self):
        counts = {"rare": 1, "common": 100_000}
        vocab = Vocabulary(counts)
        keep = vocab.keep_probabilities(threshold=1e-4)
        assert keep[vocab.id_of("rare")] == 1.0
        assert keep[vocab.id_of("common")] < 1.0

    def test_mikolov_formula(self):
        vocab = Vocabulary({"w": 90, "x": 10})
        t = 0.05
        keep = vocab.keep_probabilities(threshold=t)
        f = 0.9
        expected = min(1.0, np.sqrt(t / f) + t / f)
        assert keep[vocab.id_of("w")] == pytest.approx(expected)

    def test_cache_invalidated_on_threshold_change(self):
        vocab = Vocabulary({"w": 99, "x": 1})
        a = vocab.keep_probabilities(threshold=1e-3).copy()
        b = vocab.keep_probabilities(threshold=1e-1)
        assert not np.array_equal(a, b)

    def test_invalid_threshold(self):
        with pytest.raises(ValueError):
            Vocabulary({"a": 1}).keep_probabilities(threshold=0)


@settings(max_examples=30, deadline=None)
@given(st.dictionaries(words, st.integers(min_value=1, max_value=50), min_size=1, max_size=30))
def test_ids_form_a_permutation(counts):
    vocab = Vocabulary(counts)
    ids = sorted(vocab.id_of(w) for w in counts)
    assert ids == list(range(len(counts)))
