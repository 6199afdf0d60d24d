import io

from hypothesis import given, settings, strategies as st
import numpy as np
import pytest

from repro.serve.store import EmbeddingStore
from repro.text.vocab import Vocabulary
from repro.w2v.io import load_word2vec_text, save_word2vec_text
from repro.w2v.model import Word2VecModel


@pytest.fixture
def small():
    vocab = Vocabulary({"fox": 2, "dog": 1, "the": 5})
    rng = np.random.default_rng(0)
    model = Word2VecModel.initialize(3, 4, rng)
    model.embedding[:] = rng.normal(size=(3, 4)).astype(np.float32)
    return vocab, model


class TestSave:
    def test_header_and_rows(self, small):
        vocab, model = small
        buf = io.StringIO()
        save_word2vec_text(model, vocab, buf)
        lines = buf.getvalue().splitlines()
        assert lines[0] == "3 4"
        assert len(lines) == 4
        first_word = lines[1].split()[0]
        assert first_word == vocab.word_of(0)

    def test_file_path(self, small, tmp_path):
        vocab, model = small
        path = tmp_path / "vecs.txt"
        save_word2vec_text(model, vocab, str(path))
        assert path.read_text().startswith("3 4\n")

    def test_raw_matrix_accepted(self, small):
        vocab, model = small
        buf = io.StringIO()
        save_word2vec_text(model.embedding, vocab, buf)
        assert buf.getvalue().startswith("3 4\n")

    def test_size_mismatch(self, small):
        vocab, _ = small
        with pytest.raises(ValueError, match="vocabulary size"):
            save_word2vec_text(np.zeros((5, 4)), vocab, io.StringIO())

    def test_whitespace_word_rejected(self):
        vocab = Vocabulary({"bad word": 1})
        with pytest.raises(ValueError, match="whitespace"):
            save_word2vec_text(np.zeros((1, 2)), vocab, io.StringIO())


class TestRoundTrip:
    def test_save_load(self, small):
        vocab, model = small
        buf = io.StringIO()
        save_word2vec_text(model, vocab, buf, precision=9)
        buf.seek(0)
        words, vectors = load_word2vec_text(buf)
        assert words == [vocab.word_of(i) for i in range(3)]
        np.testing.assert_allclose(vectors, model.embedding, rtol=1e-6)

    def test_file_roundtrip(self, small, tmp_path):
        vocab, model = small
        path = tmp_path / "vecs.txt"
        save_word2vec_text(model, vocab, str(path), precision=9)
        words, vectors = load_word2vec_text(str(path))
        assert len(words) == 3
        np.testing.assert_allclose(vectors, model.embedding, rtol=1e-6)

    def test_unicode_words_roundtrip(self, tmp_path):
        vocab = Vocabulary({"naïve": 3, "東京": 2, "Zürich": 1})
        rng = np.random.default_rng(1)
        embedding = rng.normal(size=(3, 4)).astype(np.float32)
        path = tmp_path / "unicode.txt"
        save_word2vec_text(embedding, vocab, str(path), precision=9)
        words, vectors = load_word2vec_text(str(path))
        assert words == [vocab.word_of(i) for i in range(3)]
        np.testing.assert_allclose(vectors, embedding, rtol=1e-6)


class TestLoadValidation:
    def test_malformed_header(self):
        with pytest.raises(ValueError, match="header"):
            load_word2vec_text(io.StringIO("not a header\n"))

    def test_bad_dimensions(self):
        with pytest.raises(ValueError, match="invalid dimensions"):
            load_word2vec_text(io.StringIO("0 4\n"))

    def test_truncated(self):
        with pytest.raises(ValueError, match="truncated"):
            load_word2vec_text(io.StringIO("2 2\nw 1 2\n"))

    def test_wrong_column_count(self):
        with pytest.raises(ValueError, match="line 2"):
            load_word2vec_text(io.StringIO("1 3\nw 1 2\n"))

    def test_non_integer_header(self):
        with pytest.raises(ValueError, match="non-integer"):
            load_word2vec_text(io.StringIO("two 4\nw 1 2 3 4\n"))

    def test_duplicate_word_names_both_lines(self):
        text = "3 2\na 1 2\nb 3 4\na 5 6\n"
        with pytest.raises(ValueError, match=r"line 4: duplicate word 'a'.*line 2"):
            load_word2vec_text(io.StringIO(text))

    def test_non_numeric_component(self):
        with pytest.raises(ValueError, match="line 2: non-numeric.*'w'"):
            load_word2vec_text(io.StringIO("1 2\nw 1 oops\n"))

    def test_extra_rows_beyond_header(self):
        text = "1 2\na 1 2\nb 3 4\n"
        with pytest.raises(ValueError, match="declares 1 rows but the file has more"):
            load_word2vec_text(io.StringIO(text))

    def test_rows_after_a_blank_line_rejected(self):
        text = "1 2\na 1 2\n\nb 3 4\n"
        with pytest.raises(ValueError, match="declares 1 rows but the file has more"):
            load_word2vec_text(io.StringIO(text))

    def test_huge_header_is_not_an_allocation(self):
        with pytest.raises(ValueError, match="truncated file: expected 1000000000 rows, got 0"):
            load_word2vec_text(io.StringIO("1000000000 1000000000\n"))

    def test_word2vec_c_trailing_space_accepted(self):
        # word2vec.c writes every value as "%lf ", so each row ends " \n".
        words, vectors = load_word2vec_text(io.StringIO("2 2 \na 1 2 \nb 3 4 \n"))
        assert words == ["a", "b"]
        np.testing.assert_array_equal(vectors, [[1, 2], [3, 4]])

    def test_empty_word_rejected(self):
        with pytest.raises(ValueError, match="line 3: empty word"):
            load_word2vec_text(io.StringIO("2 2\na 1 2\n 3 4\n"))

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "NaN", "3.5e38"])
    def test_non_finite_component_rejected(self, value):
        text = f"2 2\na 1 2\nb 3 {value}\n"
        with pytest.raises(ValueError, match="line 3: .*'b' is not a finite float32"):
            load_word2vec_text(io.StringIO(text))
        with pytest.raises(ValueError, match="line 3"):
            EmbeddingStore.from_word2vec_text(io.StringIO(text))


def _valid_file(trailing: str) -> str:
    """A small well-formed file: one-character and non-ASCII words, and a
    component one edit away from float32 overflow."""
    rows = [("a", "0.5 -1.25e-05 3.4e+38"), ("b", "-2 0 1"), ("ü", "7 8.5 -0.001")]
    return "3 3" + trailing + "\n" + "".join(f"{w} {v}{trailing}\n" for w, v in rows)


#: Both dialects: this module's writer, and word2vec.c's trailing spaces.
VALID = [_valid_file(""), _valid_file(" ")]
_EDIT_CHARS = st.sampled_from(list(" \t\r\n\x00.-+eEinfa0189ü")) | st.characters()


def _parses_or_value_error(source) -> None:
    try:
        words, vectors = load_word2vec_text(source)
    except ValueError:
        return
    assert vectors.shape == (len(words), 3)
    assert all(words) and len(set(words)) == len(words)
    assert np.isfinite(vectors).all()


class TestLoadDamage:
    """Every truncation and every single-character edit of a valid file
    parses to a well-formed result or raises ``ValueError``, never another
    exception type."""

    @pytest.mark.parametrize("text", VALID, ids=["repro", "word2vec.c"])
    def test_valid_files_parse(self, text):
        words, vectors = load_word2vec_text(io.StringIO(text))
        assert words == ["a", "b", "ü"]
        assert vectors[0, 2] == np.float32(3.4e38)

    @pytest.mark.parametrize("text", VALID, ids=["repro", "word2vec.c"])
    def test_every_truncation(self, text):
        for cut in range(len(text)):
            _parses_or_value_error(io.StringIO(text[:cut]))

    @pytest.mark.parametrize("text", VALID, ids=["repro", "word2vec.c"])
    def test_every_byte_truncation_of_a_file(self, text, tmp_path):
        blob = text.encode("utf-8")
        path = tmp_path / "vectors.txt"
        for cut in range(len(blob)):
            path.write_bytes(blob[:cut])
            _parses_or_value_error(str(path))

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_single_character_edit(self, data):
        text = data.draw(st.sampled_from(VALID))
        at = data.draw(st.integers(0, len(text) - 1))
        op = data.draw(st.sampled_from(["replace", "insert", "delete"]))
        if op == "delete":
            edited = text[:at] + text[at + 1 :]
        else:
            char = data.draw(_EDIT_CHARS)
            edited = text[:at] + char + text[at + (op == "replace") :]
        _parses_or_value_error(io.StringIO(edited))
