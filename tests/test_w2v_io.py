import io

from hypothesis import given, settings, strategies as st
import numpy as np
import pytest

from repro.serve.store import EmbeddingStore
from repro.w2v.io import load_word2vec_text


def word2vec_text(words, matrix) -> str:
    """``matrix`` in word2vec text format, one row per word, at round-trip
    precision (the fixture writer the loader is checked against)."""
    rows = "".join(
        f"{word} {' '.join(f'{v:.9g}' for v in row)}\n" for word, row in zip(words, matrix)
    )
    return f"{len(words)} {matrix.shape[1]}\n{rows}"


@pytest.fixture
def small():
    rng = np.random.default_rng(0)
    return ["the", "fox", "dog"], rng.normal(size=(3, 4)).astype(np.float32)


class TestRoundTrip:
    def test_save_load(self, small):
        words, matrix = small
        got_words, vectors = load_word2vec_text(io.StringIO(word2vec_text(words, matrix)))
        assert got_words == words
        np.testing.assert_array_equal(vectors, matrix)

    def test_file_roundtrip(self, small, tmp_path):
        words, matrix = small
        path = tmp_path / "vecs.txt"
        path.write_text(word2vec_text(words, matrix), encoding="utf-8")
        got_words, vectors = load_word2vec_text(str(path))
        assert got_words == words
        np.testing.assert_array_equal(vectors, matrix)

    def test_unicode_words_roundtrip(self, tmp_path):
        words = ["naïve", "東京", "Zürich"]
        matrix = np.random.default_rng(1).normal(size=(3, 4)).astype(np.float32)
        path = tmp_path / "unicode.txt"
        path.write_text(word2vec_text(words, matrix), encoding="utf-8")
        got_words, vectors = load_word2vec_text(str(path))
        assert got_words == words
        np.testing.assert_array_equal(vectors, matrix)


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


#: Both dialects: no trailing space, and word2vec.c's trailing spaces.
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
