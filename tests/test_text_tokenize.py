from hypothesis import given, strategies as st

from repro.text.corpus import Corpus
from repro.text.tokenize import simple_tokenize


class TestSimpleTokenize:
    def test_lowercase_and_split(self):
        assert simple_tokenize("The Quick, Brown FOX!") == ["the", "quick", "brown", "fox"]

    def test_apostrophes_kept(self):
        assert simple_tokenize("don't stop") == ["don't", "stop"]

    def test_numbers_kept(self):
        assert simple_tokenize("route 66 rocks") == ["route", "66", "rocks"]

    def test_empty(self):
        assert simple_tokenize("") == []
        assert simple_tokenize("!!! ...") == []

    @given(st.text(max_size=100))
    def test_never_produces_empty_tokens(self, text):
        assert all(t for t in simple_tokenize(text))


class TestCorpusFromFile:
    def test_two_pass_streaming(self, tmp_path):
        path = tmp_path / "corpus.txt"
        path.write_text("a b c\nb c\n\nc c\n")
        corpus = Corpus.from_file(path)
        assert corpus.num_sentences == 3
        assert corpus.num_tokens == 7
        assert corpus.vocabulary.counts.sum() == 7

    def test_min_count(self, tmp_path):
        path = tmp_path / "corpus.txt"
        path.write_text("common rare\ncommon\n")
        corpus = Corpus.from_file(path, min_count=2)
        assert len(corpus.vocabulary) == 1
        assert corpus.num_tokens == 2

    def test_tokenize_mode(self, tmp_path):
        path = tmp_path / "corpus.txt"
        path.write_text("Hello, WORLD!\n")
        corpus = Corpus.from_file(path, tokenize=True)
        assert "hello" in corpus.vocabulary
        assert "Hello," not in corpus.vocabulary

    def test_max_sentence_length(self, tmp_path):
        path = tmp_path / "corpus.txt"
        path.write_text(" ".join(["w"] * 10) + "\n")
        corpus = Corpus.from_file(path, max_sentence_length=4)
        assert [len(s) for s in corpus.sentences] == [4, 4, 2]

    def test_matches_from_text(self, tmp_path):
        text = "the quick brown fox\njumps over the lazy dog\n"
        path = tmp_path / "corpus.txt"
        path.write_text(text)
        a = Corpus.from_file(path)
        b = Corpus.from_text(text)
        assert a.to_text() == b.to_text()
