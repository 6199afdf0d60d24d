import numpy as np
import pytest

from repro.eval.analogy import evaluate_analogies
from repro.eval.similarity import most_similar
from repro.text.synthetic import (
    SEMANTIC,
    SYNTACTIC,
    AnalogyQuestion,
    AnalogyQuestionSet,
)
from repro.text.vocab import Vocabulary
from repro.w2v.model import Word2VecModel


def planted_embedding():
    """Embedding where analogies hold by construction.

    Words a0,a1 share a 'role A' direction; b0,b1 the 'role B' direction;
    pair identity lives on separate axes — the textbook parallelogram.
    """
    vocab = Vocabulary({w: 1 for w in ["a0", "b0", "a1", "b1", "x", "y"]})
    dim = 6
    emb = np.zeros((len(vocab), dim), dtype=np.float32)
    role_a = np.array([1, 0, 0, 0, 0, 0], dtype=np.float32)
    role_b = np.array([0, 1, 0, 0, 0, 0], dtype=np.float32)
    pair0 = np.array([0, 0, 1, 0, 0, 0], dtype=np.float32)
    pair1 = np.array([0, 0, 0, 1, 0, 0], dtype=np.float32)
    emb[vocab.id_of("a0")] = role_a + pair0
    emb[vocab.id_of("b0")] = role_b + pair0
    emb[vocab.id_of("a1")] = role_a + pair1
    emb[vocab.id_of("b1")] = role_b + pair1
    emb[vocab.id_of("x")] = np.array([0, 0, 0, 0, 1, 0], dtype=np.float32)
    emb[vocab.id_of("y")] = np.array([0, 0, 0, 0, 0, 1], dtype=np.float32)
    return vocab, emb


def question(a, b, c, d, family="fam", kind=SEMANTIC):
    return AnalogyQuestion(family=family, kind=kind, a=a, b=b, c=c, expected=d)


class TestEvaluateAnalogies:
    def test_perfect_parallelogram(self):
        vocab, emb = planted_embedding()
        questions = AnalogyQuestionSet(
            [
                question("a0", "b0", "a1", "b1"),
                question("a1", "b1", "a0", "b0"),
            ]
        )
        acc = evaluate_analogies(emb, vocab, questions)
        assert acc.total == 1.0
        assert acc.num_questions == 2

    def test_wrong_expectation_scores_zero(self):
        vocab, emb = planted_embedding()
        questions = AnalogyQuestionSet([question("a0", "b0", "a1", "x")])
        acc = evaluate_analogies(emb, vocab, questions)
        assert acc.total == 0.0

    def test_question_words_excluded_from_candidates(self):
        # Without exclusion, b0 itself would be the nearest to b0-a0+a1
        # in degenerate embeddings; the scorer must skip a, b, c.
        vocab, emb = planted_embedding()
        emb = emb.copy()
        questions = AnalogyQuestionSet([question("a0", "b0", "a1", "b1")])
        acc = evaluate_analogies(emb, vocab, questions)
        assert acc.total == 1.0

    def test_oov_questions_skipped(self):
        vocab, emb = planted_embedding()
        questions = AnalogyQuestionSet(
            [
                question("a0", "b0", "a1", "b1"),
                question("a0", "b0", "unknown", "b1"),
            ]
        )
        acc = evaluate_analogies(emb, vocab, questions)
        assert acc.num_questions == 1

    def test_all_oov(self):
        vocab, emb = planted_embedding()
        questions = AnalogyQuestionSet([question("zzz", "b0", "a1", "b1")])
        acc = evaluate_analogies(emb, vocab, questions)
        assert acc.num_questions == 0
        assert acc.total == 0.0

    def test_macro_average_over_categories(self):
        vocab, emb = planted_embedding()
        questions = AnalogyQuestionSet(
            [
                # Family f1 (semantic): 2 correct.
                question("a0", "b0", "a1", "b1", family="f1", kind=SEMANTIC),
                question("a1", "b1", "a0", "b0", family="f1", kind=SEMANTIC),
                # Family f2 (syntactic): 1 wrong.
                question("a0", "b0", "a1", "x", family="f2", kind=SYNTACTIC),
            ]
        )
        acc = evaluate_analogies(emb, vocab, questions)
        assert acc.semantic == 1.0
        assert acc.syntactic == 0.0
        assert acc.total == pytest.approx(0.5)  # mean over the two categories
        assert acc.micro == pytest.approx(2 / 3)
        assert acc.per_family == {"f1": 1.0, "f2": 0.0}

    def test_accepts_model_object(self):
        vocab, emb = planted_embedding()
        model = Word2VecModel(emb, np.zeros_like(emb))
        questions = AnalogyQuestionSet([question("a0", "b0", "a1", "b1")])
        assert evaluate_analogies(model, vocab, questions).total == 1.0

    def test_batching_equivalence(self):
        vocab, emb = planted_embedding()
        questions = AnalogyQuestionSet(
            [question("a0", "b0", "a1", "b1")] * 5
            + [question("b0", "a0", "b1", "a1")] * 5
        )
        a = evaluate_analogies(emb, vocab, questions, batch_size=2)
        b = evaluate_analogies(emb, vocab, questions, batch_size=512)
        assert a.total == b.total

    def test_str(self):
        vocab, emb = planted_embedding()
        acc = evaluate_analogies(
            emb, vocab, AnalogyQuestionSet([question("a0", "b0", "a1", "b1")])
        )
        assert "semantic" in str(acc)

    def test_3cosmul_on_parallelogram(self):
        vocab, emb = planted_embedding()
        questions = AnalogyQuestionSet(
            [
                question("a0", "b0", "a1", "b1"),
                question("b1", "a1", "b0", "a0"),
            ]
        )
        acc = evaluate_analogies(emb, vocab, questions, method="mul")
        assert acc.total == 1.0

    def test_unknown_method_rejected(self):
        vocab, emb = planted_embedding()
        with pytest.raises(ValueError, match="method"):
            evaluate_analogies(
                emb, vocab, AnalogyQuestionSet([question("a0", "b0", "a1", "b1")]),
                method="max",
            )

    def test_methods_can_disagree_but_both_score(self):
        rng = np.random.default_rng(0)
        vocab, emb = planted_embedding()
        noisy = emb + rng.normal(scale=0.2, size=emb.shape).astype(np.float32)
        questions = AnalogyQuestionSet(
            [question("a0", "b0", "a1", "b1")] * 4
            + [question("a1", "b1", "a0", "b0")] * 4
        )
        add = evaluate_analogies(noisy, vocab, questions, method="add")
        mul = evaluate_analogies(noisy, vocab, questions, method="mul")
        assert 0.0 <= add.total <= 1.0
        assert 0.0 <= mul.total <= 1.0


class TestSimilarity:
    def test_most_similar_orders_by_cosine(self):
        vocab, emb = planted_embedding()
        model = Word2VecModel(emb, np.zeros_like(emb))
        result = most_similar(model, vocab, "a0", topn=2)
        assert result[0][0] == "a1"  # shares the role-A axis
        assert result[0][1] >= result[1][1]

    def test_most_similar_excludes_query(self):
        vocab, emb = planted_embedding()
        model = Word2VecModel(emb, np.zeros_like(emb))
        names = [w for w, _ in most_similar(model, vocab, "a0", topn=5)]
        assert "a0" not in names

    def test_topn_capped_at_vocab(self):
        vocab, emb = planted_embedding()
        model = Word2VecModel(emb, np.zeros_like(emb))
        assert len(most_similar(model, vocab, "a0", topn=100)) == len(vocab) - 1

    def test_invalid_topn(self):
        vocab, emb = planted_embedding()
        model = Word2VecModel(emb, np.zeros_like(emb))
        with pytest.raises(ValueError):
            most_similar(model, vocab, "a0", topn=0)
