import pytest

from repro.text.synthetic import (
    SEMANTIC,
    SYNTACTIC,
    RelationFamily,
    SyntheticCorpusSpec,
    default_families,
    generate_corpus,
)


def small_spec(**overrides):
    defaults = dict(
        num_tokens=5000,
        pairs_per_family=4,
        filler_vocab=100,
        questions_per_family=6,
    )
    defaults.update(overrides)
    return SyntheticCorpusSpec(**defaults)


class TestRelationFamily:
    def test_kind_validated(self):
        with pytest.raises(ValueError):
            RelationFamily("x", "magic", (("a", "b"), ("c", "d")))

    def test_needs_two_pairs(self):
        with pytest.raises(ValueError):
            RelationFamily("x", SEMANTIC, (("a", "b"),))

    def test_duplicate_words_rejected(self):
        with pytest.raises(ValueError):
            RelationFamily("x", SEMANTIC, (("a", "b"), ("a", "c")))


class TestDefaultFamilies:
    def test_fourteen_categories(self):
        fams = default_families(4)
        assert len(fams) == 14
        kinds = [f.kind for f in fams]
        assert kinds.count(SEMANTIC) == 5
        assert kinds.count(SYNTACTIC) == 9

    def test_syntactic_shares_morphology(self):
        fams = {f.name: f for f in default_families(3)}
        a, b = fams["present-participle"].pairs[0]
        assert b.startswith(a) or a in b

    def test_pair_count(self):
        assert all(len(f.pairs) == 7 for f in default_families(7))

    def test_too_few_pairs(self):
        with pytest.raises(ValueError):
            default_families(1)


class TestGenerateCorpus:
    def test_deterministic(self):
        c1, q1 = generate_corpus(small_spec(), seed=5)
        c2, q2 = generate_corpus(small_spec(), seed=5)
        assert c1.to_text() == c2.to_text()
        assert [q.expected for q in q1] == [q.expected for q in q2]

    def test_seed_changes_output(self):
        c1, _ = generate_corpus(small_spec(), seed=1)
        c2, _ = generate_corpus(small_spec(), seed=2)
        assert c1.to_text() != c2.to_text()

    def test_token_budget_respected(self):
        corpus, _ = generate_corpus(small_spec(num_tokens=3000), seed=0)
        # Budget is a floor; overshoot bounded by one sentence.
        assert 3000 <= corpus.num_tokens < 3200

    def test_all_planted_words_present(self):
        spec = small_spec(num_tokens=20_000)
        corpus, questions = generate_corpus(spec, seed=0)
        vocab = corpus.vocabulary
        for q in questions:
            for w in (q.a, q.b, q.c, q.expected):
                assert w in vocab, w

    def test_questions_within_family(self):
        _, questions = generate_corpus(small_spec(), seed=0)
        fams = {f.name: f for f in default_families(4)}
        for q in questions:
            fam = fams[q.family]
            assert (q.a, q.b) in fam.pairs
            assert (q.c, q.expected) in fam.pairs
            assert (q.a, q.b) != (q.c, q.expected)

    def test_question_cap(self):
        _, questions = generate_corpus(small_spec(questions_per_family=3), seed=0)
        for fam in questions.families:
            assert len(questions.by_family(fam)) <= 3

    def test_kind_split(self):
        _, questions = generate_corpus(small_spec(), seed=0)
        assert {q.kind for q in questions} == {SEMANTIC, SYNTACTIC}

    def test_invalid_budget(self):
        with pytest.raises(ValueError):
            generate_corpus(small_spec(num_tokens=0), seed=0)

    def test_invalid_phrase_range(self):
        with pytest.raises(ValueError):
            generate_corpus(small_spec(phrases_per_sentence=(2, 1)), seed=0)

    def test_zipf_filler_frequencies_decay(self):
        corpus, _ = generate_corpus(small_spec(num_tokens=30_000), seed=0)
        vocab = corpus.vocabulary
        f0 = vocab.counts[vocab.id_of("w0")]
        f50 = vocab.counts[vocab.id_of("w50")] if "w50" in vocab else 0
        assert f0 > f50

    def test_phrase_structure_binds_pairs(self):
        # a_i and b_i co-occur within the same sentence far more often than
        # a_i with b_j (the binding the analogy task depends on).
        spec = small_spec(num_tokens=30_000)
        corpus, _ = generate_corpus(spec, seed=0)
        vocab = corpus.vocabulary
        fams = default_families(spec.pairs_per_family)
        fam = fams[0]
        (a0, b0), (_a1, b1) = fam.pairs[0], fam.pairs[1]
        same = cross = 0
        ids = {w: vocab.id_of(w) for w in (a0, b0, b1)}
        for sentence in corpus.sentences:
            s = set(sentence.tolist())
            if ids[a0] in s:
                same += ids[b0] in s
                cross += ids[b1] in s
        assert same > 2 * max(cross, 1)
