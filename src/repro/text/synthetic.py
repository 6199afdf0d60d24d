"""Synthetic corpora with planted analogy structure.

The paper trains on 1-billion / news / wiki (3.7–21 GB downloads) and
evaluates with the word2vec question-words analogy task.  Without network
access we substitute corpora *generated* to contain exactly the statistical
structure that task measures: relation families whose word pairs share a
consistent linear offset in any good SGNS embedding.

Generative model.  A relation family (say country–capital) has word pairs
(a_i, b_i), two role-marker word sets M_a, M_b (function-word-like contexts
that signal the role), and per-pair topic words T_i that bind a_i and b_i to
each other.  Sentences embed *phrases*

    [m_a, a_i, t_i, b_i, m_b]      m_a ∈ M_a, t_i ∈ T_i, m_b ∈ M_b

between runs of Zipf-distributed filler words.  With a symmetric window the
embedding of every a_i mixes {M_a, T_i} contexts and b_i mixes {M_b, T_i},
so b_i − a_i ≈ (direction of M_b − direction of M_a), constant within a
family — precisely what 3CosAdd analogies probe.  Syntactic families use the
same mechanics but pair a base word with a suffixed form (walk/walking) so
the evaluation's semantic/syntactic split is meaningful.

The default family roster mirrors question-words.txt's broad structure:
5 semantic + 9 syntactic categories.
"""

from __future__ import annotations

from dataclasses import dataclass
import itertools
from typing import Iterator

import numpy as np

from repro.text.corpus import Corpus
from repro.util.rng import default_rng

__all__ = [
    "RelationFamily",
    "SyntheticCorpusSpec",
    "AnalogyQuestion",
    "AnalogyQuestionSet",
    "choice_cdf",
    "choice_from_cdf",
    "default_families",
    "generate_corpus",
]

SEMANTIC = "semantic"
SYNTACTIC = "syntactic"


@dataclass(frozen=True)
class RelationFamily:
    """One analogy category: pairs (a_i, b_i) sharing a relation."""

    name: str
    kind: str  # SEMANTIC or SYNTACTIC
    pairs: tuple[tuple[str, str], ...]

    def __post_init__(self) -> None:
        if self.kind not in (SEMANTIC, SYNTACTIC):
            raise ValueError(f"kind must be semantic/syntactic, got {self.kind!r}")
        if len(self.pairs) < 2:
            raise ValueError(f"family {self.name!r} needs >= 2 pairs for analogies")
        flat = [w for pair in self.pairs for w in pair]
        if len(set(flat)) != len(flat):
            raise ValueError(f"family {self.name!r} has duplicate words")


# The 14 question-words.txt-like categories: (name, kind, a-prefix, b-suffix
# style).  Word forms are systematic ("walk03" / "walk03ing") so syntactic
# families genuinely share surface morphology.
_FAMILY_TEMPLATES: tuple[tuple[str, str, str, str], ...] = (
    ("capital-common", SEMANTIC, "country", "capital"),
    ("capital-world", SEMANTIC, "nation", "city"),
    ("currency", SEMANTIC, "land", "money"),
    ("city-in-state", SEMANTIC, "town", "state"),
    ("family", SEMANTIC, "man", "woman"),
    ("adjective-adverb", SYNTACTIC, "calm", "ly"),
    ("opposite", SYNTACTIC, "aware", "un"),
    ("comparative", SYNTACTIC, "great", "er"),
    ("superlative", SYNTACTIC, "big", "est"),
    ("present-participle", SYNTACTIC, "walk", "ing"),
    ("nationality-adjective", SYNTACTIC, "spain", "ish"),
    ("past-tense", SYNTACTIC, "dance", "ed"),
    ("plural", SYNTACTIC, "banana", "s"),
    ("plural-verbs", SYNTACTIC, "eat", "es"),
)


def default_families(pairs_per_family: int = 12) -> tuple[RelationFamily, ...]:
    """The 14-category roster with systematically generated word pairs."""
    if pairs_per_family < 2:
        raise ValueError("need at least 2 pairs per family")
    families = []
    for name, kind, stem_a, suffix in _FAMILY_TEMPLATES:
        if kind == SEMANTIC:
            pairs = tuple(
                (f"{stem_a}{i:02d}", f"{suffix}{i:02d}")
                for i in range(pairs_per_family)
            )
        else:
            pairs = tuple(
                (f"{stem_a}{i:02d}", f"{stem_a}{i:02d}{suffix}")
                for i in range(pairs_per_family)
            )
        families.append(RelationFamily(name=name, kind=kind, pairs=pairs))
    return tuple(families)


@dataclass(frozen=True)
class AnalogyQuestion:
    """a : b :: c : expected, tagged with its category."""

    family: str
    kind: str
    a: str
    b: str
    c: str
    expected: str


@dataclass
class AnalogyQuestionSet:
    """All questions, grouped on demand by family."""

    questions: list[AnalogyQuestion]

    def __len__(self) -> int:
        return len(self.questions)

    def __iter__(self) -> Iterator[AnalogyQuestion]:
        return iter(self.questions)

    def by_family(self, family: str) -> list[AnalogyQuestion]:
        return [q for q in self.questions if q.family == family]

    @property
    def families(self) -> list[str]:
        seen: dict[str, None] = {}
        for q in self.questions:
            seen.setdefault(q.family, None)
        return list(seen)


@dataclass(frozen=True)
class SyntheticCorpusSpec:
    """Knobs of the generator; presets live in repro.experiments.datasets."""

    name: str = "synthetic"
    num_tokens: int = 200_000
    pairs_per_family: int = 12
    families: tuple[RelationFamily, ...] | None = None  # default roster if None
    markers_per_role: int = 6
    topics_per_pair: int = 3
    filler_vocab: int = 1_000
    zipf_exponent: float = 1.05
    filler_run_mean: float = 2.0  # mean filler words between phrases
    phrases_per_sentence: tuple[int, int] = (1, 3)  # inclusive range
    questions_per_family: int = 40

    def resolve_families(self) -> tuple[RelationFamily, ...]:
        return self.families if self.families is not None else default_families(
            self.pairs_per_family
        )


def choice_cdf(p: np.ndarray) -> np.ndarray:
    """The table ``Generator.choice(len(p), p=p)`` builds on every call."""
    cdf = np.asarray(p, dtype=np.float64).cumsum()
    cdf /= cdf[-1]
    return cdf


def choice_from_cdf(rng: np.random.Generator, cdf: np.ndarray, n: int) -> np.ndarray:
    """``rng.choice(len(p), size=n, p=p)`` for ``cdf = choice_cdf(p)``.

    After validating ``p`` and summing it, ``Generator.choice`` draws
    exactly this: ``n`` uniforms and an inverse-CDF lookup.  So the values
    and the stream's position are the same, without the per-call
    validation and ``cumsum`` (most of a corpus build's time, since a
    corpus makes one draw per filler run).
    """
    return cdf.searchsorted(rng.random(n), side="right")


def _marker_words(family: RelationFamily, role: str, count: int) -> list[str]:
    return [f"{family.name}.{role}{j}" for j in range(count)]


def _topic_words(family: RelationFamily, pair_index: int, count: int) -> list[str]:
    return [f"{family.name}.t{pair_index}.{j}" for j in range(count)]


def generate_corpus(
    spec: SyntheticCorpusSpec,
    seed: int | None = None,
) -> tuple[Corpus, AnalogyQuestionSet]:
    """Generate (corpus, analogy questions) for ``spec``; deterministic in seed."""
    rng = default_rng(seed)
    families = spec.resolve_families()
    if spec.num_tokens <= 0:
        raise ValueError("num_tokens must be positive")

    markers_a = {f.name: _marker_words(f, "ma", spec.markers_per_role) for f in families}
    markers_b = {f.name: _marker_words(f, "mb", spec.markers_per_role) for f in families}
    topics = {
        (f.name, i): _topic_words(f, i, spec.topics_per_pair)
        for f in families
        for i in range(len(f.pairs))
    }
    fillers = [f"w{k}" for k in range(spec.filler_vocab)]
    ranks = np.arange(1, spec.filler_vocab + 1, dtype=np.float64)
    filler_p = ranks ** (-spec.zipf_exponent)
    filler_p /= filler_p.sum()
    filler_cdf = choice_cdf(filler_p)

    def draw_fillers(n: int) -> list[str]:
        return [fillers[i] for i in choice_from_cdf(rng, filler_cdf, n)]

    lo, hi = spec.phrases_per_sentence
    if lo < 1 or hi < lo:
        raise ValueError(f"bad phrases_per_sentence range {spec.phrases_per_sentence}")

    sentences: list[list[str]] = []
    tokens = 0
    while tokens < spec.num_tokens:
        fam = families[int(rng.integers(len(families)))]
        n_phrases = int(rng.integers(lo, hi + 1))
        sentence: list[str] = []
        sentence.extend(draw_fillers(int(rng.poisson(spec.filler_run_mean))))
        for _ in range(n_phrases):
            i = int(rng.integers(len(fam.pairs)))
            a, b = fam.pairs[i]
            phrase = [
                markers_a[fam.name][int(rng.integers(spec.markers_per_role))],
                a,
                topics[(fam.name, i)][int(rng.integers(spec.topics_per_pair))],
                b,
                markers_b[fam.name][int(rng.integers(spec.markers_per_role))],
            ]
            sentence.extend(phrase)
            sentence.extend(draw_fillers(int(rng.poisson(spec.filler_run_mean))))
        sentences.append(sentence)
        tokens += len(sentence)

    corpus = Corpus.from_token_sentences(sentences)

    questions: list[AnalogyQuestion] = []
    for fam in families:
        all_ordered = list(itertools.permutations(range(len(fam.pairs)), 2))
        if len(all_ordered) > spec.questions_per_family:
            chosen = rng.choice(len(all_ordered), size=spec.questions_per_family, replace=False)
            selected = [all_ordered[int(c)] for c in chosen]
        else:
            selected = all_ordered
        for i, j in selected:
            a_i, b_i = fam.pairs[i]
            a_j, b_j = fam.pairs[j]
            questions.append(
                AnalogyQuestion(
                    family=fam.name, kind=fam.kind, a=a_i, b=b_i, c=a_j, expected=b_j
                )
            )
    return corpus, AnalogyQuestionSet(questions)
