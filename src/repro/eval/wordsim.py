"""Word-similarity evaluation (WordSim-353-style) on planted structure.

Analogies test linear offsets; similarity benchmarks test raw proximity.
Real corpora use human-rated pairs (WordSim-353, SimLex); the synthetic
corpora let us *derive* gold similarities from the generator's structure:

- 3: the two words of one planted pair (country07, capital07),
- 2: same-role words of the same family (country07, country03),
- 1: words from the same family, different role and pair,
- 0: words from different families.

The metric is the Spearman rank correlation between gold scores and
embedding cosines — the standard reporting for similarity benchmarks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.text.synthetic import RelationFamily
from repro.text.vocab import Vocabulary
from repro.w2v.model import Word2VecModel

__all__ = [
    "SimilarityPair",
    "build_planted_similarity",
    "evaluate_similarity",
]


@dataclass(frozen=True)
class SimilarityPair:
    word_a: str
    word_b: str
    gold: float


def build_planted_similarity(
    families: tuple[RelationFamily, ...],
    pairs_per_level: int = 30,
    seed: int = 0,
) -> list[SimilarityPair]:
    """Derive a gold similarity set from the planted relation families."""
    if not families:
        raise ValueError("need at least one family")
    rng = np.random.default_rng(seed)
    out: list[SimilarityPair] = []

    def sample_family():
        return families[int(rng.integers(len(families)))]

    for _ in range(pairs_per_level):
        # Level 3: within one planted pair.
        fam = sample_family()
        a, b = fam.pairs[int(rng.integers(len(fam.pairs)))]
        out.append(SimilarityPair(a, b, 3.0))
        # Level 2: same family, same role.
        fam = sample_family()
        i, j = rng.choice(len(fam.pairs), size=2, replace=False)
        role = int(rng.integers(2))
        out.append(SimilarityPair(fam.pairs[i][role], fam.pairs[j][role], 2.0))
        # Level 1: same family, different role, different pair.
        fam = sample_family()
        i, j = rng.choice(len(fam.pairs), size=2, replace=False)
        out.append(SimilarityPair(fam.pairs[i][0], fam.pairs[j][1], 1.0))
        # Level 0: different families.
        fam_a = sample_family()
        fam_b = sample_family()
        while fam_b.name == fam_a.name and len(families) > 1:
            fam_b = sample_family()
        wa = fam_a.pairs[int(rng.integers(len(fam_a.pairs)))][int(rng.integers(2))]
        wb = fam_b.pairs[int(rng.integers(len(fam_b.pairs)))][int(rng.integers(2))]
        if wa != wb:
            out.append(SimilarityPair(wa, wb, 0.0))
    return out


def evaluate_similarity(
    model: Word2VecModel | np.ndarray,
    vocabulary: Vocabulary,
    pairs: list[SimilarityPair],
) -> float:
    """Spearman ρ between gold scores and embedding cosines.

    Out-of-vocabulary pairs are skipped; fewer than three usable pairs is
    an error (the correlation would be meaningless).
    """
    if isinstance(model, Word2VecModel):
        embedding = model.normalized_embedding()
    else:
        embedding = np.asarray(model, dtype=np.float64)
        norms = np.linalg.norm(embedding, axis=1, keepdims=True)
        embedding = embedding / np.where(norms > 0, norms, 1.0)
    gold, cos = [], []
    for pair in pairs:
        if pair.word_a in vocabulary and pair.word_b in vocabulary:
            va = embedding[vocabulary.id_of(pair.word_a)]
            vb = embedding[vocabulary.id_of(pair.word_b)]
            gold.append(pair.gold)
            cos.append(float(va @ vb))
    if len(gold) < 3:
        raise ValueError(f"only {len(gold)} usable pairs; need >= 3")
    # scipy.stats costs 0.4 s to import; only this call needs it.
    from scipy.stats import spearmanr

    rho, _p = spearmanr(gold, cos)
    return float(rho)
