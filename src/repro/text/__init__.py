"""Text substrate: vocabulary, corpora, sampling.

Everything Word2Vec needs below the model: streaming vocabulary
construction with hash-based node ids (paper §4.2), frequent-word
subsampling (Mikolov et al. 2013), unigram^0.75 negative sampling with an
alias table, corpus containers with per-host contiguous sharding, and the
synthetic corpus generator that substitutes for the paper's 1-billion /
news / wiki datasets (see DESIGN.md §3).
"""

from repro._exports import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "corpus": ("Corpus",),
        "negative_sampling": ("UnigramTable",),
        "synthetic": (
            "AnalogyQuestion",
            "AnalogyQuestionSet",
            "RelationFamily",
            "SyntheticCorpusSpec",
            "generate_corpus",
        ),
        "tokenize": ("simple_tokenize",),
        "vocab": ("Vocabulary",),
    },
)
