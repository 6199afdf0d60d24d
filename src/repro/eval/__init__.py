"""Model evaluation: analogical reasoning, similarity queries, WordSim."""

from repro._exports import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "analogy": ("AnalogyAccuracy", "evaluate_analogies"),
        "similarity": ("most_similar",),
        "wordsim": ("SimilarityPair", "build_planted_similarity", "evaluate_similarity"),
    },
)
