"""Comparator systems the paper evaluates against or argues about.

- :mod:`repro.baselines.sgns_reference` — the shared-memory state of the
  art: a word2vec.c-style trainer ("W2V", strict per-center-word SGD) and a
  gensim-style trainer ("GEM", epoch-materialized pairs in large batches,
  which is also why gensim runs out of memory on the paper's wiki corpus).
- :mod:`repro.baselines.vertical` — Ordentlich et al.'s column-partitioned
  ("vertical") distributed Word2Vec (§6 related work).
"""

from repro._exports import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "sgns_reference": (
            "GensimStyleWord2Vec",
            "MemoryBudgetExceeded",
            "Word2VecCReference",
        ),
        "vertical": ("VerticalPartitionWord2Vec",),
    },
)
