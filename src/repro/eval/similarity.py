"""Cosine-similarity queries over an embedding.

``most_similar`` used to rebuild the row-normalized matrix — an O(V·dim)
pass plus a full-matrix allocation — on *every* call.  It now routes
through the serving layer: an :class:`~repro.serve.index.ExactIndex` over
an :class:`~repro.serve.store.EmbeddingStore` snapshot, built once per
``(model, vocabulary)`` pair and cached keyed on object identity (entries
drop automatically when either object is garbage-collected).  Repeated
queries against the same model pay only the top-k search.

The snapshot means in-place mutation of ``model.embedding`` *after* a
``most_similar`` call is not observed by later calls on the same objects;
train first, query after (every call site in the repo does).
"""

from __future__ import annotations

import weakref

from repro.serve.index import ExactIndex
from repro.serve.store import EmbeddingStore
from repro.text.vocab import Vocabulary
from repro.w2v.model import Word2VecModel

__all__ = ["most_similar"]


# (id(model), id(vocabulary)) -> ExactIndex over a snapshot of the pair.
# Identity keys never outlive their objects: weakref finalizers evict the
# entry when either side is collected, so ids cannot be reused while stale.
_index_cache: dict[tuple[int, int], ExactIndex] = {}


def _cached_index(model: Word2VecModel, vocabulary: Vocabulary) -> ExactIndex:
    key = (id(model), id(vocabulary))
    index = _index_cache.get(key)
    if index is None:
        index = ExactIndex(EmbeddingStore.from_model(model, vocabulary))
        _index_cache[key] = index
        evict = _index_cache.pop
        weakref.finalize(model, evict, key, None)
        weakref.finalize(vocabulary, evict, key, None)
    return index


def most_similar(
    model: Word2VecModel,
    vocabulary: Vocabulary,
    word: str,
    topn: int = 10,
) -> list[tuple[str, float]]:
    """The ``topn`` nearest words to ``word`` by embedding cosine."""
    if topn <= 0:
        raise ValueError(f"topn must be positive, got {topn}")
    index = _cached_index(model, vocabulary)
    query_id = vocabulary.id_of(word)
    count = min(topn, len(vocabulary) - 1)
    # Ask for one extra so the query word itself can be dropped.
    ids, scores = index.search(index.store.matrix[query_id], count + 1)
    return [
        (vocabulary.word_of(int(i)), float(s))
        for i, s in zip(ids[0], scores[0])
        if int(i) != query_id
    ][:count]
