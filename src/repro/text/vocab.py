"""Vocabulary construction (paper §4.2).

All hosts stream the corpus once to find unique words and their frequencies.
Words map to node ids through a hash function that is identical on every
host (we use FNV-1a, with ties broken by the word itself), so hosts agree on
the graph's node numbering without communicating.  The vocabulary also
precomputes the Mikolov frequent-word subsampling keep-probabilities:

    p_keep(w) = (sqrt(f/t) + 1) * t / f      for f = freq(w)/total > t

with threshold ``t`` (1e-4 in the paper's configuration).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from repro.util.rng import hash64

__all__ = ["Vocabulary"]


@dataclass(frozen=True)
class _VocabEntry:
    word: str
    count: int
    node_id: int


class Vocabulary:
    """Immutable word <-> node-id mapping with counts and subsampling.

    Node ids are assigned by ascending ``(fnv1a(word), word)`` — a pure
    function of the word set, independent of insertion or corpus order, so
    every host derives the same ids (the paper's shared hash function).
    """

    def __init__(self, counts: Mapping[str, int]):
        if not counts:
            raise ValueError("empty vocabulary")
        for word, count in counts.items():
            if count <= 0:
                raise ValueError(f"non-positive count for {word!r}: {count}")
        ordered = sorted(counts, key=lambda w: (hash64(w), w))
        self._words: list[str] = ordered
        self._ids: dict[str, int] = {w: i for i, w in enumerate(ordered)}
        self._counts = np.array([counts[w] for w in ordered], dtype=np.int64)
        self._total = int(self._counts.sum())
        self._keep_prob: np.ndarray | None = None
        self._keep_threshold: float | None = None

    # -- construction -----------------------------------------------------
    @classmethod
    def from_sentences(
        cls,
        sentences: Iterable[Sequence[str]],
        min_count: int = 1,
    ) -> "Vocabulary":
        """One streaming pass over tokenized sentences; drops rare words."""
        counts: dict[str, int] = {}
        for sentence in sentences:
            for token in sentence:
                counts[token] = counts.get(token, 0) + 1
        if min_count > 1:
            counts = {w: c for w, c in counts.items() if c >= min_count}
        if not counts:
            raise ValueError(f"no words survive min_count={min_count}")
        return cls(counts)

    # -- lookups ------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._words)

    def __contains__(self, word: str) -> bool:
        return word in self._ids

    def __iter__(self) -> Iterator[str]:
        return iter(self._words)

    def id_of(self, word: str) -> int:
        try:
            return self._ids[word]
        except KeyError:
            raise KeyError(f"word {word!r} not in vocabulary") from None

    def word_of(self, node_id: int) -> str:
        if not 0 <= node_id < len(self._words):
            raise IndexError(f"node id {node_id} out of range")
        return self._words[node_id]

    def encode(self, tokens: Sequence[str], skip_unknown: bool = True) -> np.ndarray:
        """Token strings -> node-id array; unknown words skipped or raised."""
        if skip_unknown:
            ids = [self._ids[t] for t in tokens if t in self._ids]
        else:
            ids = [self.id_of(t) for t in tokens]
        return np.array(ids, dtype=np.int64)

    def decode(self, ids: Sequence[int] | np.ndarray) -> list[str]:
        return [self.word_of(int(i)) for i in ids]

    # -- statistics -----------------------------------------------------------
    @property
    def counts(self) -> np.ndarray:
        """Occurrence count per node id (read-only view)."""
        view = self._counts.view()
        view.flags.writeable = False
        return view

    def frequency(self, word: str) -> float:
        return float(self._counts[self.id_of(word)]) / self._total

    def size_on_disk_bytes(self) -> int:
        """Approximate corpus size: per occurrence, word chars + separator."""
        lengths = np.array([len(w) + 1 for w in self._words], dtype=np.int64)
        return int((lengths * self._counts).sum())

    # -- subsampling --------------------------------------------------------
    def keep_probabilities(self, threshold: float = 1e-4) -> np.ndarray:
        """Mikolov subsampling keep-probability per node id, clipped to 1."""
        if threshold <= 0:
            raise ValueError(f"threshold must be positive, got {threshold}")
        if self._keep_prob is None or self._keep_threshold != threshold:
            freq = self._counts / self._total
            ratio = threshold / freq
            prob = np.sqrt(ratio) + ratio
            self._keep_prob = np.minimum(prob, 1.0)
            self._keep_threshold = threshold
        return self._keep_prob

    def __repr__(self) -> str:
        return f"Vocabulary(words={len(self)}, total={self._total})"
