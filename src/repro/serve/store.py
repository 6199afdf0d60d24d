"""Immutable embedding snapshots for serving.

An :class:`EmbeddingStore` is the unit a serving process loads: the float32
embedding matrix, its pre-computed row L2 norms, and the word table, frozen
read-only.  Stores are built once from a trained model, a checkpoint, or a
word2vec text file, then persisted with :meth:`EmbeddingStore.save` as one
``store`` artifact (:mod:`repro.util.artifact`: matrix, norms and words in
a single checksummed file, written atomically) so that serving never
re-parses text formats.  :meth:`EmbeddingStore.open` memory-maps that file,
so processes serving one store share its pages, and rejects a damaged or
mismatched one with a ``ValueError`` naming the field.
"""

from __future__ import annotations

from pathlib import Path
from typing import Sequence, TextIO

import numpy as np

from repro.text.vocab import Vocabulary
from repro.util import artifact
from repro.w2v.model import Word2VecModel

__all__ = ["EmbeddingStore"]


def _frozen(array: np.ndarray) -> np.ndarray:
    view = array.view()
    view.flags.writeable = False
    return view


class EmbeddingStore:
    """Read-only ``(matrix, norms, words)`` triple serving queries.

    ``matrix`` is ``(V, dim)`` float32 (row ``i`` is word ``words[i]``);
    ``norms`` is the per-row L2 norm, pre-computed so indexes never pay the
    reduction at query time.  All arrays are exposed as read-only views —
    a store is a snapshot, never a live model.
    """

    def __init__(
        self,
        matrix: np.ndarray,
        words: Sequence[str],
        norms: np.ndarray | None = None,
    ):
        matrix = np.ascontiguousarray(matrix, dtype=np.float32)
        if matrix.ndim != 2:
            raise ValueError(f"matrix must be 2-D, got shape {matrix.shape}")
        words = list(words)
        if len(words) != matrix.shape[0]:
            raise ValueError(
                f"word table has {len(words)} entries for {matrix.shape[0]} rows"
            )
        ids: dict[str, int] = {}
        for row, word in enumerate(words):
            if word in ids:
                raise ValueError(f"duplicate word {word!r} (rows {ids[word]} and {row})")
            ids[word] = row
        if norms is None:
            norms = np.linalg.norm(matrix, axis=1)
        norms = np.ascontiguousarray(norms, dtype=np.float32)
        if norms.shape != (matrix.shape[0],):
            raise ValueError(
                f"norms shape {norms.shape} does not match {matrix.shape[0]} rows"
            )
        self._matrix = _frozen(matrix)
        self._norms = _frozen(norms)
        self._words = words
        self._ids = ids
        self._normalized: np.ndarray | None = None
        self._sha256: str | None = None

    # -- construction ------------------------------------------------------
    @classmethod
    def from_model(
        cls, model: Word2VecModel | np.ndarray, vocabulary: Vocabulary
    ) -> "EmbeddingStore":
        """Snapshot a trained model's embedding layer (copies the matrix)."""
        matrix = model.embedding if isinstance(model, Word2VecModel) else np.asarray(model)
        if matrix.ndim != 2 or matrix.shape[0] != len(vocabulary):
            raise ValueError(
                f"embedding shape {matrix.shape} does not match vocabulary "
                f"size {len(vocabulary)}"
            )
        words = [vocabulary.word_of(i) for i in range(len(vocabulary))]
        return cls(np.array(matrix, dtype=np.float32), words)

    @classmethod
    def from_checkpoint(cls, blob: bytes, vocabulary: Vocabulary) -> "EmbeddingStore":
        """Snapshot the canonical embedding inside a training checkpoint."""
        return cls.from_model(artifact.read(blob, "checkpoint")[1]["embedding"], vocabulary)

    @classmethod
    def from_word2vec_text(cls, source: TextIO | str) -> "EmbeddingStore":
        """Build from a word2vec text file (one parse, then :meth:`save`)."""
        from repro.w2v.io import load_word2vec_text

        words, vectors = load_word2vec_text(source)
        return cls(vectors, words)

    # -- lookups -----------------------------------------------------------
    def __len__(self) -> int:
        return self._matrix.shape[0]

    def __contains__(self, word: str) -> bool:
        return word in self._ids

    @property
    def dim(self) -> int:
        return self._matrix.shape[1]

    @property
    def matrix(self) -> np.ndarray:
        return self._matrix

    @property
    def norms(self) -> np.ndarray:
        return self._norms

    @property
    def words(self) -> list[str]:
        return list(self._words)

    def id_of(self, word: str) -> int:
        try:
            return self._ids[word]
        except KeyError:
            raise KeyError(f"word {word!r} not in store") from None

    def word_of(self, row: int) -> str:
        if not 0 <= row < len(self._words):
            raise IndexError(f"row {row} out of range for {len(self._words)} words")
        return self._words[row]

    def vector(self, word: str) -> np.ndarray:
        """The raw embedding row for ``word`` (read-only view)."""
        return self._matrix[self.id_of(word)]

    def normalized(self) -> np.ndarray:
        """Row-normalized matrix (computed once, cached, read-only).

        Zero rows stay zero rather than dividing by zero, matching
        :meth:`repro.w2v.model.Word2VecModel.normalized_embedding`.
        """
        if self._normalized is None:
            safe = np.where(self._norms > 0, self._norms, 1.0)
            self._normalized = _frozen(
                (self._matrix / safe[:, None]).astype(np.float32)
            )
        return self._normalized

    def memory_bytes(self) -> int:
        return int(self._matrix.nbytes + self._norms.nbytes)

    def content_sha256(self) -> str:
        """The sha256 naming this store's content: its artifact's digest."""
        if self._sha256 is None:
            self._sha256 = artifact.digest("store", *self._artifact())
        return self._sha256

    # -- persistence -------------------------------------------------------
    def _artifact(self) -> tuple[dict, dict]:
        return {"words": self._words}, {"matrix": self._matrix, "norms": self._norms}

    def save(self, path: str | Path) -> Path:
        """Atomically write the store to the file ``path``; returns it."""
        self._sha256 = artifact.write(path, "store", *self._artifact())
        return Path(path)

    @classmethod
    def open(cls, path: str | Path) -> "EmbeddingStore":
        """Map a saved store read-only (arrays are views of the file's pages).

        The file is checked whole (digest, shapes, word count) before any
        row is served, so a torn or mismatched store fails loudly instead
        of serving garbage.
        """
        fields, arrays, sha = artifact.read(path, "store")
        store = cls(arrays["matrix"], fields["words"], arrays["norms"])
        store._sha256 = sha
        return store

    def __repr__(self) -> str:
        return f"EmbeddingStore(words={len(self)}, dim={self.dim})"
