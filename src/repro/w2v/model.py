"""The Word2Vec model: two label vectors per vocabulary node (Figure 1).

Each node carries an *embedding* vector (first/hidden layer, word2vec.c's
``syn0``) and a *training* vector (second/output layer, ``syn1neg``).
Initialization follows word2vec.c: embeddings uniform in
``[-0.5/dim, 0.5/dim)``, training vectors zero.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.util import artifact

__all__ = ["Word2VecModel"]


@dataclass
class Word2VecModel:
    """Dense float32 model; rows indexed by vocabulary node id."""

    embedding: np.ndarray  # (V, dim) float32
    training: np.ndarray  # (V, dim) float32

    def __post_init__(self) -> None:
        self.embedding = np.ascontiguousarray(self.embedding, dtype=np.float32)
        self.training = np.ascontiguousarray(self.training, dtype=np.float32)
        if (
            self.embedding.ndim != 2
            or self.training.ndim != 2
            or self.embedding.shape[1] != self.training.shape[1]
        ):
            # Row counts may differ (hierarchical softmax trains one vector
            # per Huffman inner node, V-1 rows), but dimensions must match.
            raise ValueError(
                f"embedding {self.embedding.shape} and training "
                f"{self.training.shape} must be 2-D with equal dim"
            )

    @classmethod
    def initialize(
        cls,
        vocab_size: int,
        dim: int,
        rng: np.random.Generator,
        output_rows: int | None = None,
    ) -> "Word2VecModel":
        """word2vec.c initialization; ``output_rows`` defaults to the vocab
        size (negative sampling) and is ``V-1`` for hierarchical softmax."""
        if vocab_size <= 0 or dim <= 0:
            raise ValueError(f"bad model shape ({vocab_size}, {dim})")
        rows = vocab_size if output_rows is None else int(output_rows)
        if rows <= 0:
            raise ValueError(f"output_rows must be positive, got {rows}")
        embedding = (
            (rng.random((vocab_size, dim), dtype=np.float32) - 0.5) / dim
        ).astype(np.float32)
        training = np.zeros((rows, dim), dtype=np.float32)
        return cls(embedding, training)

    # -- geometry ------------------------------------------------------------
    @property
    def vocab_size(self) -> int:
        return self.embedding.shape[0]

    @property
    def dim(self) -> int:
        return self.embedding.shape[1]

    def normalized_embedding(self) -> np.ndarray:
        """Row-normalized embeddings (for cosine-based evaluation)."""
        norms = np.linalg.norm(self.embedding, axis=1, keepdims=True)
        safe = np.where(norms > 0, norms, 1.0)
        return self.embedding / safe

    def copy(self) -> "Word2VecModel":
        return Word2VecModel(self.embedding.copy(), self.training.copy())

    def memory_bytes(self) -> int:
        return int(self.embedding.nbytes + self.training.nbytes)

    # -- persistence -----------------------------------------------------------
    def to_bytes(self) -> bytes:
        """This model as a ``model`` artifact (:mod:`repro.util.artifact`)."""
        return artifact.encode(
            "model", {}, {"embedding": self.embedding, "training": self.training}
        )

    @classmethod
    def from_bytes(cls, blob: bytes) -> "Word2VecModel":
        """Decode :meth:`to_bytes` output into read-only views of ``blob``.

        Damaged or foreign bytes raise a ``ValueError`` naming the field.
        """
        arrays = artifact.read(blob, "model")[1]
        return cls(arrays["embedding"], arrays["training"])

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Word2VecModel):
            return NotImplemented
        return bool(
            np.array_equal(self.embedding, other.embedding)
            and np.array_equal(self.training, other.training)
        )
