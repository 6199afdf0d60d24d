"""Continuous Bag-of-Words training (Mikolov et al. 2013; paper §2.1).

CBOW predicts the center word from the *mean* of its context embeddings:
for center ``c`` with context set ``C``, ``h = mean_{x∈C} e_x`` is trained
against the center (plus negatives, or the center's Huffman path under
hierarchical softmax), and the input-side gradient flows back to every
context row — word2vec.c's ``neu1``/``neu1e`` scheme, batched.

The batch is a ragged structure: all context rows concatenated with a
segment id per row mapping it to its example.  It is built from Skip-Gram's
(center, neighbour) pairs — the same draws in the same order — regrouped by
center, so both architectures consume a chunk's random stream identically.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import expit

from repro.text.negative_sampling import UnigramTable
from repro.w2v.hs import hs_update
from repro.w2v.huffman import HuffmanTree
from repro.w2v.scatter import scatter_sub, sparse_update
from repro.w2v.sgd import _window_pairs, sample_negatives

__all__ = ["CbowBatch", "build_cbow_batch", "cbow_ns_update", "cbow_hs_update"]

_MIN_PROB = 1e-10


@dataclass
class CbowBatch:
    """CBOW examples: one center word per segment of context rows."""

    centers: np.ndarray  # (B,)
    context_rows: np.ndarray  # (T,) word ids, all contexts concatenated
    context_segments: np.ndarray  # (T,) example index per context row
    context_counts: np.ndarray  # (B,) contexts per example (>= 1)
    negatives: np.ndarray  # (B, k)
    negative_mask: np.ndarray  # (B, k) bool

    def __post_init__(self) -> None:
        B = len(self.centers)
        if self.context_counts.shape != (B,):
            raise ValueError("context_counts length mismatch")
        if self.context_rows.shape != self.context_segments.shape:
            raise ValueError("context rows/segments mismatch")
        if int(self.context_counts.sum()) != len(self.context_rows):
            raise ValueError("context_counts do not sum to row count")
        if (self.context_counts < 1).any():
            raise ValueError("every CBOW example needs at least one context")
        if self.negatives.shape[0] != B:
            raise ValueError("negatives batch mismatch")

    def __len__(self) -> int:
        return len(self.centers)

    def slice(self, start: int, stop: int) -> "CbowBatch":
        row_mask = (self.context_segments >= start) & (self.context_segments < stop)
        return CbowBatch(
            centers=self.centers[start:stop],
            context_rows=self.context_rows[row_mask],
            context_segments=self.context_segments[row_mask] - start,
            context_counts=self.context_counts[start:stop],
            negatives=self.negatives[start:stop],
            negative_mask=self.negative_mask[start:stop],
        )


def build_cbow_batch(
    sentences: list[np.ndarray],
    *,
    window: int,
    keep_prob: np.ndarray,
    table: UnigramTable | None,
    num_negatives: int,
    rng: np.random.Generator,
) -> CbowBatch:
    """Subsample + window the sentences into a CBOW batch.

    The draws and pairs are Skip-Gram's (:func:`repro.w2v.sgd._window_pairs`),
    regrouped by center: examples in ascending token position, each with its
    contexts in position order (left, then right).  ``table`` may be
    ``None`` when training with hierarchical softmax (the negatives arrays
    are then empty).
    """
    kept, centers, contexts = _window_pairs(sentences, window, keep_prob, rng)
    order = np.lexsort((contexts, centers))
    centers, rows_arr = centers[order], kept[contexts[order]]
    starts = np.flatnonzero(np.diff(centers, prepend=-1))
    centers_arr = kept[centers[starts]]
    counts_arr = np.diff(starts, append=len(centers))
    segments = np.repeat(np.arange(len(starts)), counts_arr)
    if table is not None and num_negatives > 0:
        negatives, mask = sample_negatives(table, centers_arr, num_negatives, rng)
    else:
        negatives = np.empty((len(centers_arr), 0), dtype=np.int64)
        mask = np.empty((len(centers_arr), 0), dtype=bool)
    return CbowBatch(
        centers=centers_arr,
        context_rows=rows_arr,
        context_segments=segments,
        context_counts=counts_arr,
        negatives=negatives,
        negative_mask=mask,
    )


def _context_means(embedding: np.ndarray, batch: CbowBatch) -> np.ndarray:
    """Per-example mean of context embeddings (word2vec.c's neu1)."""
    B, D = len(batch), embedding.shape[1]
    h = np.zeros((B, D), dtype=np.float64)
    # h starts at zero, so subtracting the negated rows is their exact sum.
    scatter_sub(h, batch.context_segments, -embedding[batch.context_rows])
    h /= batch.context_counts[:, None]
    return h.astype(embedding.dtype)


def cbow_ns_update(
    embedding: np.ndarray,
    training: np.ndarray,
    batch: CbowBatch,
    learning_rate: float,
    compute_loss: bool = False,
) -> float:
    """CBOW + negative sampling step; returns summed loss (or 0)."""
    B = len(batch)
    if B == 0:
        return 0.0
    lr = np.float32(learning_rate)
    h = _context_means(embedding, batch)  # (B, D)
    targets = np.concatenate([batch.centers[:, None], batch.negatives], axis=1)
    t = training[targets]  # (B, K+1, D)
    scores = np.matmul(t, h[:, :, None])[:, :, 0]
    sig = expit(scores)
    grad_scale = sig.copy()
    grad_scale[:, 0] -= 1.0
    if batch.negatives.shape[1]:
        grad_scale[:, 1:] *= batch.negative_mask
    g = grad_scale * lr

    grad_h = np.matmul(g[:, None, :], t)[:, 0, :]  # (B, D) — word2vec.c's neu1e
    sparse_update(training, targets, g, h)
    # Every context row receives the full input gradient (word2vec.c).
    scatter_sub(embedding, batch.context_rows, grad_h[batch.context_segments])
    if not compute_loss:
        return 0.0
    pos = np.maximum(sig[:, 0], _MIN_PROB)
    loss = -np.log(pos).sum()
    if batch.negatives.shape[1]:
        neg = np.maximum(1.0 - sig[:, 1:], _MIN_PROB)
        loss -= (np.log(neg) * batch.negative_mask).sum()
    return float(loss)


def cbow_hs_update(
    embedding: np.ndarray,
    hs_output: np.ndarray,
    batch: CbowBatch,
    tree: HuffmanTree,
    learning_rate: float,
    compute_loss: bool = False,
) -> float:
    """CBOW + hierarchical softmax step via the shared HS kernel."""
    if len(batch) == 0:
        return 0.0
    h = _context_means(embedding, batch)
    return hs_update(
        embedding,
        hs_output,
        inputs=batch.centers,  # unused when input_vectors given
        outputs=batch.centers,
        tree=tree,
        learning_rate=learning_rate,
        compute_loss=compute_loss,
        input_vectors=h,
        input_scatter=(batch.context_segments, batch.context_rows),
    )
