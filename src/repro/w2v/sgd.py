"""Skip-Gram negative-sampling pair generation and SGD kernel.

Follows word2vec.c's training schedule:

- frequent-word subsampling removes tokens up front (probabilities from
  :meth:`repro.text.vocab.Vocabulary.keep_probabilities`),
- each surviving position gets a *dynamic* window ``b ~ U{1..window}``;
  every in-window neighbor forms a positive pair where the neighbor is the
  **input** (embedding layer, ``syn0``) and the center the **output**
  (training layer, ``syn1neg``),
- each center draws ``k`` negatives from the unigram^0.75 table, shared by
  every pair of its window (Ji et al.'s HogBatch sampling; collisions with
  the center are redrawn once, then dropped by zero weight),
- the SGD step for a pair with targets ``T`` (1 positive + k negatives),
  labels ``y``, input embedding ``e``:

      σ = sigmoid(e · t_j);  g_j = (σ_j − y_j)·α
      e −= Σ_j g_j t_j;      t_j −= g_j e

Generation is one pass per *batch* of worklist chunks (:func:`_chunk_pairs`
— a round's chunks on every simulated host, or a single chunk): the
batch is one flat token array with a (chunk, sentence) segment id per
token.  Each chunk still draws from its own generator, in a fixed order
(uniforms, then spans, then one negatives row per distinct center), so a
chunk's examples do not depend on its batch-mates; everything between
the draws runs once over the batch.  The pairs at distance ``d`` are the
centers whose span reaches ``d`` and whose neighbour ``d`` away lies in
the same segment — offset arithmetic, no loop over sentences, chunks or
hosts.  This is Ji et al.'s HogBatch idea (merge many tiny operations into
one larger one) applied across the simulated hosts.

Updates are applied one slice at a time as two sparse-times-dense products
(:mod:`repro.w2v.scatter`): gradients in a slice are computed against the
model at slice start and duplicate rows accumulate, the vectorized
equivalent of the intra-host Hogwild the paper uses (racy, slightly stale,
empirically benign for sparse updates — §2.3).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate
from typing import Callable, Sequence

import numpy as np
from scipy.special import expit

from repro.text.negative_sampling import UnigramTable
from repro.w2v.scatter import scatter_sub, sparse_update

__all__ = [
    "TrainingBatch",
    "subsample_sentence",
    "sample_negatives",
    "build_training_batch",
    "sgns_update",
    "apply_in_slices",
]

# Loss clamp: -log of a probability never reports more than this per term
# (protects against log(0) for saturated sigmoids in float32).
_MIN_PROB = 1e-10


@dataclass
class TrainingBatch:
    """All training pairs of one worklist chunk, ready for the kernel."""

    inputs: np.ndarray  # (B,) context word ids  -> embedding rows
    outputs: np.ndarray  # (B,) center word ids   -> training rows (label 1)
    negatives: np.ndarray  # (B, k) sampled ids     -> training rows (label 0)
    #: Mask of negatives that collided with their positive target even after
    #: one redraw; they contribute no gradient.
    negative_mask: np.ndarray  # (B, k) bool — True = active

    def __post_init__(self) -> None:
        B = len(self.inputs)
        if self.outputs.shape != (B,):
            raise ValueError("outputs length mismatch")
        if self.negatives.shape[0] != B or self.negatives.ndim != 2:
            raise ValueError("negatives must be (B, k)")
        if self.negative_mask.shape != self.negatives.shape:
            raise ValueError("negative_mask shape mismatch")

    def __len__(self) -> int:
        return len(self.inputs)

    @property
    def num_negatives(self) -> int:
        return self.negatives.shape[1]

    def accessed_ids(self) -> np.ndarray:
        """Sorted unique node ids this batch reads or writes."""
        return np.unique(
            np.concatenate([self.inputs, self.outputs, self.negatives.ravel()])
        )

    def slice(self, start: int, stop: int) -> "TrainingBatch":
        return TrainingBatch(
            inputs=self.inputs[start:stop],
            outputs=self.outputs[start:stop],
            negatives=self.negatives[start:stop],
            negative_mask=self.negative_mask[start:stop],
        )


def subsample_sentence(
    sentence: np.ndarray, keep_prob: np.ndarray, rng: np.random.Generator
) -> np.ndarray:
    """Drop frequent words with probability ``1 - keep_prob[word]``."""
    if sentence.size == 0:
        return sentence
    keep = rng.random(len(sentence)) < keep_prob[sentence]
    return sentence[keep]


@dataclass
class _ChunkPairs:
    """The generated pairs of a batch of chunks, flat and chunk-major.

    Positions index the batch's kept tokens.  Pairs of chunk ``i`` are
    ``pair_cuts[i]:pair_cuts[i + 1]`` (centers, contexts, inputs, row) in
    :func:`_chunk_pairs` order; its distinct centers, ascending, are
    ``center_cuts[i]:center_cuts[i + 1]`` (words, negatives, mask), and
    ``row[j]`` is pair ``j``'s center among all of the batch's.
    """

    centers: np.ndarray  # (P,) center position of each pair
    contexts: np.ndarray  # (P,) neighbour position of each pair
    inputs: np.ndarray  # (P,) neighbour word ids
    row: np.ndarray  # (P,) distinct-center index of each pair
    words: np.ndarray  # (C,) distinct center word ids
    negatives: np.ndarray  # (C, k)
    negative_mask: np.ndarray  # (C, k)
    pair_cuts: np.ndarray  # (n + 1,)
    center_cuts: np.ndarray  # (n + 1,)

    def skipgram(self) -> list["TrainingBatch"]:
        """One :class:`TrainingBatch` per chunk: the center is the output,
        its neighbour the input, and every pair of a center shares its
        negatives row.  The per-pair rows are gathered per chunk, so a
        chunk's batch does not keep its batch-mates' memory alive."""
        cuts = self.pair_cuts.tolist()
        batches = []
        for a, b in zip(cuts[:-1], cuts[1:]):
            row = self.row[a:b]
            batches.append(TrainingBatch(
                inputs=self.inputs[a:b],
                outputs=self.words[row],
                negatives=self.negatives[row],
                negative_mask=self.negative_mask[row],
            ))
        return batches


def _chunk_pairs(
    slots: Sequence[tuple[Sequence[np.ndarray], np.random.Generator]],
    window: int,
    keep_prob: np.ndarray,
    table: UnigramTable | None,
    num_negatives: int,
) -> _ChunkPairs:
    """Subsample, window and negative-sample a batch of chunks in one pass.

    Each chunk draws from its own generator, in this order: one uniform
    per token (subsampling), one span ``U{1..window}`` per kept token,
    then one :func:`sample_negatives` row per distinct center, ascending
    (``table`` may be ``None`` when ``num_negatives`` is 0).  Only the
    draws are per chunk; everything else runs once over the chunks'
    tokens laid end to end, with one segment id per (chunk, sentence).
    A chunk's pairs are ordered by sentence, then distance, then left
    before right, then ascending center.  A token id outside ``[0,
    len(keep_prob))`` raises ``ValueError`` naming its sentence within
    its chunk before anything is drawn from any generator.
    """
    if window < 1:
        raise ValueError(f"window must be >= 1, got {window}")
    chunks = [chunk for chunk, _rng in slots]
    sentences = [sentence for chunk in chunks for sentence in chunk]
    lengths = [len(sentence) for sentence in sentences]
    tokens = np.concatenate(sentences or [np.empty(0, dtype=np.int64)])
    V = len(keep_prob)
    if tokens.size and (tokens.min() < 0 or tokens.max() >= V):
        bad = int(np.flatnonzero((tokens < 0) | (tokens >= V))[0])
        sentence = int(np.searchsorted(np.cumsum(lengths), bad, side="right"))
        for chunk in chunks:  # name the sentence by its index in its chunk
            if sentence < len(chunk):
                break
            sentence -= len(chunk)
        raise ValueError(
            f"sentence {sentence} of the chunk holds token {tokens[bad]}, "
            f"outside the vocabulary [0, {V})"
        )
    # Chunk i holds sentences sentence_cuts[i]:[i + 1] and tokens
    # token_cuts[i]:[i + 1]; kept_cuts cut the kept tokens likewise.
    sizes = [sum(map(len, chunk)) for chunk in chunks]
    sentence_cuts = list(accumulate(map(len, chunks), initial=0))
    token_cuts = list(accumulate(sizes, initial=0))
    uniforms = [rng.random(n) for (_chunk, rng), n in zip(slots, sizes)]
    keep = (uniforms[0] if len(slots) == 1 else np.concatenate(uniforms)) < keep_prob[tokens]
    kept_at = np.flatnonzero(keep)
    kept = tokens[kept_at]
    segments = np.repeat(np.arange(len(sentences)), lengths)[kept_at]
    kept_cuts = np.searchsorted(kept_at, token_cuts)
    ends = kept_cuts.tolist()
    spans = [
        rng.integers(1, window + 1, b - a) for (_chunk, rng), a, b in zip(slots, ends[:-1], ends[1:])
    ]
    spans = spans[0] if len(slots) == 1 else np.concatenate(spans)
    empty = np.empty(0, dtype=np.intp)
    center_parts, context_parts = [empty], [empty]
    for d in range(1, min(window, len(kept) - 1) + 1):
        same = segments[d:] == segments[:-d]  # positions i and i + d share a sentence
        left = np.flatnonzero(same & (spans[d:] >= d)) + d
        right = np.flatnonzero(same & (spans[:-d] >= d))
        center_parts += [left, right]
        context_parts += [left - d, right + d]
    centers, contexts = np.concatenate(center_parts), np.concatenate(context_parts)
    center_segments = segments[centers]
    order = np.argsort(center_segments, kind="stable")
    centers, contexts = centers[order], contexts[order]
    pair_cuts = np.searchsorted(center_segments[order], sentence_cuts)

    seen = np.zeros(len(kept), dtype=bool)
    seen[centers] = True
    distinct = np.flatnonzero(seen)
    center_cuts = np.searchsorted(distinct, kept_cuts)
    words = kept[distinct]
    cuts = center_cuts.tolist()
    drawn = [
        sample_negatives(table, words[a:b], num_negatives, rng)
        for (_chunk, rng), a, b in zip(slots, cuts[:-1], cuts[1:])
    ]
    if len(drawn) == 1:
        negatives, mask = drawn[0]
    else:
        negatives = np.concatenate([neg for neg, _mask in drawn])
        mask = np.concatenate([mask for _neg, mask in drawn])
    return _ChunkPairs(
        centers=centers,
        contexts=contexts,
        inputs=kept[contexts],
        row=(np.cumsum(seen) - 1)[centers],
        words=words,
        negatives=negatives,
        negative_mask=mask,
        pair_cuts=pair_cuts,
        center_cuts=center_cuts,
    )


def sample_negatives(
    table: UnigramTable,
    outputs: np.ndarray,
    num_negatives: int,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray]:
    """Draw ``(B, k)`` negatives; one redraw for positive collisions.

    Returns ``(negatives, mask)`` where masked-out entries (still colliding
    after redraw) must not contribute gradient.
    """
    B = len(outputs)
    if num_negatives == 0:
        neg = np.empty((B, 0), dtype=np.int64)
        return neg, np.empty((B, 0), dtype=bool)
    neg = table.draw(rng, (B, num_negatives))
    collide = neg == outputs[:, None]
    if collide.any():
        redraw = table.draw(rng, int(collide.sum()))
        neg[collide] = redraw
        collide = neg == outputs[:, None]
    return neg, ~collide


def build_training_batch(
    sentences: list[np.ndarray],
    *,
    window: int,
    keep_prob: np.ndarray,
    table: UnigramTable | None,
    num_negatives: int,
    rng: np.random.Generator,
) -> TrainingBatch:
    """Subsample + pair + negative-sample a chunk of sentences.

    This is the "edge generation" of the graph formulation (paper §4.2):
    positive edges from windows, negative edges from the noise distribution,
    regenerated fresh every epoch from the worklist.  The center is the
    output and its neighbour the input (word2vec.c's convention); pairs
    come in :func:`_chunk_pairs` order and the negatives are drawn last,
    one row per center shared by all its pairs.  A batch of one chunk.
    """
    return _chunk_pairs([(sentences, rng)], window, keep_prob, table, num_negatives).skipgram()[0]


def sgns_update(
    embedding: np.ndarray,
    training: np.ndarray,
    batch: TrainingBatch,
    learning_rate: float,
    compute_loss: bool = False,
) -> float:
    """One SGD step over ``batch``; returns summed loss (or 0).

    Gradients are evaluated against the arrays' state at entry; duplicate
    rows within the batch accumulate (Hogwild-style batched application).
    """
    B = len(batch)
    if B == 0:
        return 0.0
    lr = np.float32(learning_rate)
    e = np.take(embedding, batch.inputs, axis=0)  # (B, D)
    targets = np.concatenate([batch.outputs[:, None], batch.negatives], axis=1)
    t = np.take(training, targets, axis=0)  # (B, K+1, D)
    scores = np.matmul(t, e[:, :, None])[:, :, 0]
    sig = expit(scores)
    # labels: column 0 positive; masked-out negatives get zero gradient.
    grad_scale = sig.copy()
    grad_scale[:, 0] -= 1.0
    if batch.num_negatives:
        grad_scale[:, 1:] *= batch.negative_mask
    g = grad_scale * lr  # (B, K+1)

    grad_e = np.matmul(g[:, None, :], t)[:, 0, :]
    sparse_update(training, targets, g, e)
    scatter_sub(embedding, batch.inputs, grad_e)

    if not compute_loss:
        return 0.0
    pos = np.maximum(sig[:, 0], _MIN_PROB)
    loss = -np.log(pos).sum()
    if batch.num_negatives:
        neg = np.maximum(1.0 - sig[:, 1:], _MIN_PROB)
        loss -= (np.log(neg) * batch.negative_mask).sum()
    return float(loss)


def apply_in_slices(batch, batch_pairs: int, update: Callable) -> tuple[float, int]:
    """Feed ``batch`` to ``update(piece) -> loss`` in ``batch_pairs``-sized slices.

    The one Hogwild slice loop: every kernel sees the model as the previous
    slice left it.  ``batch`` is any batch type with ``len`` and ``slice``;
    returns (summed loss, examples).
    """
    if batch_pairs < 1:
        raise ValueError(f"batch_pairs must be >= 1, got {batch_pairs}")
    total_loss = 0.0
    n = len(batch)
    for start in range(0, n, batch_pairs):
        total_loss += update(batch.slice(start, min(start + batch_pairs, n)))
    return total_loss, n
