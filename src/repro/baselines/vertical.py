"""Vertically-partitioned distributed Word2Vec (Ordentlich et al., CIKM'16).

The related-work system the paper contrasts with (§6): instead of
replicating the model and partitioning the *data*, each of H hosts stores a
column slice (dim/H dimensions) of the embedding and training vectors for
*every* word.  A mini-batch's (input, target) index lists are broadcast to
all hosts; each host computes partial dot products over its columns; the
partials are all-reduced so every host holds the full scores; each host
then updates its own columns locally.

Properties reproduced here:

- **exactness**: unlike data-parallel schemes there is no staleness — the
  computation is an exact re-factoring of the sequential batch update, so
  the trained model matches the single-host trainer up to float summation
  order (tested);
- **network profile**: per batch the wire carries scores (B x (1+k) floats
  per host, twice for the allreduce) and the batch's index lists —
  *independent of the embedding dimension*, which is why this design suits
  models too large for one host;
- **memory profile**: every host stores 2·V·(dim/H) floats.

The trade-off the paper points out — communication after every mini-batch —
is visible in the accounted message counts versus GraphWord2Vec's per-round
synchronization (extension benchmark).
"""

from __future__ import annotations

from typing import Callable

import numpy as np
from scipy.special import expit

from repro.gluon.comm import ID_BYTES, VALUE_BYTES, SimulatedNetwork
from repro.gluon.proxies import block_boundaries
from repro.text.corpus import Corpus
from repro.text.negative_sampling import UnigramTable
from repro.util.rng import SeedSequenceTree
from repro.w2v.model import Word2VecModel
from repro.w2v.params import Word2VecParams
from repro.w2v.scatter import scatter_sub, sparse_update
from repro.w2v.sgd import TrainingBatch, build_training_batch

__all__ = ["VerticalPartitionWord2Vec"]


class VerticalPartitionWord2Vec:
    """Column-partitioned Skip-Gram with negative sampling."""

    def __init__(
        self,
        corpus: Corpus,
        params: Word2VecParams = Word2VecParams(),
        num_hosts: int = 4,
        batch_pairs: int | None = None,
        seed: int | None = None,
    ):
        if params.architecture != "skipgram" or params.objective != "negative":
            raise ValueError(
                "vertical partitioning is implemented for skipgram + negative sampling"
            )
        if num_hosts <= 0:
            raise ValueError(f"num_hosts must be positive, got {num_hosts}")
        if params.dim < num_hosts:
            raise ValueError(
                f"dim ({params.dim}) must be >= num_hosts ({num_hosts}) to slice columns"
            )
        self.corpus = corpus.split_long_sentences(params.max_sentence_length)
        self.params = params
        self.num_hosts = int(num_hosts)
        self.batch_pairs = int(batch_pairs or params.batch_pairs)
        self._seeds = SeedSequenceTree(seed if seed is not None else 0)
        vocab = corpus.vocabulary
        # Column slices: host h owns dims [bounds[h], bounds[h+1]).
        self.column_bounds = block_boundaries(params.dim, self.num_hosts)
        init = Word2VecModel.initialize(
            len(vocab), params.dim, self._seeds.child("init")
        )
        self._emb_slices = [
            init.embedding[:, self.column_bounds[h] : self.column_bounds[h + 1]].copy()
            for h in range(self.num_hosts)
        ]
        self._trn_slices = [
            init.training[:, self.column_bounds[h] : self.column_bounds[h + 1]].copy()
            for h in range(self.num_hosts)
        ]
        self._keep_prob = vocab.keep_probabilities(params.subsample_threshold)
        self._table = UnigramTable(vocab.counts)
        self.network = SimulatedNetwork(self.num_hosts)
        self.batches_processed = 0

    # ------------------------------------------------------------------
    def _train_batch(self, batch: TrainingBatch, lr: float) -> None:
        """One exact, column-parallel SGD step over ``batch``."""
        B = len(batch)
        if B == 0:
            return
        targets = np.concatenate([batch.outputs[:, None], batch.negatives], axis=1)
        K1 = targets.shape[1]

        # Index broadcast: the driver (host 0 by convention) ships the batch
        # indices to every other host.
        index_bytes = (B + B * K1) * ID_BYTES
        with self.network.phase("indices"):
            for h in range(1, self.num_hosts):
                self.network.send(0, h, index_bytes, payload=None)
        for h in range(1, self.num_hosts):
            self.network.drain(h)

        # Partial dot products per column slice.
        partials = []
        for h in range(self.num_hosts):
            e = self._emb_slices[h][batch.inputs]  # (B, d_h)
            t = self._trn_slices[h][targets]  # (B, K1, d_h)
            partials.append(np.matmul(t, e[:, :, None], dtype=np.float64)[:, :, 0])

        # Allreduce of the scores: each host contributes its partial matrix
        # and receives the sum (ring allreduce: ~2 messages per host).
        score_bytes = B * K1 * VALUE_BYTES
        with self.network.phase("allreduce-scores"):
            for h in range(self.num_hosts):
                peer = (h + 1) % self.num_hosts
                if peer != h:
                    self.network.send(h, peer, score_bytes, payload=None)
                    self.network.send(peer, h, score_bytes, payload=None)
        for h in range(self.num_hosts):
            self.network.drain(h)

        scores = np.sum(partials, axis=0)
        sig = expit(scores)
        grad_scale = sig.copy()
        grad_scale[:, 0] -= 1.0
        if batch.num_negatives:
            grad_scale[:, 1:] *= batch.negative_mask
        g = (grad_scale * lr).astype(np.float32)

        # Each host updates its own columns; no further communication.
        for h in range(self.num_hosts):
            e = self._emb_slices[h][batch.inputs]
            t = self._trn_slices[h][targets]
            grad_e = np.matmul(g[:, None, :], t)[:, 0, :]
            sparse_update(self._trn_slices[h], targets, g, e)
            scatter_sub(self._emb_slices[h], batch.inputs, grad_e)
        self.batches_processed += 1

    # ------------------------------------------------------------------
    def train(
        self,
        epoch_callback: Callable[[int, Word2VecModel], None] | None = None,
    ) -> Word2VecModel:
        params = self.params
        for epoch in range(params.epochs):
            lr = params.learning_rate_for_epoch(epoch)
            epoch_seeds = self._seeds.subtree("epoch", epoch)
            sentences = list(self.corpus.sentences)
            if params.shuffle_each_epoch and len(sentences) > 1:
                order = epoch_seeds.child("train").permutation(len(sentences))
                sentences = [sentences[i] for i in order]
            # Generate the epoch's pairs in sentence chunks, each from its
            # own stream as SharedMemoryWord2Vec draws them, then train in
            # fixed-size mini-batches (the CIKM system's dataflow).
            for start in range(0, len(sentences), 32):
                chunk = sentences[start : start + 32]
                batch = build_training_batch(
                    chunk,
                    window=params.window,
                    keep_prob=self._keep_prob,
                    table=self._table,
                    num_negatives=params.negatives,
                    rng=epoch_seeds.child("chunk", start // 32),
                )
                for piece_start in range(0, len(batch), self.batch_pairs):
                    piece = batch.slice(
                        piece_start, min(piece_start + self.batch_pairs, len(batch))
                    )
                    self._train_batch(piece, lr)
            if epoch_callback is not None:
                epoch_callback(epoch, self.assembled_model())
        return self.assembled_model()

    # ------------------------------------------------------------------
    def assembled_model(self) -> Word2VecModel:
        """Concatenate the column slices into a full model."""
        emb = np.concatenate(self._emb_slices, axis=1)
        trn = np.concatenate(self._trn_slices, axis=1)
        return Word2VecModel(emb, trn)

    def per_host_memory_bytes(self) -> int:
        """Model bytes resident on one host (the design's selling point)."""
        return int(self._emb_slices[0].nbytes + self._trn_slices[0].nbytes)
