"""Shared-memory reference trainers ("W2V" and "GEM" in Tables 2/3).

:class:`Word2VecCReference` ports word2vec.c's Skip-Gram training schedule:
sentences stream in order, each surviving center word's window pairs are
trained *immediately* against the current model before the next center is
touched — the strict sequential-SGD dependency structure (at center-word
granularity) that makes the original hard to parallelize and slow.

:class:`GensimStyleWord2Vec` mimics gensim's job-based pipeline: it
materializes the epoch's training pairs up front and streams them through
the vectorized kernel in large batches.  Faster per epoch — and the reason
gensim exhausts memory on very large corpora, which we expose through an
explicit ``memory_budget_bytes`` (the Table 2 harness scales the budget with
the dataset to reproduce the paper's wiki OOM).
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.text.corpus import Corpus
from repro.text.negative_sampling import UnigramTable
from repro.util.rng import SeedSequenceTree
from repro.w2v.model import Word2VecModel
from repro.w2v.params import Word2VecParams
from repro.w2v.sgd import (
    TrainingBatch,
    apply_in_slices,
    build_training_batch,
    sample_negatives,
    sgns_update,
    subsample_sentence,
)

__all__ = ["Word2VecCReference", "GensimStyleWord2Vec", "MemoryBudgetExceeded"]


class MemoryBudgetExceeded(MemoryError):
    """The GEM-style trainer's materialized pairs exceed its budget."""


class Word2VecCReference:
    """Strict sequential SGNS at center-word granularity ("W2V").

    It draws its own negatives and keeps word2vec.c's per-pair ones: each
    center's ``(pairs, k)`` draw gives every context pair its own ``k``,
    where every other SG-NS trainer shares one row per center
    (:func:`repro.w2v.sgd.build_training_batch`).
    """

    def __init__(
        self,
        corpus: Corpus,
        params: Word2VecParams = Word2VecParams(),
        seed: int | None = None,
    ):
        self.corpus = corpus.split_long_sentences(params.max_sentence_length)
        self.params = params
        self._seeds = SeedSequenceTree(seed if seed is not None else 0)
        vocab = corpus.vocabulary
        self.model = Word2VecModel.initialize(
            len(vocab), params.dim, self._seeds.child("init")
        )
        self._keep_prob = vocab.keep_probabilities(params.subsample_threshold)
        self._table = UnigramTable(vocab.counts)

    def train(
        self,
        epoch_callback: Callable[[int, Word2VecModel], None] | None = None,
    ) -> Word2VecModel:
        params = self.params
        emb, trn = self.model.embedding, self.model.training
        for epoch in range(params.epochs):
            lr = params.learning_rate_for_epoch(epoch)
            rng = self._seeds.subtree("epoch", epoch).child("train")
            sentences = self.corpus.sentences
            if params.shuffle_each_epoch and len(sentences) > 1:
                order = rng.permutation(len(sentences))
                sentences = [sentences[i] for i in order]
            for sentence in sentences:
                kept = subsample_sentence(sentence, self._keep_prob, rng)
                if len(kept) < 2:
                    continue
                # Center-granular strict SGD: the order of center positions
                # matches word2vec.c; every center's update sees all the
                # previous centers' updates.
                spans = rng.integers(1, params.window + 1, size=len(kept))
                for i in range(len(kept)):
                    lo = max(0, i - int(spans[i]))
                    hi = min(len(kept), i + int(spans[i]) + 1)
                    contexts = np.concatenate([kept[lo:i], kept[i + 1 : hi]])
                    if contexts.size == 0:
                        continue
                    outputs = np.full(len(contexts), kept[i], dtype=np.int64)
                    negatives, mask = sample_negatives(
                        self._table, outputs, params.negatives, rng
                    )
                    batch = TrainingBatch(
                        inputs=contexts,
                        outputs=outputs,
                        negatives=negatives,
                        negative_mask=mask,
                    )
                    sgns_update(emb, trn, batch, lr)
            if epoch_callback is not None:
                epoch_callback(epoch, self.model)
        return self.model


class GensimStyleWord2Vec:
    """Epoch-materialized, large-batch SGNS ("GEM")."""

    #: Conservative estimate of the resident bytes per materialized pair:
    #: input + output + negatives ids at int64.
    @staticmethod
    def pair_bytes(negatives: int) -> int:
        return 8 * (2 + negatives) + 1  # ids + collision-mask byte

    def __init__(
        self,
        corpus: Corpus,
        params: Word2VecParams = Word2VecParams(),
        seed: int | None = None,
        memory_budget_bytes: int | None = None,
        job_pairs: int = 2048,
    ):
        if job_pairs < 1:
            raise ValueError(f"job_pairs must be >= 1, got {job_pairs}")
        self.corpus = corpus.split_long_sentences(params.max_sentence_length)
        self.params = params
        self.memory_budget_bytes = memory_budget_bytes
        self.job_pairs = job_pairs
        self._seeds = SeedSequenceTree(seed if seed is not None else 0)
        vocab = corpus.vocabulary
        self.model = Word2VecModel.initialize(
            len(vocab), params.dim, self._seeds.child("init")
        )
        self._keep_prob = vocab.keep_probabilities(params.subsample_threshold)
        self._table = UnigramTable(vocab.counts)

    def _materialize_epoch(self, epoch: int) -> TrainingBatch:
        params = self.params
        rng = self._seeds.subtree("epoch", epoch).child("train")
        sentences = self.corpus.sentences
        if params.shuffle_each_epoch and len(sentences) > 1:
            order = rng.permutation(len(sentences))
            sentences = [sentences[i] for i in order]
        batch = build_training_batch(
            sentences,
            window=params.window,
            keep_prob=self._keep_prob,
            table=self._table,
            num_negatives=params.negatives,
            rng=rng,
        )
        if self.memory_budget_bytes is not None:
            need = len(batch) * self.pair_bytes(params.negatives)
            if need > self.memory_budget_bytes:
                raise MemoryBudgetExceeded(
                    f"epoch {epoch} materializes {need:,} bytes of pairs "
                    f"(budget {self.memory_budget_bytes:,})"
                )
        return batch

    def train(
        self,
        epoch_callback: Callable[[int, Word2VecModel], None] | None = None,
    ) -> Word2VecModel:
        params = self.params
        for epoch in range(params.epochs):
            lr = params.learning_rate_for_epoch(epoch)
            batch = self._materialize_epoch(epoch)
            emb, trn = self.model.embedding, self.model.training
            apply_in_slices(
                batch, self.job_pairs, lambda piece: sgns_update(emb, trn, piece, lr)
            )
            if epoch_callback is not None:
                epoch_callback(epoch, self.model)
        return self.model
