"""Single-host Word2Vec trainer.

This is the paper's shared-memory (SM) configuration: the same operator the
distributed trainer runs per host, driven by a Galois chunked worklist over
the whole corpus.  It serves three roles: the SM convergence line in
Figure 6, the per-host compute of :class:`~repro.w2v.distributed.GraphWord2Vec`
(which reuses the same kernels), and the reference the baselines in
:mod:`repro.baselines` are compared against.

All four Word2Vec configurations are supported through
:mod:`repro.w2v.steps`: Skip-Gram / CBOW x negative sampling / hierarchical
softmax (the paper evaluates Skip-Gram with negative sampling).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.galois.accumulators import GAccumulator
from repro.galois.do_all import DoAllExecutor, do_all, resolve_executor
from repro.galois.worklist import ChunkedWorklist
from repro.text.corpus import Corpus
from repro.text.negative_sampling import UnigramTable
from repro.util.heap import hold_heap
from repro.util.rng import SeedSequenceTree
from repro.w2v.huffman import HuffmanTree
from repro.w2v.model import Word2VecModel
from repro.w2v.params import Word2VecParams
from repro.w2v.steps import build_round_work, output_rows_for

__all__ = ["SharedMemoryWord2Vec", "EpochStats"]

# Sentences handed to one example-generation call; amortizes Python overhead
# without materially changing the Hogwild batching granularity.
_SENTENCES_PER_CHUNK = 32


@dataclass
class EpochStats:
    epoch: int
    learning_rate: float
    pairs: int
    loss: float


class SharedMemoryWord2Vec:
    """Sequential (single-host) Word2Vec trainer."""

    def __init__(
        self,
        corpus: Corpus,
        params: Word2VecParams = Word2VecParams(),
        seed: int | None = None,
        compute_loss: bool = False,
        executor: DoAllExecutor | None = None,
        workers: int | None = None,
    ):
        """``executor``/``workers`` enable Galois-style intra-host parallelism.

        With an executor (e.g. :class:`repro.galois.do_all.ThreadPoolDoAll`,
        or the shorthand ``workers=N`` for a private pool; at most one of the
        two) worklist chunks are processed Hogwild-style (paper §2.3):
        example generation is deterministic (per-chunk seed-tree streams) —
        so *pair counts* are exact regardless of executor — but concurrent
        scatter-adds race benignly on the shared model, so the trained
        vectors are *not* bit-reproducible across runs.  ``workers=1`` runs
        the same chunk-scheduled path serially (deterministic, and
        pair-count-identical to any worker count); the default (no executor,
        ``workers=None``) is the classic fully sequential path."""
        hold_heap()
        self.corpus = corpus.split_long_sentences(params.max_sentence_length)
        self.params = params
        self.compute_loss = compute_loss
        self.executor = resolve_executor(executor, workers)
        self._seeds = SeedSequenceTree(seed if seed is not None else 0)
        vocab = corpus.vocabulary
        self.model = Word2VecModel.initialize(
            len(vocab),
            params.dim,
            self._seeds.child("init"),
            output_rows=output_rows_for(params, len(vocab)),
        )
        self._keep_prob = vocab.keep_probabilities(params.subsample_threshold)
        self._table = (
            UnigramTable(vocab.counts) if params.objective == "negative" else None
        )
        self._tree = (
            HuffmanTree.from_counts(vocab.counts)
            if params.objective == "hierarchical"
            else None
        )
        self.epoch_stats: list[EpochStats] = []

    def train(
        self,
        epoch_callback: Callable[[int, Word2VecModel], None] | None = None,
    ) -> Word2VecModel:
        """Run all epochs; invokes ``epoch_callback(epoch, model)`` after each."""
        params = self.params
        for epoch in range(params.epochs):
            lr = params.learning_rate_for_epoch(epoch)
            rng = self._seeds.subtree("epoch", epoch).child("train")
            sentences = list(self.corpus.sentences)
            if params.shuffle_each_epoch:
                order = rng.permutation(len(sentences))
                sentences = [sentences[i] for i in order]
            worklist = ChunkedWorklist(sentences, chunk_size=_SENTENCES_PER_CHUNK)
            if self.executor is None:
                epoch_loss, epoch_pairs = self._train_epoch_sequential(worklist, rng, lr)
            else:
                epoch_loss, epoch_pairs = self._train_epoch_hogwild(
                    worklist, epoch, lr
                )
            self.epoch_stats.append(
                EpochStats(epoch=epoch, learning_rate=lr, pairs=epoch_pairs, loss=epoch_loss)
            )
            if epoch_callback is not None:
                epoch_callback(epoch, self.model)
        return self.model

    # ------------------------------------------------------------------
    def _train_epoch_sequential(
        self, worklist: ChunkedWorklist, rng, lr: float
    ) -> tuple[float, int]:
        epoch_loss = 0.0
        epoch_pairs = 0
        while not worklist.empty():
            chunk = worklist.pop_chunk()
            work = build_round_work(
                chunk,
                params=self.params,
                keep_prob=self._keep_prob,
                table=self._table,
                tree=self._tree,
                rng=rng,
            )
            loss, pairs = work.apply(
                self.model.embedding,
                self.model.training,
                lr,
                self.params.batch_pairs,
                compute_loss=self.compute_loss,
            )
            epoch_loss += loss
            epoch_pairs += pairs
        return epoch_loss, epoch_pairs

    def _train_epoch_hogwild(
        self, worklist: ChunkedWorklist, epoch: int, lr: float
    ) -> tuple[float, int]:
        """Chunks processed by the executor; racy shared-model updates."""
        chunks: list[tuple[int, list]] = []
        index = 0
        while not worklist.empty():
            chunks.append((index, worklist.pop_chunk()))
            index += 1
        loss_acc = GAccumulator()
        pairs_acc = GAccumulator()
        epoch_seeds = self._seeds.subtree("epoch", epoch)

        def operator(item: tuple[int, list]) -> None:
            chunk_index, chunk = item
            chunk_rng = epoch_seeds.child("chunk", chunk_index)
            work = build_round_work(
                chunk,
                params=self.params,
                keep_prob=self._keep_prob,
                table=self._table,
                tree=self._tree,
                rng=chunk_rng,
            )
            # Hogwild by design: chunks race on the shared model without
            # locks (Recht et al.); the overlap the dataflow pass reports
            # is the algorithm, not a bug.
            loss, pairs = work.apply(  # repro: noqa[REPRO111,REPRO112]
                self.model.embedding,
                self.model.training,
                lr,
                self.params.batch_pairs,
                compute_loss=self.compute_loss,
            )
            loss_acc.update(loss)
            pairs_acc.update(float(pairs))

        do_all(chunks, operator, executor=self.executor)
        return loss_acc.value, int(pairs_acc.value)
