"""Unified round-work construction for all four training configurations.

Word2Vec = architecture x objective: {Skip-Gram, CBOW} x {negative
sampling, hierarchical softmax}.  The paper evaluates SG+NS; §2.1 notes the
approach carries to the other family members, so all four are supported.
A :class:`RoundWork` packages one worklist chunk's generated examples with
everything the trainers need — the apply kernel, and the embedding/output
rows it touches (the access/update sets Gluon synchronizes on).

The output layer differs by objective: negative sampling trains one vector
per *word* (V rows); hierarchical softmax one per Huffman *inner node*
(V-1 rows).  ``output_rows_for`` reports the right row count.

The access sets are built by marking the touched rows in a boolean array
of the layer's row count and reading the marks back in order — the sorted
unique ids ``np.unique`` would return, in O(ids + rows) instead of a sort.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.analysis.effects import declare_effects
from repro.text.negative_sampling import UnigramTable
from repro.w2v.cbow import CbowBatch, build_cbow_batch, cbow_hs_update, cbow_ns_update
from repro.w2v.hs import hs_pairs_access, hs_update
from repro.w2v.huffman import HuffmanTree
from repro.w2v.params import Word2VecParams
from repro.w2v.scatter import _sorted_unique
from repro.w2v.sgd import TrainingBatch, apply_in_slices, build_training_batch, sgns_update

__all__ = ["RoundWork", "build_round_work", "output_rows_for"]


def output_rows_for(params: Word2VecParams, vocab_size: int) -> int:
    """Rows of the output-layer matrix for this configuration."""
    if params.objective == "hierarchical":
        return max(1, vocab_size - 1)
    return vocab_size


@dataclass
class RoundWork:
    """Generated training examples for one (host, round) work chunk."""

    kind: str  # "sg-ns" | "sg-hs" | "cbow-ns" | "cbow-hs"
    batch: TrainingBatch | CbowBatch
    tree: HuffmanTree | None
    embedding_access: np.ndarray  # sorted unique embedding rows touched
    output_access: np.ndarray  # sorted unique output-layer rows touched

    @property
    def num_examples(self) -> int:
        return len(self.batch)

    @declare_effects(
        reads=("embedding[rows]", "output[rows]", "self.batch", "self.tree"),
        writes=("embedding[rows]", "output[rows]"),
    )
    def apply(
        self,
        embedding: np.ndarray,
        output: np.ndarray,
        learning_rate: float,
        batch_pairs: int,
        compute_loss: bool = False,
    ) -> tuple[float, int]:
        """Run the kernel in ``batch_pairs``-sized Hogwild slices."""
        kernels = {
            "sg-ns": lambda piece: sgns_update(
                embedding, output, piece, learning_rate, compute_loss
            ),
            "sg-hs": lambda piece: hs_update(
                embedding, output, piece.inputs, piece.outputs, self.tree, learning_rate, compute_loss
            ),
            "cbow-ns": lambda piece: cbow_ns_update(
                embedding, output, piece, learning_rate, compute_loss
            ),
            "cbow-hs": lambda piece: cbow_hs_update(
                embedding, output, piece, self.tree, learning_rate, compute_loss
            ),
        }
        return apply_in_slices(self.batch, batch_pairs, kernels[self.kind])


def build_round_work(
    sentences: list[np.ndarray],
    *,
    params: Word2VecParams,
    keep_prob: np.ndarray,
    table: UnigramTable | None,
    tree: HuffmanTree | None,
    rng: np.random.Generator,
) -> RoundWork:
    """Generate this chunk's examples for the configured architecture/objective.

    A token id outside ``[0, len(keep_prob))`` raises a ``ValueError`` naming
    its sentence before any draw, so a rejected chunk changes nothing.
    """
    hierarchical = params.objective == "hierarchical"
    if hierarchical and tree is None:
        raise ValueError("hierarchical objective requires a Huffman tree")
    if not hierarchical and table is None:
        raise ValueError("negative-sampling objective requires a unigram table")

    skipgram = params.architecture == "skipgram"
    builder = build_training_batch if skipgram else build_cbow_batch
    batch = builder(
        sentences,
        window=params.window,
        keep_prob=keep_prob,
        table=table if not hierarchical else None,
        num_negatives=0 if hierarchical else params.negatives,
        rng=rng,
    )
    V = len(keep_prob)
    emb_access = _sorted_unique(batch.inputs if skipgram else batch.context_rows, V)
    outputs = batch.outputs if skipgram else batch.centers
    if hierarchical:
        out_access = hs_pairs_access(outputs, tree)
    else:
        out_access = _sorted_unique(np.concatenate([outputs, batch.negatives.ravel()]), V)
    kind = ("sg-" if skipgram else "cbow-") + ("hs" if hierarchical else "ns")
    return RoundWork(kind, batch, tree if hierarchical else None, emb_access, out_access)
