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

Generation is one pass per wave (:func:`build_round_works`): a training
round's chunks on every simulated host — or, for a trainer with one
worklist, a single chunk — are generated together.  Each slot draws from
its own seed-tree stream, so a slot's examples are the same whatever its
batch-mates; pairing, the CBOW regrouping and both access sets run once
over the batch, so a 32-host round costs a few dozen NumPy calls, not a
few dozen per host.  :func:`build_round_work` is the batch of one.

The access sets are built by marking the touched (slot, row) pairs in a
boolean array of slots x the layer's row count and reading the marks back
in order — per slot, the sorted unique ids ``np.unique`` would return, in
O(ids + slots x rows) instead of a sort.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.analysis.effects import declare_effects
from repro.text.negative_sampling import UnigramTable
from repro.w2v.cbow import CbowBatch, cbow_batches, cbow_hs_update, cbow_ns_update
from repro.w2v.hs import hs_path_points, hs_update
from repro.w2v.huffman import HuffmanTree
from repro.w2v.params import Word2VecParams
from repro.w2v.sgd import TrainingBatch, _chunk_pairs, apply_in_slices, sgns_update

__all__ = ["RoundWork", "build_round_works", "build_round_work", "output_rows_for"]


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


def _slot_unique(
    ids: np.ndarray, cuts: np.ndarray, num_rows: int
) -> list[np.ndarray]:
    """Per slot, ``np.unique`` of its ids: ``ids[cuts[i]:cuts[i + 1]]`` are
    slot ``i``'s, in ``[0, num_rows)``.  One row mark over (slot, row), read
    back in order — O(ids + slots x rows), no sort."""
    n = len(cuts) - 1
    key = ids if n == 1 else np.repeat(np.arange(n) * num_rows, np.diff(cuts)) + ids
    mark = np.zeros(n * num_rows, dtype=bool)
    mark[key] = True
    flat = np.flatnonzero(mark)
    if n == 1:
        return [flat]
    bounds = np.searchsorted(flat, np.arange(n + 1) * num_rows).tolist()
    return [flat[a:b] - i * num_rows for i, (a, b) in enumerate(zip(bounds[:-1], bounds[1:]))]


def build_round_works(
    slots: Sequence[tuple[Sequence[np.ndarray], np.random.Generator]],
    *,
    params: Word2VecParams,
    keep_prob: np.ndarray,
    table: UnigramTable | None,
    tree: HuffmanTree | None,
) -> list[RoundWork]:
    """Generate every slot's examples for the configured architecture/objective.

    A slot is one chunk of sentences and the generator its draws come
    from; ``build_round_works(slots)[i]`` equals :func:`build_round_work`
    of slot ``i`` alone, array for array, whatever its batch-mates.  The
    draws are per slot (:func:`repro.w2v.sgd._chunk_pairs`); pairing,
    regrouping and both access sets run once over the batch.  A token id
    outside ``[0, len(keep_prob))`` raises a ``ValueError`` naming its
    sentence before any draw, so a rejected batch changes nothing.
    """
    hierarchical = params.objective == "hierarchical"
    if hierarchical and tree is None:
        raise ValueError("hierarchical objective requires a Huffman tree")
    if not hierarchical and table is None:
        raise ValueError("negative-sampling objective requires a unigram table")
    if not slots:
        return []

    pairs = _chunk_pairs(
        slots,
        params.window,
        keep_prob,
        None if hierarchical else table,
        0 if hierarchical else params.negatives,
    )
    skipgram = params.architecture == "skipgram"
    batches = pairs.skipgram() if skipgram else cbow_batches(pairs)
    V = len(keep_prob)
    # A chunk's Skip-Gram inputs and CBOW context rows are the same ids;
    # its output rows are its distinct centers' (every pair of a center
    # shares the center's negatives row).
    emb_access = _slot_unique(pairs.inputs, pairs.pair_cuts, V)
    if hierarchical:
        points, lengths = hs_path_points(pairs.words, tree)
        cuts = np.concatenate([[0], np.cumsum(lengths)])[pairs.center_cuts]
        out_access = _slot_unique(points, cuts, tree.num_inner_nodes)
    else:
        # Each center's word, then its negatives row: slot-major.
        width = 1 + pairs.negatives.shape[1]
        ids = np.concatenate([pairs.words[:, None], pairs.negatives], axis=1).ravel()
        out_access = _slot_unique(ids, pairs.center_cuts * width, V)
    kind = ("sg-" if skipgram else "cbow-") + ("hs" if hierarchical else "ns")
    return [
        RoundWork(kind, batch, tree if hierarchical else None, emb, out)
        for batch, emb, out in zip(batches, emb_access, out_access)
    ]


def build_round_work(
    sentences: list[np.ndarray],
    *,
    params: Word2VecParams,
    keep_prob: np.ndarray,
    table: UnigramTable | None,
    tree: HuffmanTree | None,
    rng: np.random.Generator,
) -> RoundWork:
    """One chunk's :class:`RoundWork`: :func:`build_round_works` of a batch of one."""
    return build_round_works(
        [(sentences, rng)], params=params, keep_prob=keep_prob, table=table, tree=tree
    )[0]
