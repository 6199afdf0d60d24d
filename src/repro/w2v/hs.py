"""Hierarchical-softmax training kernel.

With hierarchical softmax (Mikolov et al. 2013) the output layer is one
vector per *inner node* of the vocabulary's Huffman tree (V-1 vectors).
Predicting word ``w`` from input embedding ``e`` trains one logistic
regression per node on w's root path: for path node ``p`` with branch bit
``b`` (0 = left), the target label is ``1 - b`` and

    σ = sigmoid(e · syn1[p]);   g = (σ − (1 − b))·α
    e −= Σ_p g_p · syn1[p];     syn1[p] −= g_p · e

Batched over pairs with per-word code lengths handled by masking the
padded code/point matrices of :class:`repro.w2v.huffman.HuffmanTree`.
"""

from __future__ import annotations

import numpy as np
from scipy.special import expit

from repro.w2v.huffman import HuffmanTree
from repro.w2v.scatter import _sorted_unique, scatter_sub, sparse_update

__all__ = ["hs_update", "hs_pairs_access"]

_MIN_PROB = 1e-10


def hs_pairs_access(outputs: np.ndarray, tree: HuffmanTree) -> np.ndarray:
    """Sorted unique inner-node rows the given output words train against."""
    points = tree.point_matrix[outputs]
    lengths = tree.code_lengths[outputs]
    mask = np.arange(tree.max_code_length)[None, :] < lengths[:, None]
    return _sorted_unique(points[mask], tree.num_inner_nodes)


def hs_update(
    embedding: np.ndarray,
    hs_output: np.ndarray,
    inputs: np.ndarray,
    outputs: np.ndarray,
    tree: HuffmanTree,
    learning_rate: float,
    compute_loss: bool = False,
    input_vectors: np.ndarray | None = None,
    input_scatter: np.ndarray | None = None,
) -> float:
    """One batched HS step for (input, output) pairs; returns summed loss.

    ``inputs`` index ``embedding`` rows unless ``input_vectors`` is given
    (the CBOW case: precomputed context means, with ``input_scatter``
    mapping each example's input gradient back to context rows — see
    :func:`repro.w2v.cbow.cbow_update`).  Gradients are evaluated against
    entry state (Hogwild-style batching, as in the SGNS kernel).
    """
    B = len(outputs)
    if B == 0:
        return 0.0
    if hs_output.shape[0] != tree.num_inner_nodes:
        raise ValueError(
            f"hs_output has {hs_output.shape[0]} rows, tree expects "
            f"{tree.num_inner_nodes}"
        )
    lr = np.float32(learning_rate)
    codes = tree.code_matrix[outputs]  # (B, L)
    points = tree.point_matrix[outputs]  # (B, L)
    lengths = tree.code_lengths[outputs]
    mask = np.arange(tree.max_code_length)[None, :] < lengths[:, None]

    e = embedding[inputs] if input_vectors is None else input_vectors  # (B, D)
    t = hs_output[points]  # (B, L, D)
    scores = np.matmul(t, e[:, :, None])[:, :, 0]
    sig = expit(scores)
    labels = 1.0 - codes
    g = (sig - labels) * mask * lr  # (B, L)

    grad_e = np.matmul(g[:, None, :], t)[:, 0, :]
    sparse_update(hs_output, points, g, e)
    if input_vectors is None:
        scatter_sub(embedding, inputs, grad_e)
    else:
        if input_scatter is None:
            raise ValueError("input_vectors requires input_scatter")
        segments, rows = input_scatter
        scatter_sub(embedding, rows, grad_e[segments])

    if not compute_loss:
        return 0.0
    # loss per node: -log sigma(s) for label 1, -log(1 - sigma(s)) for 0.
    prob = np.where(labels > 0.5, sig, 1.0 - sig)
    prob = np.maximum(prob, _MIN_PROB)
    return float(-(np.log(prob) * mask).sum())
