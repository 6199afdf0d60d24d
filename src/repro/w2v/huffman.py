"""Huffman coding of the vocabulary for hierarchical softmax.

Mikolov et al. (2013) propose hierarchical softmax as an alternative to
negative sampling: the output distribution is a binary Huffman tree over
the vocabulary (frequent words get short codes), and predicting a word
costs one logistic regression per node on its root path.  word2vec.c
builds the tree once from word counts; we reproduce that construction with
the classic two-queue O(V) algorithm over count-sorted leaves.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["HuffmanTree"]


@dataclass
class HuffmanTree:
    """Huffman codes and inner-node paths for every vocabulary word.

    For word ``w``: ``codes[w]`` is its bit string (uint8, left=0/right=1,
    root first) and ``points[w]`` the inner-node ids visited root-first
    (excluding leaves).  Inner nodes are numbered ``0 .. V-2`` and index the
    output-layer matrix used by the HS kernel.  Padded matrix forms
    (``code_matrix``, ``point_matrix``, ``code_lengths``) support the
    vectorized kernel.
    """

    codes: list[np.ndarray]
    points: list[np.ndarray]
    code_matrix: np.ndarray  # (V, max_len) uint8, padded with 0
    point_matrix: np.ndarray  # (V, max_len) int64, padded with 0
    code_lengths: np.ndarray  # (V,) int64

    @property
    def vocab_size(self) -> int:
        return len(self.codes)

    @property
    def num_inner_nodes(self) -> int:
        return max(1, self.vocab_size - 1)

    @property
    def max_code_length(self) -> int:
        return int(self.code_matrix.shape[1])

    @classmethod
    def from_counts(cls, counts: np.ndarray) -> "HuffmanTree":
        counts = np.asarray(counts, dtype=np.int64)
        V = len(counts)
        if V == 0:
            raise ValueError("empty vocabulary")
        if (counts < 0).any():
            raise ValueError("negative count")
        if V == 1:
            # Degenerate tree: a single word needs a 1-bit code against one
            # inner node so the kernel has something to train.
            codes = [np.array([0], dtype=np.uint8)]
            points = [np.array([0], dtype=np.int64)]
            return cls(
                codes=codes,
                points=points,
                code_matrix=np.array([[0]], dtype=np.uint8),
                point_matrix=np.array([[0]], dtype=np.int64),
                code_lengths=np.array([1], dtype=np.int64),
            )

        # Two-queue Huffman construction over leaves sorted by count
        # (word2vec.c's count/binary/parent_node arrays, reproduced).
        order = np.argsort(counts, kind="stable")
        weight = np.empty(2 * V - 1, dtype=np.int64)
        weight[:V] = counts[order]
        weight[V:] = np.iinfo(np.int64).max
        parent = np.zeros(2 * V - 1, dtype=np.int64)
        binary = np.zeros(2 * V - 1, dtype=np.uint8)

        pos1, pos2 = 0, V  # cursors: smallest unused leaf / inner node
        for new in range(V, 2 * V - 1):
            picks = []
            for _ in range(2):
                if pos1 < V and (pos2 >= new or weight[pos1] <= weight[pos2]):
                    picks.append(pos1)
                    pos1 += 1
                else:
                    picks.append(pos2)
                    pos2 += 1
            a, b = picks
            weight[new] = weight[a] + weight[b]
            parent[a] = new
            parent[b] = new
            binary[b] = 1

        root = 2 * V - 2
        codes: list[np.ndarray] = [np.empty(0, np.uint8)] * V
        points: list[np.ndarray] = [np.empty(0, np.int64)] * V
        for leaf_rank in range(V):
            bits = []
            nodes = []
            node = leaf_rank
            while node != root:
                bits.append(binary[node])
                nodes.append(parent[node])
                node = parent[node]
            word = int(order[leaf_rank])
            # Root-first order; inner-node ids shifted to 0..V-2.
            codes[word] = np.array(bits[::-1], dtype=np.uint8)
            points[word] = np.array(nodes[::-1], dtype=np.int64) - V

        max_len = max(len(c) for c in codes)
        code_matrix = np.zeros((V, max_len), dtype=np.uint8)
        point_matrix = np.zeros((V, max_len), dtype=np.int64)
        lengths = np.zeros(V, dtype=np.int64)
        for w in range(V):
            n = len(codes[w])
            lengths[w] = n
            code_matrix[w, :n] = codes[w]
            point_matrix[w, :n] = points[w]
        return cls(
            codes=codes,
            points=points,
            code_matrix=code_matrix,
            point_matrix=point_matrix,
            code_lengths=lengths,
        )
