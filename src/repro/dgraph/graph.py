"""Immutable CSR graph.

The in-memory representation used by every graph application and by each
host's local portion of a :class:`~repro.dgraph.dist_graph.DistGraph`.
Stored in compressed sparse row form: ``indptr`` (length N+1) and
``indices`` (length E), with optional per-edge data.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

__all__ = ["Graph"]


class Graph:
    """Directed graph in CSR form with optional edge data."""

    def __init__(
        self,
        indptr: np.ndarray,
        indices: np.ndarray,
        edge_data: np.ndarray | None = None,
    ):
        self.indptr = np.asarray(indptr, dtype=np.int64)
        self.indices = np.asarray(indices, dtype=np.int64)
        if self.indptr.ndim != 1 or self.indptr[0] != 0:
            raise ValueError("indptr must be 1-D and start at 0")
        if int(self.indptr[-1]) != len(self.indices):
            raise ValueError(
                f"indptr[-1]={self.indptr[-1]} != num edges {len(self.indices)}"
            )
        if np.any(np.diff(self.indptr) < 0):
            raise ValueError("indptr must be non-decreasing")
        self.edge_data = None
        if edge_data is not None:
            self.edge_data = np.asarray(edge_data)
            if len(self.edge_data) != len(self.indices):
                raise ValueError("edge_data length must equal edge count")

    # -- construction --------------------------------------------------------
    @classmethod
    def from_edges(
        cls,
        src: Iterable[int] | np.ndarray,
        dst: Iterable[int] | np.ndarray,
        num_nodes: int,
        edge_data: np.ndarray | None = None,
        symmetric: bool = False,
    ) -> "Graph":
        """Build from an edge list; ``symmetric=True`` adds reverse edges."""
        src = np.asarray(src, dtype=np.int64)
        dst = np.asarray(dst, dtype=np.int64)
        if src.shape != dst.shape:
            raise ValueError("src/dst length mismatch")
        if src.size and (min(src.min(), dst.min()) < 0 or max(src.max(), dst.max()) >= num_nodes):
            raise ValueError(f"edge endpoint out of range [0, {num_nodes})")
        data = None if edge_data is None else np.asarray(edge_data)
        if symmetric:
            src, dst = np.concatenate([src, dst]), np.concatenate([dst, src])
            if data is not None:
                data = np.concatenate([data, data])
        order = np.argsort(src, kind="stable")
        src_sorted, dst_sorted = src[order], dst[order]
        counts = np.bincount(src_sorted, minlength=num_nodes)
        indptr = np.zeros(num_nodes + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
        return cls(indptr, dst_sorted, None if data is None else data[order])

    # -- queries --------------------------------------------------------------
    @property
    def num_nodes(self) -> int:
        return len(self.indptr) - 1

    @property
    def num_edges(self) -> int:
        return len(self.indices)

    def out_neighbors(self, node: int) -> np.ndarray:
        return self.indices[self.indptr[node] : self.indptr[node + 1]]

    def out_edge_data(self, node: int) -> np.ndarray:
        if self.edge_data is None:
            raise ValueError("graph has no edge data")
        return self.edge_data[self.indptr[node] : self.indptr[node + 1]]

    def edge_slices(self, nodes: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
        """Flattened (srcs, dsts, data) over the out-edges of ``nodes``.

        Vectorized gather used by the BSP operators: repeats each source for
        its degree and concatenates the adjacency slices.
        """
        nodes = np.asarray(nodes, dtype=np.int64)
        starts = self.indptr[nodes]
        stops = self.indptr[nodes + 1]
        lengths = stops - starts
        total = int(lengths.sum())
        if total == 0:
            empty = np.empty(0, dtype=np.int64)
            return empty, empty, (None if self.edge_data is None else self.edge_data[:0])
        # Offsets into the concatenated edge range for each source node.
        edge_idx = np.repeat(starts - np.concatenate(([0], np.cumsum(lengths)[:-1])), lengths) + np.arange(total)
        srcs = np.repeat(nodes, lengths)
        dsts = self.indices[edge_idx]
        data = None if self.edge_data is None else self.edge_data[edge_idx]
        return srcs, dsts, data

    def __repr__(self) -> str:
        return f"Graph(nodes={self.num_nodes}, edges={self.num_edges})"
