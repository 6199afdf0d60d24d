"""Top-k cosine search over an :class:`~repro.serve.store.EmbeddingStore`.

:class:`ExactIndex` is brute-force cosine top-k as one *batched* blocked
matmul (the batched-kernel formulation: many queries amortize one pass
over the matrix, and the vocabulary is walked in cache-sized row blocks,
each multiplied store-major against one fixed-height query tile, so
memory stays bounded at ``32 x block`` instead of ``queries x V``).
Selection is by running threshold: only scores that reach their query's
running k-th best are merged, so a block costs its product, a copy and
one comparison, not a partial sort.

Ties break by descending score, then ascending row id — a total order,
shared by every index behind the :class:`Index` contract — so results are
bit-reproducible across batch sizes, block sizes and executors.
:func:`recall_at_k` measures an approximate index against an exact one on
the same queries.
"""

from __future__ import annotations

from typing import Protocol, runtime_checkable

import numpy as np

from repro.serve.store import EmbeddingStore
from repro.util.checks import positive_integer

__all__ = ["Index", "ExactIndex", "recall_at_k", "top_k_desc"]


def top_k_desc(scores: np.ndarray, ids: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Per-row top-``k`` of ``(scores, ids)`` candidates, deterministically.

    ``scores``/``ids`` are ``(n, m)`` parallel candidate arrays; rows with
    fewer than ``k`` real candidates are padded with ``id -1 / score -inf``
    by the caller.  Order is descending score with ascending id breaking
    ties, which makes results independent of candidate arrangement.
    """
    k = min(k, scores.shape[1])
    order = np.lexsort((ids, -scores), axis=-1)[:, :k]
    rows = np.arange(scores.shape[0])[:, None]
    return ids[rows, order], scores[rows, order]


def _merge_survivors(
    best_ids: np.ndarray,
    best_scores: np.ndarray,
    queries: np.ndarray,
    ids: np.ndarray,
    scores: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """The running ``(n, k)`` best merged with one block's survivors.

    ``(queries, ids, scores)`` are flat survivor arrays.  One lexsort
    orders every candidate by query, then descending score, then ascending
    id, and each query keeps its first ``k`` — the total order, so ties
    are decided here and nowhere else.  Every query brings at least ``k``
    candidates (its running best, padded with ``-1 / -inf``), so the kept
    ones fill ``(n, k)`` exactly.
    """
    n, k = best_ids.shape
    queries = np.concatenate([np.repeat(np.arange(n), k), queries])
    ids = np.concatenate([best_ids.ravel(), ids])
    scores = np.concatenate([best_scores.ravel(), scores])
    order = np.lexsort((ids, -scores, queries))
    grouped = queries[order]
    rank = np.arange(len(order)) - np.searchsorted(grouped, grouped)  # position in its query
    keep = order[rank < k]
    return ids[keep].reshape(n, k), scores[keep].reshape(n, k)


def _check_queries(queries: np.ndarray, dim: int) -> np.ndarray:
    """``queries`` as a C-contiguous float32 ``(n, dim)`` array of finite rows."""
    queries = np.ascontiguousarray(np.atleast_2d(queries), dtype=np.float32)
    if queries.ndim != 2 or queries.shape[1] != dim:
        raise ValueError(
            f"queries must be (n, {dim}), got shape {queries.shape}"
        )
    finite = np.isfinite(queries).all(axis=1)
    if not finite.all():
        bad = np.flatnonzero(~finite)[0]
        raise ValueError(f"queries must be finite, row {bad} holds NaN or inf")
    return queries


def _normalize_queries(queries: np.ndarray, dim: int) -> np.ndarray:
    queries = _check_queries(queries, dim)
    norms = np.linalg.norm(queries, axis=1, keepdims=True)
    return queries / np.where(norms > 0, norms, 1.0)


@runtime_checkable
class Index(Protocol):
    """Search contract: batched cosine top-k over a store.

    ``search`` takes raw (unnormalized) query vectors ``(n, dim)`` and
    returns ``(ids, scores)`` arrays of shape ``(n, k)``: row ids into the
    store ordered by descending cosine (ascending id on ties), and the
    cosine scores.  Rows an approximate index could not fill are padded
    with ``id -1`` and ``score -inf``.
    """

    @property
    def store(self) -> EmbeddingStore: ...  # pragma: no cover - protocol

    def search(
        self, queries: np.ndarray, k: int
    ) -> tuple[np.ndarray, np.ndarray]: ...  # pragma: no cover - protocol


class ExactIndex:
    """Blocked brute-force cosine top-k.

    The normalized store is walked in ``block_rows``-row blocks, which
    bounds the score buffer, and each block's survivors are merged into the
    running best.  Every product the index issues is
    ``block @ tile.T`` — store-major, the BLAS shape that packs the large
    store operand without a transposing copy — against one zero-padded
    ``(query_block, dim)`` tile, so each store block sees an identical
    GEMM shape no matter how callers batch their queries.  BLAS kernels
    round differently for different shapes; pinning the shape makes results
    *bit-identical* whether a query arrives alone or inside any batch — the
    parity the serving layer's determinism contract relies on.  Only the
    real query columns of a product are copied (query-major, into one
    ``(queries, block_rows)`` buffer per panel) and selected, so a
    part-filled tile pays the fixed GEMM but no selection on padding.

    Selection keeps a per-query threshold: the k-th largest score of the
    panel's first block (one ``np.partition``), then the k-th best of the
    running top-k.  Every block — the first included — hands the merge
    only the scores ``>=`` their query's threshold; a lower score is
    beaten by k others and cannot enter the answer.  The merge sorts the
    running best and the survivors by (score desc, id asc) and keeps k per
    query.  That order is the contract, and it is decided there: ``>=``
    keeps every row tied with the k-th score, so exact ties at any block
    or k boundary go to the lowest ids.  A zero-norm query ties every row
    (all scores 0): all of its rows survive, at most ``block_rows`` per
    block, and its ids come out ascending.
    """

    #: Query tile height: a measured constant, not a knob (parity is a
    #: per-value contract).  50 000 x 64 store, one BLAS thread, GEMM ms
    #: per 32-query batch / per single tile: height 8 5.7 / 1.5, 16 3.7 /
    #: 1.8, 32 2.8 / 2.7 — 16 is the smallest tile whose full batches are
    #: not slower than the query-major 32-row tile it replaced (3.7;
    #: EXPERIMENTS.md "Scan kernel").  A ladder of heights would rest
    #: parity on BLAS rounding not depending on the height — false: GEMV
    #: (one-row operands) and OpenBLAS's small-matrix kernel (short store
    #: blocks) round differently.
    query_block = 16

    def __init__(self, store: EmbeddingStore, block_rows: int = 8192):
        if block_rows <= 0:
            raise ValueError(f"block_rows must be positive, got {block_rows}")
        self._store = store
        self.block_rows = int(block_rows)

    @property
    def store(self) -> EmbeddingStore:
        return self._store

    def _search_panel(self, q: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
        """Top-k for a panel of at most two tiles of normalized queries."""
        normalized = self._store.normalized()
        V = normalized.shape[0]
        n = q.shape[0]
        tiles = np.zeros((2 * self.query_block, q.shape[1]), dtype=np.float32)
        tiles[:n] = q  # C-contiguous; a part-filled tile zero-padded to full height
        best_ids = np.full((n, k), -1, dtype=np.int64)
        best_scores = np.full((n, k), -np.inf, dtype=np.float32)
        buffer = np.empty((n, min(self.block_rows, V)), dtype=np.float32)
        threshold = None
        for start in range(0, V, self.block_rows):
            block = normalized[start : start + self.block_rows]
            scores = buffer[:, : block.shape[0]]  # query-major, real rows only
            for lo in range(0, n, self.query_block):
                fill = min(self.query_block, n - lo)
                tile = tiles[lo : lo + self.query_block]
                scores[lo : lo + fill] = (block @ tile.T)[:, :fill].T
            if threshold is None:  # seed: each query's k-th best in the first block
                width = scores.shape[1]
                threshold = (
                    np.partition(scores, width - k, axis=1)[:, width - k]
                    if width > k
                    else np.full(n, -np.inf, dtype=np.float32)
                )
            # A score below its query's running k-th best cannot enter the
            # top-k; one tied with it can, so ">=" keeps it.
            queries, rows = np.divmod(
                np.flatnonzero(scores >= threshold[:, None]), scores.shape[1]
            )
            if len(queries):
                best_ids, best_scores = _merge_survivors(
                    best_ids, best_scores, queries, rows + start, scores[queries, rows]
                )
                threshold = best_scores[:, k - 1]
        return best_ids, best_scores

    def search(self, queries: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
        k = min(positive_integer(k, "k"), len(self._store))
        q = _normalize_queries(queries, self._store.dim)
        n = q.shape[0]
        out_ids = np.empty((n, k), dtype=np.int64)
        out_scores = np.empty((n, k), dtype=np.float32)
        # Panels of two tiles (the engine's search_block): one selection
        # pass per store block, score buffer bounded at 32 x block_rows.
        panel = 2 * self.query_block
        for start in range(0, n, panel):
            sl = slice(start, start + panel)
            out_ids[sl], out_scores[sl] = self._search_panel(q[sl], k)
        return out_ids, out_scores


def recall_at_k(
    approx: Index, exact: Index, queries: np.ndarray, k: int = 10
) -> float:
    """Fraction of the exact top-``k`` the approximate index recovers.

    Averaged over queries; the standard recall@k score for ANN indexes.
    """
    k = positive_integer(k, "k")
    exact_ids, _ = exact.search(queries, k)
    approx_ids, _ = approx.search(queries, k)
    hits = 0
    total = 0
    for row in range(exact_ids.shape[0]):
        truth = set(int(i) for i in exact_ids[row] if i >= 0)
        if not truth:
            continue
        got = set(int(i) for i in approx_ids[row] if i >= 0)
        hits += len(truth & got)
        total += len(truth)
    return hits / total if total else 1.0
