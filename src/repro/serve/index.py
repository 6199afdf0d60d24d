"""Top-k cosine indexes over an :class:`~repro.serve.store.EmbeddingStore`.

Two implementations behind one :class:`Index` contract:

- :class:`ExactIndex` — brute-force cosine top-k as one *batched* blocked
  matmul (the batched-kernel formulation: many queries amortize one pass
  over the matrix, and the vocabulary is walked in cache-sized row blocks,
  each multiplied store-major against one fixed-height query tile, so
  memory stays bounded at ``32 x block`` instead of ``queries x V``).
  Selection is by running threshold: only scores that reach their
  query's running k-th best are merged, so a block costs its product, a
  copy and one comparison, not a partial sort.
- :class:`LSHIndex` — random-hyperplane locality-sensitive hashing:
  every table hashes each row to a ``bits``-wide sign signature of
  projections onto seeded hyperplanes; queries probe their own bucket
  plus the ``probes`` flip sets (single bits *and* bit pairs, ranked by
  summed projection margin — the perturbation sets most likely to hold
  near neighbors) with the smallest total margin (multi-probe), then the
  candidate union is *exactly* rescored.
  Hyperplanes derive from the seed tree (:func:`repro.util.rng.keyed_rng`),
  so an index is a pure function of ``(store, seed, shape knobs)``.

Both tie-break identically — descending score, then ascending row id, a
total order — so results are bit-reproducible across batch sizes, block
sizes and executors.  :func:`recall_at_k` measures an approximate index
against an exact one on the same queries.
"""

from __future__ import annotations

from typing import Protocol, runtime_checkable

import numpy as np

from repro.serve.store import EmbeddingStore
from repro.util.rng import DEFAULT_SEED, keyed_rng

__all__ = ["Index", "ExactIndex", "LSHIndex", "recall_at_k", "top_k_desc"]

#: Domain tag mixed into LSH seed derivation so the hyperplane streams never
#: collide with other consumers of the same root seed.
_LSH_DOMAIN = 0x4C5348  # "LSH"

#: Multi-probe pair flips are drawn from this many lowest-margin bits;
#: bounds the probe-sequence enumeration at pool + C(pool, 2) flip sets.
_PROBE_PAIR_POOL = 12


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
        if k <= 0:
            raise ValueError(f"k must be positive, got {k}")
        k = min(k, len(self._store))
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


class LSHIndex:
    """Random-hyperplane LSH with multi-probe and exact rescoring.

    ``bits`` defaults to a store-sized choice (aiming at ~16 rows per
    bucket, capped to 24) so small vocabularies do not shatter into empty
    buckets; ``tables`` independent hash tables and ``probes`` extra
    probes per table trade recall for candidate volume.  The probe
    sequence follows the multi-probe construction: flip sets of one or
    two signature bits, ranked by the summed projection margin of the
    flipped bits (the cheapest sign flips are the likeliest to separate a
    near neighbor from the query), ties broken by ascending bit mask.
    Candidates from all tables are unioned and rescored with true cosine,
    so returned scores are exact — only the candidate set is approximate.
    ``k >= len(store)`` bypasses the tables entirely and rescores every
    row, so an over-wide query degrades to exact search instead of
    padding with misses.
    """

    def __init__(
        self,
        store: EmbeddingStore,
        bits: int | None = None,
        tables: int = 6,
        probes: int = 24,
        seed: int = DEFAULT_SEED,
    ):
        if bits is None:
            bits = int(np.clip(np.ceil(np.log2(max(len(store), 2) / 16)), 2, 24))
        if not 1 <= bits <= 62:
            raise ValueError(f"bits must be in [1, 62], got {bits}")
        if tables <= 0:
            raise ValueError(f"tables must be positive, got {tables}")
        if probes < 0:
            raise ValueError(f"probes must be non-negative, got {probes}")
        self._store = store
        self.bits = int(bits)
        self.tables = int(tables)
        pool = min(self.bits, _PROBE_PAIR_POOL)
        self.probes = min(int(probes), self.bits + pool * (pool - 1) // 2)
        self.seed = int(seed)
        normalized = store.normalized()
        self._planes: list[np.ndarray] = []
        self._buckets: list[dict[int, np.ndarray]] = []
        weights = (1 << np.arange(self.bits, dtype=np.int64))
        for table in range(self.tables):
            rng = keyed_rng(self.seed, _LSH_DOMAIN, table)
            planes = rng.standard_normal((self.bits, store.dim)).astype(np.float32)
            self._planes.append(planes)
            signatures = ((normalized @ planes.T) >= 0) @ weights
            buckets: dict[int, np.ndarray] = {}
            order = np.argsort(signatures, kind="stable")
            sorted_sigs = signatures[order]
            boundaries = np.flatnonzero(np.diff(sorted_sigs)) + 1
            for group in np.split(order, boundaries):
                buckets[int(signatures[group[0]])] = np.sort(group).astype(np.int64)
            self._buckets.append(buckets)

    @property
    def store(self) -> EmbeddingStore:
        return self._store

    def _flip_masks(self, proj: np.ndarray) -> np.ndarray:
        """The ``probes`` perturbation masks for one query's projections.

        Flip sets of size one (every bit) and size two (pairs among the
        ``_PROBE_PAIR_POOL`` lowest-margin bits), ranked by the summed
        projection margin of the flipped bits; ties break on the ascending
        mask value so the sequence is deterministic.
        """
        margins = np.abs(proj)
        order = np.argsort(margins, kind="stable")
        costs = [margins[b] for b in order]
        masks = [1 << int(b) for b in order]
        pool = order[: min(self.bits, _PROBE_PAIR_POOL)]
        for i in range(len(pool)):
            for j in range(i + 1, len(pool)):
                bi, bj = int(pool[i]), int(pool[j])
                costs.append(margins[bi] + margins[bj])
                masks.append((1 << bi) | (1 << bj))
        costs = np.asarray(costs, dtype=np.float64)
        masks = np.asarray(masks, dtype=np.int64)
        pick = np.lexsort((masks, costs))[: self.probes]
        return masks[pick]

    def candidates(self, query: np.ndarray) -> np.ndarray:
        """Sorted unique candidate row ids for one (raw) query vector."""
        q = _normalize_queries(query, self._store.dim)[0]
        found: list[np.ndarray] = []
        for planes, buckets in zip(self._planes, self._buckets):
            proj = planes @ q
            sig = int(((proj >= 0) @ (1 << np.arange(self.bits, dtype=np.int64))))
            # Multi-probe: the base bucket plus the flip sets whose signs
            # are likeliest to differ for near neighbors.
            probe_sigs = [sig]
            probe_sigs.extend(sig ^ int(mask) for mask in self._flip_masks(proj))
            for probe in probe_sigs:
                hit = buckets.get(probe)
                if hit is not None:
                    found.append(hit)
        if not found:
            return np.empty(0, dtype=np.int64)
        return np.unique(np.concatenate(found))

    def search(self, queries: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
        if k <= 0:
            raise ValueError(f"k must be positive, got {k}")
        normalized = self._store.normalized()
        k = min(k, len(self._store))
        q = _normalize_queries(queries, self._store.dim)
        n = q.shape[0]
        out_ids = np.full((n, k), -1, dtype=np.int64)
        out_scores = np.full((n, k), -np.inf, dtype=np.float32)
        all_rows = np.arange(len(self._store), dtype=np.int64)
        for i in range(n):
            # k covering the whole store degrades to an exact scan — an
            # over-wide query must not pad with misses.
            cands = all_rows if k >= len(self._store) else self.candidates(q[i])
            if cands.size == 0:
                continue
            scores = (normalized[cands] @ q[i]).astype(np.float32)
            ids, scores = top_k_desc(scores[None, :], cands[None, :], k)
            width = ids.shape[1]
            out_ids[i, :width] = ids[0]
            out_scores[i, :width] = scores[0]
        return out_ids, out_scores


def recall_at_k(
    approx: Index, exact: Index, queries: np.ndarray, k: int = 10
) -> float:
    """Fraction of the exact top-``k`` the approximate index recovers.

    Averaged over queries; the standard recall@k score for ANN indexes.
    """
    if k <= 0:
        raise ValueError(f"k must be positive, got {k}")
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
