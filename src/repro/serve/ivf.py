"""IVF: coarse-quantized top-k with exact (or int8-code) rescoring.

An :class:`IVFIndex` partitions the store's normalized rows into ``nlist``
*cells* with seed-deterministic spherical k-means, then answers a query by
scoring the ``nlist`` cell centroids, visiting only the ``nprobe`` best
cells, and rescoring their members.  The cell math:

- **build** — centroids are unit vectors; row ``r`` lives in
  ``argmax_c  normalized[r] . centroid[c]`` (lowest cell id on ties), and
  rows are stored grouped by cell so each cell is one contiguous slice of a
  reordered matrix (the IVF analogue of the exact index's row blocks).
- **search** — cells are ranked by ``centroid . q`` with the same
  descending-score / ascending-id tie-break every index uses, the top
  ``nprobe`` are probed, and every member row is rescored: by true cosine
  against the float32 matrix (the default — only the *candidate set* is
  approximate), or against int8 codes (:mod:`repro.serve.quant`) when a
  quantized store variant is attached.

Each query is processed independently (centroid scoring and rescoring are
per-query matrix-vector products over contiguous cell slices), so batched
search is *bitwise* identical to unbatched search by construction — the
same parity contract :class:`~repro.serve.index.ExactIndex` maintains with
fixed-shape tiling.  ``nprobe`` is a plain attribute: ranking cells once
and probing a prefix means candidate sets grow monotonically with
``nprobe``, so recall@k is monotone non-decreasing in it, and
``nprobe >= nlist`` (or ``k >= len(store)``) degrades to an exact scan.

Everything stochastic (k-means init, training subsample) flows through
:func:`repro.util.rng.keyed_rng`, so an index is a pure function of
``(store, seed, shape knobs)``.
"""

from __future__ import annotations

import numpy as np

from repro.serve.index import _normalize_queries, top_k_desc
from repro.serve.store import EmbeddingStore
from repro.util.checks import positive_integer
from repro.util.rng import DEFAULT_SEED, Domain, keyed_rng

__all__ = ["IVFIndex", "kmeans", "assign_cells", "default_nlist"]

#: Row-block size for the blocked assignment/update passes.
_KMEANS_BLOCK = 8192


def default_nlist(vocab_size: int) -> int:
    """The default cell count: ``~sqrt(V)``, clamped to ``[1, 4096]``.

    Square-root sizing balances the two costs a probe pays — ranking
    ``nlist`` centroids and rescoring ``nprobe * V / nlist`` members.
    """
    if vocab_size <= 0:
        raise ValueError(f"vocab_size must be positive, got {vocab_size}")
    return int(np.clip(round(np.sqrt(vocab_size)), 1, 4096))


def assign_cells(
    points: np.ndarray,
    centroids: np.ndarray,
    block_rows: int = _KMEANS_BLOCK,
) -> np.ndarray:
    """Deterministic cell assignment: highest dot product, lowest id on ties.

    ``points`` is walked in ``block_rows`` row blocks so the score buffer
    stays bounded at ``block_rows x nlist``.
    """
    n = points.shape[0]
    out = np.empty(n, dtype=np.int64)
    for start in range(0, n, block_rows):
        block = points[start : start + block_rows]
        # np.argmax returns the *first* maximum, i.e. the lowest cell id.
        out[start : start + block_rows] = np.argmax(block @ centroids.T, axis=1)
    return out


def kmeans(
    points: np.ndarray,
    k: int,
    rng: np.random.Generator,
    iters: int = 8,
    sample: int | None = 65536,
) -> np.ndarray:
    """Seed-deterministic spherical k-means; returns ``(k, dim)`` float32
    unit centroids.

    Centroids are re-normalized every iteration and assignment maximizes
    the dot product (points are expected row-normalized) — the IVF coarse
    cells.

    Determinism: initialization draws ``k`` distinct rows from ``rng``, the
    training set is an ``rng``-drawn subsample of at most ``sample`` rows
    (processed in ascending row order), assignment breaks ties toward the
    lowest centroid id, and the member sum of each update runs in row
    order.  Empty cells keep their previous centroid.  A fixed ``iters``
    refinement passes run — no data-dependent early exit — so the result is
    a pure function of ``(points, k, rng state, knobs)``.
    """
    if iters < 0:
        raise ValueError(f"iters must be non-negative, got {iters}")
    points = np.ascontiguousarray(points, dtype=np.float32)
    n = points.shape[0]
    if not 1 <= k <= n:
        raise ValueError(f"k must be in [1, {n}], got {k}")
    if sample is not None and sample < n:
        train = points[np.sort(rng.choice(n, size=sample, replace=False))]
    else:
        train = points
    init = np.sort(rng.choice(train.shape[0], size=k, replace=False))
    centroids = _unit_rows(train[init])
    for _ in range(iters):
        assignment = assign_cells(train, centroids)
        order = np.argsort(assignment, kind="stable")
        grouped = train[order]
        sizes = np.bincount(assignment, minlength=k)
        starts = np.concatenate([[0], np.cumsum(sizes)[:-1]])
        occupied = sizes > 0
        # reduceat sums members in (stable-sorted) row order: deterministic.
        sums = np.add.reduceat(grouped, starts, axis=0, dtype=np.float64)
        means = (sums[occupied] / sizes[occupied, None]).astype(np.float32)
        updated = centroids.copy()
        updated[occupied] = _unit_rows(means, fallback=centroids[occupied])
        centroids = updated
    return np.ascontiguousarray(centroids, dtype=np.float32)


def _unit_rows(rows: np.ndarray, fallback: np.ndarray | None = None) -> np.ndarray:
    """Row-normalize; zero rows fall back to ``fallback`` (or stay zero)."""
    norms = np.linalg.norm(rows, axis=1, keepdims=True)
    out = (rows / np.where(norms > 0, norms, 1.0)).astype(np.float32)
    if fallback is not None:
        zero = norms[:, 0] == 0
        if np.any(zero):
            out[zero] = fallback[zero]
    return out


class IVFIndex:
    """Inverted-file cosine top-k: probe ``nprobe`` of ``nlist`` cells.

    ``nlist`` defaults to :func:`default_nlist`; ``nprobe`` is a plain
    attribute and may be changed between searches (the cell layout does not
    depend on it), which is how the frontier sweep walks the recall/QPS
    trade-off on one build.  ``codes`` optionally attaches a quantized
    store variant (:class:`~repro.serve.quant.Int8Store` built over the
    *same* store): rescoring then reads the codes instead of the float32
    matrix — 4x smaller, at the cost of approximate scores bounded by the
    variant's documented reconstruction error.  The index reaches the codes
    only through their ``prepare_query`` / ``score`` protocol.

    Member rows are stored grouped by cell (one contiguous slice per cell)
    so rescoring is a handful of contiguous matrix-vector products — the
    same blocked-matmul discipline as
    :class:`~repro.serve.index.ExactIndex`, restricted to probed cells.
    """

    def __init__(
        self,
        store: EmbeddingStore,
        nlist: int | None = None,
        nprobe: int = 8,
        seed: int = DEFAULT_SEED,
        codes=None,
        kmeans_iters: int = 8,
        train_sample: int | None = 65536,
        centroids: np.ndarray | None = None,
    ):
        V = len(store)
        if V == 0:
            raise ValueError("cannot build an IVFIndex over an empty store")
        if nlist is None:
            nlist = default_nlist(V)
        if not 1 <= nlist <= V:
            raise ValueError(f"nlist must be in [1, {V}], got {nlist}")
        if nprobe <= 0:
            raise ValueError(f"nprobe must be positive, got {nprobe}")
        self._store = store
        self.nlist = int(nlist)
        self.nprobe = int(nprobe)
        self.seed = int(seed)
        normalized = store.normalized()
        if centroids is None:
            rng = keyed_rng(self.seed, Domain.IVF, self.nlist)
            centroids = kmeans(
                normalized, self.nlist, rng, iters=kmeans_iters, sample=train_sample
            )
        else:
            # Reusing another same-seed build's centroids skips the k-means
            # pass (e.g. attaching code variants to one cell layout); the
            # caller owns the determinism of what it passes in.
            centroids = np.ascontiguousarray(centroids, dtype=np.float32)
            if centroids.shape != (self.nlist, store.dim):
                raise ValueError(
                    f"centroids shape {centroids.shape} does not match "
                    f"(nlist={self.nlist}, dim={store.dim})"
                )
        self._centroids = centroids
        assignment = assign_cells(normalized, self._centroids)
        order = np.argsort(assignment, kind="stable")
        self._row_of_position = order.astype(np.int64)
        sizes = np.bincount(assignment, minlength=self.nlist)
        self._offsets = np.concatenate([[0], np.cumsum(sizes)]).astype(np.int64)
        self._codes = codes
        if codes is None:
            self._cell_matrix = np.ascontiguousarray(normalized[order])
            self._cell_codes = None
        else:
            if codes.vocab_size != V or codes.dim != store.dim:
                raise ValueError(
                    f"codes cover ({codes.vocab_size}, {codes.dim}), "
                    f"store is ({V}, {store.dim})"
                )
            if codes.store_sha256 != store.content_sha256():
                raise ValueError(
                    f"codes were built from the store with content sha256 "
                    f"{codes.store_sha256[:16]}..., not from this store "
                    f"({store.content_sha256()[:16]}...)"
                )
            self._cell_matrix = None
            self._cell_codes = np.ascontiguousarray(codes.codes[order])

    # -- introspection -----------------------------------------------------
    @property
    def store(self) -> EmbeddingStore:
        return self._store

    @property
    def centroids(self) -> np.ndarray:
        return self._centroids

    def probe_cells(self, query: np.ndarray, nprobe: int | None = None) -> np.ndarray:
        """The ranked cell ids one (raw) query would probe."""
        q = _normalize_queries(query, self._store.dim)[0]
        nprobe = self.nprobe if nprobe is None else int(nprobe)
        nprobe = min(max(1, nprobe), self.nlist)
        sims = self._centroids @ q
        cells, _ = top_k_desc(
            sims[None, :], np.arange(self.nlist, dtype=np.int64)[None, :], nprobe
        )
        return cells[0]

    # -- search ------------------------------------------------------------
    def _candidate_positions(self, cells: np.ndarray) -> np.ndarray:
        spans = [
            np.arange(self._offsets[c], self._offsets[c + 1], dtype=np.int64)
            for c in cells
        ]
        if not spans:
            return np.empty(0, dtype=np.int64)
        return np.concatenate(spans)

    def _rescore(self, positions: np.ndarray, q: np.ndarray, ctx) -> np.ndarray:
        if self._codes is None:
            return (self._cell_matrix[positions] @ q).astype(np.float32)
        return self._codes.score(self._cell_codes[positions], ctx)

    def search(self, queries: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
        V = len(self._store)
        k = min(positive_integer(k, "k"), V)
        q = _normalize_queries(queries, self._store.dim)
        n = q.shape[0]
        out_ids = np.full((n, k), -1, dtype=np.int64)
        out_scores = np.full((n, k), -np.inf, dtype=np.float32)
        # k covering the whole store must return the exact ranking, so the
        # probe set widens to every cell (an exact scan through the cell
        # layout); likewise nprobe >= nlist is simply exhaustive search.
        nprobe = min(max(1, int(self.nprobe)), self.nlist)
        exhaustive = nprobe >= self.nlist or k >= V
        all_positions = np.arange(V, dtype=np.int64)
        for i in range(n):
            if exhaustive:
                positions = all_positions
            else:
                positions = self._candidate_positions(self.probe_cells(q[i], nprobe))
            if positions.size == 0:
                continue
            ctx = None if self._codes is None else self._codes.prepare_query(q[i])
            scores = self._rescore(positions, q[i], ctx)
            ids = self._row_of_position[positions]
            ids, scores = top_k_desc(scores[None, :], ids[None, :], k)
            width = ids.shape[1]
            out_ids[i, :width] = ids[0]
            out_scores[i, :width] = scores[0]
        return out_ids, out_scores

    def __repr__(self) -> str:
        rescoring = "float32" if self._codes is None else type(self._codes).__name__
        return (
            f"IVFIndex(vocab={len(self._store)}, nlist={self.nlist}, "
            f"nprobe={self.nprobe}, rescoring={rescoring})"
        )
