"""Hypothesis battery over the serving indexes (Exact / IVF).

Contracts hunted over random stores/seeds: batched search is *bitwise*
identical to one-query-at-a-time search, IVF recall@k is monotone
non-decreasing in ``nprobe``, ``k`` covering the vocab degrades every
index to the exact ranking, exactly-tied scores (duplicate rows) always
break toward the lowest id, the engine's cache accounting is a pure
function of the query stream (invariant to ``max_batch``, even when the
cache is smaller than a batch), and the sharded scatter-gather merge is
bitwise invariant to the shard/replica layout — also where the exact scan
could break it: a one-row tail block (scored by GEMV, not GEMM), slices
that straddle tile and panel boundaries, zero-norm queries and exact ties
across the k boundary.  Exact search is the total order (score desc, id
asc) over the full product, ids and score bits, for any block grid, tie
layout, k and batch.
"""

from hypothesis import given, settings
from hypothesis import strategies as st
import numpy as np

from repro.serve.engine import QueryEngine
from repro.serve.index import ExactIndex, recall_at_k
from repro.serve.ivf import IVFIndex
from repro.serve.shard import ShardedIndex, ShardPlan
from repro.serve.store import EmbeddingStore
from repro.util.rng import keyed_rng
from tests.test_serve_index import full_product_topk

_MATRIX_DOMAIN = 0x50525250  # "PRP" — property-test stores
_QUERY_DOMAIN = 0x505251  # "PQR" — property-test queries

INDEX_KINDS = ("exact", "ivf")


def make_store(V, d, seed, duplicates=0):
    rng = keyed_rng(seed, _MATRIX_DOMAIN, V, d)
    matrix = rng.normal(size=(V, d)).astype(np.float32)
    for row in range(1, duplicates + 1):
        matrix[row] = matrix[0]
    return EmbeddingStore(matrix, [f"w{i:04d}" for i in range(V)])


def make_queries(store, n, seed):
    rng = keyed_rng(seed, _QUERY_DOMAIN, n)
    return store.matrix[rng.choice(len(store), n)]


def build_index(kind, store, seed):
    if kind == "exact":
        return ExactIndex(store, block_rows=32)
    return IVFIndex(store, nlist=max(2, len(store) // 10), nprobe=2, seed=seed)


seeds = st.integers(min_value=0, max_value=2**32 - 1)


class TestBatchedUnbatchedParity:
    @settings(max_examples=25, deadline=None)
    @given(seed=seeds, kind=st.sampled_from(INDEX_KINDS), k=st.integers(1, 12))
    def test_bitwise_parity(self, seed, kind, k):
        store = make_store(V=80, d=16, seed=seed)
        index = build_index(kind, store, seed)
        queries = make_queries(store, 10, seed)
        ids_all, scores_all = index.search(queries, k)
        for i in range(queries.shape[0]):
            ids_one, scores_one = index.search(queries[i], k)
            np.testing.assert_array_equal(ids_one[0], ids_all[i])
            np.testing.assert_array_equal(scores_one[0], scores_all[i])


class TestExactScanSliceParity:
    @settings(max_examples=30, deadline=None)
    @given(
        seed=seeds,
        blocks=st.integers(1, 3),
        block_rows=st.integers(2, 40),
        offset=st.integers(0, 40),
        fill=st.integers(1, 33),
        k=st.sampled_from([1, 10, 10**6]),
        workers=st.sampled_from([None, 4]),
    )
    def test_any_slice_of_any_batch_bitwise(
        self, seed, blocks, block_rows, offset, fill, k, workers
    ):
        """Whatever slice of a 70-query batch a caller sends — any fill,
        any offset into the tile / panel grid — every row gets the bits it
        gets in the full batch, from the index and from its sharded twin,
        on a store whose tail block is a single row."""
        V = blocks * block_rows + 1
        store = make_store(V, d=12, seed=seed, duplicates=min(12, V - 2))
        queries = make_queries(store, 70, seed).copy()
        queries[::7] = store.matrix[0]  # ties across the k boundary
        queries[3::7] = 0.0  # zero-norm rows stay legal
        plan = ShardPlan(V, num_shards=min(2, blocks), block_rows=block_rows)
        reference = plan.reference_index(store)
        sharded = ShardedIndex(store, plan=plan, workers=workers)
        full_ids, full_scores = reference.search(queries, k)
        sl = slice(offset, offset + fill)
        for index in (reference, sharded):
            ids, scores = index.search(queries[sl], k)
            np.testing.assert_array_equal(ids, full_ids[sl])
            assert scores.tobytes() == full_scores[sl].tobytes()


class TestExactTotalOrder:
    @settings(max_examples=40, deadline=None)
    @given(
        seed=seeds,
        V=st.integers(1, 120),
        block_rows=st.integers(1, 50),
        tied=st.integers(0, 30),
        k=st.integers(1, 130),
        n=st.sampled_from([1, 5, 17, 32, 40]),
    )
    def test_equals_full_product_lexsort(self, seed, V, block_rows, tied, k, n):
        """Copies of row 0 scattered over the grid tie at any k boundary and
        across blocks; zero-norm queries tie every row; ``block_rows`` may
        be below k, k above V, the tail block a single row."""
        matrix = make_store(V, d=8, seed=seed).matrix.copy()
        rng = keyed_rng(seed, _MATRIX_DOMAIN, 0x544945)  # "TIE"
        matrix[rng.choice(V, min(tied, V), replace=False)] = matrix[0]
        store = EmbeddingStore(matrix, [f"w{i:04d}" for i in range(V)])
        index = ExactIndex(store, block_rows=block_rows)
        queries = make_queries(store, n, seed).copy()
        queries[::3] = store.matrix[0]
        queries[1::5] = 0.0
        ids, scores = index.search(queries, k)
        want_ids, want_scores = full_product_topk(index, queries, k)
        np.testing.assert_array_equal(ids, want_ids)
        assert scores.tobytes() == want_scores.tobytes()


class TestNprobeMonotonicity:
    @settings(max_examples=20, deadline=None)
    @given(seed=seeds, k=st.integers(1, 10))
    def test_recall_non_decreasing_in_nprobe(self, seed, k):
        store = make_store(V=120, d=12, seed=seed)
        exact = ExactIndex(store)
        queries = make_queries(store, 16, seed)
        ivf = IVFIndex(store, nlist=12, nprobe=1, seed=seed)
        recalls = []
        for nprobe in (1, 2, 4, 8, 12):
            ivf.nprobe = nprobe
            recalls.append(recall_at_k(ivf, exact, queries, k=k))
        assert all(a <= b for a, b in zip(recalls, recalls[1:])), recalls
        assert recalls[-1] == 1.0  # nprobe == nlist is an exhaustive scan


class TestKCoversVocab:
    @settings(max_examples=20, deadline=None)
    @given(seed=seeds, kind=st.sampled_from(INDEX_KINDS), extra=st.integers(0, 7))
    def test_degrades_to_exact(self, seed, kind, extra):
        """k >= vocab must return *every* row with the exact scores.

        Ids are compared as the full row set and scores per-id (exact and
        approximate paths may sum in different float orders, so the rank
        of two near-tied rows is not pinned — their scores are).
        """
        store = make_store(V=40, d=12, seed=seed)
        index = build_index(kind, store, seed)
        exact = ExactIndex(store)
        queries = make_queries(store, 6, seed)
        k = len(store) + extra
        ids, scores = index.search(queries, k)
        exact_ids, exact_scores = exact.search(queries, k)
        assert ids.shape == exact_ids.shape == (6, len(store))
        for row in range(queries.shape[0]):
            assert sorted(ids[row].tolist()) == list(range(len(store)))
            assert np.all(np.diff(scores[row]) <= 1e-6)  # descending
            by_id = scores[row][np.argsort(ids[row])]
            exact_by_id = exact_scores[row][np.argsort(exact_ids[row])]
            np.testing.assert_allclose(by_id, exact_by_id, atol=1e-5)


class TestTieBreaking:
    @settings(max_examples=20, deadline=None)
    @given(seed=seeds, kind=st.sampled_from(INDEX_KINDS), dupes=st.integers(1, 6))
    def test_equal_scores_break_toward_lowest_id(self, seed, kind, dupes):
        """Bitwise-identical rows score identically; ids must come out
        ascending — the shared tie-break contract of every index."""
        store = make_store(V=60, d=10, seed=seed, duplicates=dupes)
        index = build_index(kind, store, seed)
        ids, scores = index.search(store.matrix[0], dupes + 1)
        group = ids[0, : dupes + 1]
        assert group.tolist() == list(range(dupes + 1))
        assert np.all(scores[0, : dupes + 1] == scores[0, 0])


class TestCacheAccountingPureFunctionOfStream:
    @settings(max_examples=25, deadline=None)
    @given(
        seed=seeds,
        cache_size=st.integers(1, 6),
        max_batches=st.tuples(
            st.integers(1, 4), st.integers(5, 30), st.integers(31, 200)
        ),
    )
    def test_invariant_to_max_batch_even_below_cache_size(
        self, seed, cache_size, max_batches
    ):
        """Hits/misses/evictions replay one-query-at-a-time serving for
        *every* batch chopping — including ``cache_size < max_batch``,
        where in-flight ``_PENDING`` placeholders thrash out mid-flush."""
        store = make_store(V=40, d=8, seed=seed)
        rng = keyed_rng(seed, _QUERY_DOMAIN, 0x434143)  # "CAC"
        words = [store.word_of(int(i)) for i in rng.integers(0, 12, size=120)]
        signatures = set()
        for max_batch in (1, *max_batches):
            engine = QueryEngine(
                ExactIndex(store), max_batch=max_batch, cache_size=cache_size
            )
            tickets = [engine.submit(word) for word in words]
            engine.flush()
            assert all(t.done for t in tickets)
            cache = engine.stats.cache
            signatures.add((cache.hits, cache.misses, cache.evictions))
        assert len(signatures) == 1, signatures


class TestShardLayoutInvariance:
    @settings(max_examples=20, deadline=None)
    @given(
        seed=seeds,
        num_shards=st.integers(1, 6),
        replicas=st.integers(1, 3),
        k=st.integers(1, 15),
    )
    def test_merge_bitwise_invariant_to_layout(self, seed, num_shards, replicas, k):
        """Scatter-gather answers are bit-identical to the single-host
        reference index for every (shards, replicas) layout."""
        store = make_store(V=90, d=12, seed=seed)
        queries = make_queries(store, 8, seed)
        sharded = ShardedIndex(store, num_shards=num_shards, replicas=replicas)
        reference = sharded.plan.reference_index(store)
        ids, scores = sharded.search(queries, k)
        ref_ids, ref_scores = reference.search(queries, k)
        np.testing.assert_array_equal(ids, ref_ids)
        np.testing.assert_array_equal(scores, ref_scores)

    @settings(max_examples=15, deadline=None)
    @given(seed=seeds, block_rows=st.integers(4, 40))
    def test_explicit_grid_still_bitwise(self, seed, block_rows):
        """Any block grid works as long as shards and reference share it."""
        store = make_store(V=70, d=10, seed=seed)
        queries = make_queries(store, 6, seed)
        plan = ShardPlan(len(store), num_shards=2, block_rows=block_rows)
        sharded = ShardedIndex(store, plan=plan)
        reference = plan.reference_index(store)
        ids, scores = sharded.search(queries, 9)
        ref_ids, ref_scores = reference.search(queries, 9)
        np.testing.assert_array_equal(ids, ref_ids)
        np.testing.assert_array_equal(scores, ref_scores)
