"""ExactIndex: correctness, determinism, the total order; recall_at_k."""

import numpy as np
import pytest

import repro.serve.index as index_module
from repro.serve.engine import QueryEngine
from repro.serve.index import ExactIndex, Index, recall_at_k, top_k_desc
from repro.serve.ivf import IVFIndex
from repro.serve.shard import ShardedIndex, ShardPlan
from repro.serve.store import EmbeddingStore
from repro.util.rng import default_rng, keyed_rng


def make_store(V=400, d=24, seed=1):
    rng = default_rng(seed)
    matrix = rng.normal(size=(V, d)).astype(np.float32)
    return EmbeddingStore(matrix, [f"w{i:04d}" for i in range(V)])


def reference_topk(store, queries, k):
    """Brute-force float cosine ranking with (score desc, id asc) ties."""
    normalized = store.normalized()
    q = np.atleast_2d(queries).astype(np.float32)
    norms = np.linalg.norm(q, axis=1, keepdims=True)
    q = q / np.where(norms > 0, norms, 1.0)
    scores = q @ normalized.T
    all_ids = np.broadcast_to(np.arange(scores.shape[1]), scores.shape)
    return np.lexsort((all_ids, -scores), axis=-1)[:, :k]


class TestTopKDesc:
    def test_orders_and_breaks_ties_by_id(self):
        scores = np.array([[0.5, 0.9, 0.5, 0.1]], dtype=np.float32)
        ids = np.array([[7, 3, 2, 9]], dtype=np.int64)
        out_ids, out_scores = top_k_desc(scores, ids, 3)
        assert out_ids.tolist() == [[3, 2, 7]]
        assert out_scores[0, 0] == pytest.approx(0.9)

    def test_k_capped(self):
        scores = np.array([[0.1, 0.2]], dtype=np.float32)
        ids = np.array([[0, 1]], dtype=np.int64)
        out_ids, _ = top_k_desc(scores, ids, 10)
        assert out_ids.shape == (1, 2)


class TestExactIndex:
    def test_matches_reference(self):
        store = make_store()
        index = ExactIndex(store, block_rows=64)
        queries = store.matrix[default_rng(5).choice(len(store), 20)]
        ids, scores = index.search(queries, 10)
        np.testing.assert_array_equal(ids, reference_topk(store, queries, 10))
        assert np.all(np.diff(scores, axis=1) <= 1e-6)

    def test_self_is_nearest(self):
        store = make_store()
        index = ExactIndex(store)
        ids, scores = index.search(store.matrix[17], 3)
        assert ids[0, 0] == 17
        assert scores[0, 0] == pytest.approx(1.0, abs=1e-5)

    def test_block_rows_invariance(self):
        """Vocab-side tiling may perturb low-order float bits but not ranking."""
        store = make_store()
        queries = store.matrix[:33]
        base_ids, base_scores = ExactIndex(store, block_rows=10**9).search(queries, 7)
        for block_rows in (16, 50, 399):
            ids, scores = ExactIndex(store, block_rows=block_rows).search(queries, 7)
            np.testing.assert_array_equal(ids, base_ids)
            np.testing.assert_allclose(scores, base_scores, atol=1e-6)

    def test_batched_equals_unbatched_bitwise(self):
        store = make_store()
        index = ExactIndex(store, block_rows=128)
        queries = store.matrix[default_rng(2).choice(len(store), 50)]
        ids_all, scores_all = index.search(queries, 10)
        for i in range(0, 50, 11):
            ids_one, scores_one = index.search(queries[i], 10)
            np.testing.assert_array_equal(ids_one[0], ids_all[i])
            np.testing.assert_array_equal(scores_one[0], scores_all[i])

    def test_k_capped_at_vocab(self):
        store = make_store(V=5)
        ids, _ = ExactIndex(store).search(store.matrix[0], 50)
        assert ids.shape == (1, 5)
        assert sorted(ids[0].tolist()) == [0, 1, 2, 3, 4]

    def test_zero_query_deterministic(self):
        store = make_store(V=10)
        ids, scores = ExactIndex(store).search(np.zeros(store.dim), 3)
        assert ids[0].tolist() == [0, 1, 2]  # all-zero scores tie, id order
        np.testing.assert_array_equal(scores[0], np.zeros(3, dtype=np.float32))

    def test_invalid_args(self):
        store = make_store(V=10)
        with pytest.raises(ValueError, match="k must be positive"):
            ExactIndex(store).search(store.matrix[0], 0)
        with pytest.raises(ValueError, match="block_rows"):
            ExactIndex(store, block_rows=0)
        with pytest.raises(ValueError, match="queries must be"):
            ExactIndex(store).search(np.zeros(store.dim + 1), 3)

    def test_query_block_is_a_constant_not_a_knob(self):
        store = make_store(V=10)
        assert ExactIndex.query_block == ExactIndex(store).query_block == 16
        assert "query_block" not in vars(ExactIndex(store))
        with pytest.raises(TypeError, match="query_block"):
            ExactIndex(store, query_block=32)
        with pytest.raises(TypeError, match="query_block"):
            ShardedIndex(store, query_block=32)

    @pytest.mark.parametrize("build", [ExactIndex, IVFIndex])
    @pytest.mark.parametrize("poison", [np.nan, np.inf, -np.inf])
    def test_non_finite_query_rejected_naming_the_row(self, build, poison):
        """NaN/inf fail at the boundary, not as the -1/-inf padding the
        protocol reserves for approximate indexes; zero norm stays legal."""
        store = make_store(V=60)
        index = build(store)
        queries = store.matrix[:4].copy()
        queries[2, 5] = poison
        queries[3, 0] = poison
        with pytest.raises(ValueError, match="finite.* row 2 "):
            index.search(queries, 3)
        with pytest.raises(ValueError, match="finite.* row 0 "):
            index.search(queries[2], 3)
        queries[2:] = 0.0  # zero-norm rows are legal and still answer
        ids, scores = index.search(queries, 3)
        assert ids.shape == (4, 3) and ids[0, 0] == 0
        if build is ExactIndex:
            assert ids[2].tolist() == [0, 1, 2] and np.all(scores[2:] == 0)

    def test_satisfies_protocol(self):
        store = make_store(V=10)
        assert isinstance(ExactIndex(store), Index)
        assert isinstance(IVFIndex(store), Index)


class TestExactScanKernel:
    """The scan pays only for real queries, and after one seed per panel
    only for the scores that reach the running k-th best — pinned by
    count, not by clock."""

    @pytest.mark.parametrize(
        "n, expected", [(5, [5]), (40, [32, 8]), (0, [])]
    )
    def test_selection_sees_real_rows_once_per_panel_and_block(
        self, monkeypatch, n, expected
    ):
        """B = 3 store blocks of 64 rows, k = 4.  ``np.partition`` seeds the
        threshold once per panel on exactly its real query rows (never a
        padding row, never more than 32); ``argpartition`` never runs.
        Each (panel, block) makes at most one merge call, holding only
        threshold survivors: n x k of them from the seed block (no ties
        here), at most n x 64 from any block, and from the later blocks a
        small fraction of their products."""
        store = make_store(V=192)
        index = ExactIndex(store, block_rows=64)
        seeded, merged = [], []

        def spy_partition(a, kth, axis=-1):
            seeded.append(a.shape)
            return partition(a, kth, axis=axis)

        def spy_argpartition(*args, **kwargs):
            raise AssertionError("the scan selects by threshold, not argpartition")

        def spy_merge(best_ids, best_scores, queries, ids, scores):
            blocks = np.unique(ids // 64).tolist()
            assert len(blocks) == 1  # one merge per (panel, block)
            merged.append((best_ids.shape[0], blocks[0], len(ids)))
            return merge(best_ids, best_scores, queries, ids, scores)

        partition, merge = np.partition, index_module._merge_survivors
        monkeypatch.setattr(np, "partition", spy_partition)
        monkeypatch.setattr(np, "argpartition", spy_argpartition)
        monkeypatch.setattr(index_module, "_merge_survivors", spy_merge)
        queries = store.matrix[default_rng(3).choice(len(store), n)]
        ids, _ = index.search(queries, 4)
        monkeypatch.undo()
        assert seeded == [(rows, 64) for rows in expected]
        assert [(rows, block) for rows, block, _ in merged] == [
            (rows, block) for rows in expected for block in range(3)
        ]
        for rows, block, survivors in merged:
            assert survivors <= rows * 64
            if block == 0:
                assert survivors == rows * 4
            else:
                assert survivors < rows * 64 // 4
        np.testing.assert_array_equal(ids, reference_topk(store, queries, 4))


def tail_row_store(V, d, block_rows, seed, duplicates=12):
    """``V = m * block_rows + 1`` rows: the tail block is ONE row — numpy
    hands that product to GEMV, not GEMM — and it copies row 0, as do rows
    ``1..duplicates``, so a query for row 0 must pull the tail row into
    its top-k through exact ties that straddle the k boundary."""
    assert V % block_rows == 1
    rng = keyed_rng(seed, 0x5441494C, V, d)  # "TAIL"
    matrix = rng.normal(size=(V, d)).astype(np.float32)
    matrix[1 : duplicates + 1] = matrix[0]
    matrix[-1] = matrix[0]
    return EmbeddingStore(matrix, [f"w{i:05d}" for i in range(V)])


def parity_queries(store, n, seed):
    """Store rows, with row 0 (the duplicated one) and a zero-norm row at
    both ends so every slice offset used below sees one of each."""
    rows = keyed_rng(seed, 0x50415251, n).choice(len(store), n)  # "PARQ"
    queries = store.matrix[rows].copy()
    queries[[0, 5, 31, n - 2]] = store.matrix[0]
    queries[[1, 6, 32, n - 1]] = 0.0
    return queries


def assert_same_answers(got, want):
    np.testing.assert_array_equal(got[0], want[0])
    assert got[1].tobytes() == want[1].tobytes()  # score *bits*


def full_product_topk(index, queries, k):
    """Brute-force oracle: every score the scan computes — the same
    store-major ``block @ tile.T`` products on the same blocks and
    zero-padded ``query_block`` tiles, so the same bits — ranked per query
    by one ``lexsort((id, -score))`` over all V rows."""
    store = index.store
    normalized = store.normalized()
    V = len(store)
    q = index_module._normalize_queries(queries, store.dim)
    scores = np.empty((len(q), V), dtype=np.float32)
    for lo in range(0, len(q), index.query_block):
        real = q[lo : lo + index.query_block]
        tile = np.zeros((index.query_block, store.dim), dtype=np.float32)
        tile[: len(real)] = real
        for start in range(0, V, index.block_rows):
            block = normalized[start : start + index.block_rows]
            scores[lo : lo + len(real), start : start + len(block)] = (
                block @ tile.T
            )[:, : len(real)].T
    ids = np.lexsort((np.broadcast_to(np.arange(V), scores.shape), -scores), axis=-1)
    ids = ids[:, : min(k, V)]
    return ids, np.take_along_axis(scores, ids, axis=1)


#: 13 copies of row 5 spread over block 0 and across its boundary at 64: a
#: query for row 5 meets the tie at the k-th position of the seed block.
TIED = (7, 11, 20, 33, 45, 50, 58, 60, 62, 63, 64, 66, 70)


def tied_store(V, d, anchor, tied, seed):
    """Random rows, with every row in ``tied`` a copy of row ``anchor``."""
    rng = keyed_rng(seed, 0x54494544, V, d)  # "TIED"
    matrix = rng.normal(size=(V, d)).astype(np.float32)
    matrix[list(tied)] = matrix[anchor]
    return EmbeddingStore(matrix, [f"w{i:05d}" for i in range(V)])


class TestExactTotalOrder:
    """ExactIndex answers are the total order (score desc, id asc) over the
    full product — ids *and* score bits — whatever the batch, the block
    grid, ties or k."""

    CASES = [  # (store, the row its tied copies share, block_rows, k)
        pytest.param(lambda: tied_store(200, 16, 5, TIED, seed=1), 5, 64, 6,
                     id="ties-at-seed-k-boundary"),
        pytest.param(lambda: tied_store(200, 16, 5, TIED, seed=1), 5, 64, 12,
                     id="ties-straddling-blocks"),
        pytest.param(lambda: tail_row_store(65, 16, 64, seed=4), 0, 64, 10,
                     id="gemv-tail-block"),
        pytest.param(lambda: tied_store(50, 8, 0, range(1, 9), seed=2), 0, 3, 10,
                     id="block-rows-below-k"),
        pytest.param(lambda: tied_store(40, 8, 0, range(30, 40), seed=3), 0, 16, 43,
                     id="k-covers-vocab"),
    ]

    @staticmethod
    def queries(store, anchor):
        rows = keyed_rng(9, 0x544F51, len(store)).choice(len(store), 40)  # "TOQ"
        queries = store.matrix[rows].copy()
        queries[[0, 4, 16, 31, 33]] = store.matrix[anchor]
        queries[[2, 17, 39]] = 0.0
        return queries

    @pytest.mark.parametrize("build, anchor, block_rows, k", CASES)
    def test_matches_full_product_lexsort(self, build, anchor, block_rows, k):
        store = build()
        index = ExactIndex(store, block_rows=block_rows)
        queries = self.queries(store, anchor)
        for n in (1, 5, 17, 32, 40):
            got = index.search(queries[:n], k)
            assert_same_answers(got, full_product_topk(index, queries[:n], k))
            for row in range(n):  # batched == unbatched
                one = index.search(queries[row], k)
                assert_same_answers(one, (got[0][row : row + 1], got[1][row : row + 1]))

    def test_tie_at_the_seed_boundary_goes_to_the_lowest_ids(self):
        """14 bit-equal scores, k = 6: the winners are the six lowest ids,
        not whichever six a partition of block 0 happened to place first."""
        store = tied_store(200, 16, 5, TIED, seed=1)
        ids, scores = ExactIndex(store, block_rows=64).search(store.matrix[5], 6)
        assert ids[0].tolist() == [5, 7, 11, 20, 33, 45]
        assert np.unique(scores[0].view(np.uint32)).size == 1  # bit-equal


class TestExactScanParity:
    """Batched == unbatched and sharded == reference, bit for bit, at the
    shapes where a kernel that varied its GEMM shape would break."""

    SHAPES = [
        pytest.param(8193, 64, 8192, id="production-grid-one-row-tail"),
        pytest.param(65, 16, 64, id="gemv-tail-enters-top-k"),
    ]

    @pytest.mark.parametrize("V, d, block_rows", SHAPES)
    def test_every_fill_and_offset_matches_the_full_batch(self, V, d, block_rows):
        store = tail_row_store(V, d, block_rows, seed=4)
        index = ExactIndex(store, block_rows=block_rows)
        queries = parity_queries(store, 70, seed=6)
        for k in (1, 10, V):
            full = index.search(queries, k)
            assert full[0].shape == (70, k)
            fills = range(1, 34) if k == 10 else (1, 16, 17, 33)
            for offset in (0, 5, 31):
                for fill in fills:
                    sl = slice(offset, offset + fill)
                    assert_same_answers(
                        index.search(queries[sl], k), (full[0][sl], full[1][sl])
                    )
            for n in (40, 70):  # across the 32-row panel boundary
                assert_same_answers(
                    index.search(queries[:n], k), (full[0][:n], full[1][:n])
                )

    def test_gemv_scored_tail_row_is_selected(self):
        """V = 65, block_rows = 64: the copy of the query in the one-row
        tail block scores through GEMV and must enter the top-k."""
        store = tail_row_store(65, 16, 64, seed=4, duplicates=3)
        ids, scores = ExactIndex(store, block_rows=64).search(store.matrix[0], 5)
        assert sorted(ids[0].tolist()) == [0, 1, 2, 3, 64]
        assert np.all(scores[0] > 0.999)

    @pytest.mark.parametrize("workers", [None, 4])
    @pytest.mark.parametrize("V, d, block_rows", SHAPES)
    def test_sharded_and_engine_match_reference(self, V, d, block_rows, workers):
        store = tail_row_store(V, d, block_rows, seed=4)
        plan = ShardPlan(len(store), num_shards=2, replicas=2, block_rows=block_rows)
        sharded = ShardedIndex(store, plan=plan, workers=workers)
        reference = plan.reference_index(store)
        queries = parity_queries(store, 70, seed=6)
        for k in (1, 10, V):
            want = reference.search(queries, k)
            assert_same_answers(sharded.search(queries, k), want)
            for sl in (slice(0, 1), slice(5, 22), slice(31, 64), slice(0, 40)):
                assert_same_answers(
                    sharded.search(queries[sl], k), (want[0][sl], want[1][sl])
                )
        # Concurrent ``search`` calls on one index (the engine's flush
        # fan-out): nothing is cached on the index between calls.
        words = [store.word_of(int(i)) for i in range(0, V, max(V // 70, 1))][:70]
        engine = QueryEngine(reference, max_batch=128, cache_size=1, workers=workers)
        want = reference.search(np.stack([store.matrix[store.id_of(w)] for w in words]), 10)
        for row, (ids, scores) in enumerate(engine.query(words, 10)):
            assert_same_answers((ids, scores), (want[0][row], want[1][row]))


class TestKBoundary:
    """``k`` is a positive integer at every entry point, or a ValueError naming it.

    Before, ``2.5`` and ``True`` were served as 2 and 1 results by the
    engine and crashed inside NumPy in the indexes, and ``"3"`` escaped as a
    bare ``TypeError`` from the ``k <= 0`` comparison.
    """

    BAD = [2.5, True, False, "3", None, np.float32(2.5), float("inf")]

    def indexes(self, store):
        plan = ShardPlan(len(store), num_shards=2, replicas=1)
        return [ExactIndex(store), IVFIndex(store, nlist=4), ShardedIndex(store, plan=plan)]

    @pytest.mark.parametrize("k", BAD, ids=repr)
    def test_search_rejects_non_integer_k(self, k):
        store = make_store(V=40)
        for index in self.indexes(store):
            with pytest.raises(ValueError, match="k must be an integer"):
                index.search(store.matrix[:2], k)

    @pytest.mark.parametrize("k", BAD, ids=repr)
    def test_submit_rejects_non_integer_k(self, k):
        engine = QueryEngine(ExactIndex(make_store(V=40)))
        with pytest.raises(ValueError, match="k must be an integer"):
            engine.submit("w0001", k)
        assert engine.pending == 0
        with pytest.raises(ValueError, match="k must be an integer"):
            recall_at_k(engine.index, engine.index, engine.index.store.matrix[:2], k=k)

    @pytest.mark.parametrize("k", [3, np.int64(3), np.int32(3), 3.0, np.float32(3.0)])
    def test_integral_k_is_served(self, k):
        store = make_store(V=40)
        queries = store.matrix[:2]
        for index in self.indexes(store):
            ids, _ = index.search(queries, k)
            assert ids.shape == (2, 3)
        engine = QueryEngine(ExactIndex(store))
        ticket = engine.submit("w0001", k)
        engine.flush()
        assert type(ticket.k) is int and ticket.result[0].shape == (3,)
        # One cache entry per (word, k) whatever integer type k arrived as.
        engine.submit("w0001", 3)
        engine.flush()
        assert engine.stats.cache.hits == 1


class TestRecallAtK:
    def test_exact_vs_itself_is_one(self):
        store = make_store(V=100)
        exact = ExactIndex(store)
        assert recall_at_k(exact, exact, store.matrix[:8], k=5) == 1.0

    def test_k_validation(self):
        store = make_store(V=10)
        exact = ExactIndex(store)
        with pytest.raises(ValueError, match="k must be positive"):
            recall_at_k(exact, exact, store.matrix[:2], k=0)
