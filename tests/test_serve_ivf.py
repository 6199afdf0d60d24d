"""IVFIndex / kmeans: determinism, cell layout, recall, engine wiring."""

import numpy as np
import pytest

from repro.serve.engine import QueryEngine
from repro.serve.index import ExactIndex, Index, recall_at_k
from repro.serve.ivf import IVFIndex, assign_cells, default_nlist, kmeans
from repro.serve.quant import Int8Store
from repro.serve.store import EmbeddingStore
from repro.serve.workload.spec import clustered_matrix
from repro.util.rng import keyed_rng


def make_store(V=500, d=24, seed=1, clusters=None):
    if clusters is not None:
        matrix = clustered_matrix(V, d, clusters, seed=seed)
    else:
        rng = keyed_rng(seed, 0x495654, V, d)  # "IVT"
        matrix = rng.normal(size=(V, d)).astype(np.float32)
    return EmbeddingStore(matrix, [f"w{i:04d}" for i in range(V)])


class TestDefaultNlist:
    def test_sqrt_sizing(self):
        assert default_nlist(100) == 10
        assert default_nlist(1) == 1
        assert default_nlist(10**9) == 4096  # clamped

    def test_validation(self):
        with pytest.raises(ValueError, match="vocab_size"):
            default_nlist(0)


class TestKMeans:
    def test_same_rng_bit_identical(self):
        points = make_store().normalized()
        a = kmeans(points, 12, keyed_rng(5, 1))
        b = kmeans(points, 12, keyed_rng(5, 1))
        np.testing.assert_array_equal(a, b)

    def test_cosine_centroids_unit_norm(self):
        points = make_store().normalized()
        centroids = kmeans(points, 10, keyed_rng(2, 1))
        np.testing.assert_allclose(
            np.linalg.norm(centroids, axis=1), 1.0, atol=1e-5
        )

    def test_k_equals_n(self):
        points = make_store(V=8).normalized()
        centroids = kmeans(points, 8, keyed_rng(1, 1), sample=None)
        assert centroids.shape == (8, points.shape[1])

    def test_validation(self):
        points = make_store(V=10).normalized()
        with pytest.raises(ValueError, match="k must be"):
            kmeans(points, 11, keyed_rng(1, 1))
        with pytest.raises(ValueError, match="iters"):
            kmeans(points, 2, keyed_rng(1, 1), iters=-1)


class TestAssignCells:
    def test_tie_breaks_to_lowest_cell(self):
        points = np.ones((4, 3), dtype=np.float32)
        centroids = np.ones((5, 3), dtype=np.float32)  # all cells tie
        assert assign_cells(points, centroids).tolist() == [0, 0, 0, 0]

    def test_block_size_invariant(self):
        store = make_store()
        centroids = kmeans(store.normalized(), 9, keyed_rng(4, 1))
        full = assign_cells(store.normalized(), centroids)
        blocked = assign_cells(store.normalized(), centroids, block_rows=37)
        np.testing.assert_array_equal(full, blocked)


class TestIVFIndex:
    def test_satisfies_protocol(self):
        assert isinstance(IVFIndex(make_store(V=50)), Index)

    def test_cell_layout_partitions_store(self):
        store = make_store()
        ivf = IVFIndex(store, nlist=16, seed=3)
        sizes = np.diff(ivf._offsets)
        assert sizes.sum() == len(store)
        assert sorted(ivf._row_of_position.tolist()) == list(range(len(store)))

    def test_cell_of_matches_assignment(self):
        store = make_store(V=60)
        ivf = IVFIndex(store, nlist=6, seed=3)
        assignment = assign_cells(store.normalized(), ivf.centroids)
        # Cell c holds positions offsets[c]:offsets[c + 1] of the layout.
        cell_of_row = np.empty(len(store), dtype=np.int64)
        cell_of_row[ivf._row_of_position] = np.repeat(
            np.arange(ivf.nlist), np.diff(ivf._offsets)
        )
        np.testing.assert_array_equal(cell_of_row, assignment)

    def test_same_seed_rebuild_bit_identical(self):
        store = make_store()
        a = IVFIndex(store, nlist=12, nprobe=3, seed=5)
        b = IVFIndex(store, nlist=12, nprobe=3, seed=5)
        np.testing.assert_array_equal(a.centroids, b.centroids)
        queries = store.matrix[:10]
        np.testing.assert_array_equal(a.search(queries, 5)[0], b.search(queries, 5)[0])
        np.testing.assert_array_equal(a.search(queries, 5)[1], b.search(queries, 5)[1])

    def test_recall_floor_on_clustered_data(self):
        """Family-structured data (what trained embeddings look like): a
        thin probe already clears 0.9 recall@10."""
        store = make_store(V=2000, d=24, clusters=40, seed=9)
        exact = ExactIndex(store)
        ivf = IVFIndex(store, nlist=40, nprobe=4, seed=9)
        queries = store.matrix[keyed_rng(9, 3).choice(len(store), 64)]
        assert recall_at_k(ivf, exact, queries, k=10) >= 0.9

    def test_nprobe_equals_nlist_is_exact(self):
        store = make_store(V=300)
        exact = ExactIndex(store)
        ivf = IVFIndex(store, nlist=10, nprobe=10, seed=2)
        queries = store.matrix[:20]
        assert recall_at_k(ivf, exact, queries, k=10) == 1.0

    def test_scores_are_true_cosine(self):
        store = make_store()
        ivf = IVFIndex(store, nlist=10, nprobe=3, seed=2)
        query = store.matrix[5]
        ids, scores = ivf.search(query, 5)
        normalized = store.normalized()
        qn = query / np.linalg.norm(query)
        for i, s in zip(ids[0], scores[0]):
            if i < 0:
                continue
            assert s == pytest.approx(float(normalized[i] @ qn), abs=1e-5)

    def test_probe_cells_prefix_nested(self):
        """Probing wider keeps the narrower probe as a prefix — the
        mechanism behind recall monotonicity in nprobe."""
        store = make_store()
        ivf = IVFIndex(store, nlist=12, seed=4)
        q = store.matrix[3]
        narrow = ivf.probe_cells(q, nprobe=3)
        wide = ivf.probe_cells(q, nprobe=8)
        np.testing.assert_array_equal(wide[:3], narrow)

    def test_reused_centroids_match_fresh_build(self):
        store = make_store()
        fresh = IVFIndex(store, nlist=10, nprobe=4, seed=6)
        reused = IVFIndex(
            store, nlist=10, nprobe=4, seed=6, centroids=fresh.centroids
        )
        queries = store.matrix[:12]
        np.testing.assert_array_equal(
            fresh.search(queries, 7)[0], reused.search(queries, 7)[0]
        )

    def test_validation(self):
        store = make_store(V=20)
        with pytest.raises(ValueError, match="nlist"):
            IVFIndex(store, nlist=21)
        with pytest.raises(ValueError, match="nprobe"):
            IVFIndex(store, nlist=4, nprobe=0)
        with pytest.raises(ValueError, match="k must be positive"):
            IVFIndex(store, nlist=4).search(store.matrix[0], 0)
        with pytest.raises(ValueError, match="centroids shape"):
            IVFIndex(store, nlist=4, centroids=np.zeros((3, store.dim)))
        with pytest.raises(ValueError, match="empty store"):
            IVFIndex(EmbeddingStore(np.zeros((0, 4), dtype=np.float32), []))


class TestQuantizedRescoring:
    def test_int8_codes_track_float_path(self):
        store = make_store(V=800, d=24, clusters=20, seed=3)
        exact = ExactIndex(store)
        ivf8 = IVFIndex(store, nlist=20, nprobe=6, seed=3, codes=Int8Store.build(store))
        queries = store.matrix[keyed_rng(3, 9).choice(len(store), 48)]
        assert recall_at_k(ivf8, exact, queries, k=10) >= 0.85

    def test_codes_shape_mismatch_rejected(self):
        store = make_store(V=50)
        other = make_store(V=51)
        with pytest.raises(ValueError, match="codes cover"):
            IVFIndex(store, nlist=5, codes=Int8Store.build(other))

    def test_codes_from_another_store_of_the_same_shape_rejected(self):
        store = make_store(V=200, d=8, seed=1)
        other = make_store(V=200, d=8, seed=2)
        with pytest.raises(ValueError, match="codes were built from the store"):
            IVFIndex(store, nlist=5, codes=Int8Store.build(other))

    def test_repr_names_rescoring(self):
        store = make_store(V=50)
        assert "float32" in repr(IVFIndex(store, nlist=5))
        assert "Int8Store" in repr(
            IVFIndex(store, nlist=5, codes=Int8Store.build(store))
        )


class TestEngineIntegration:
    def test_query_engine_serves_ivf(self):
        store = make_store(V=200)
        engine = QueryEngine(IVFIndex(store, nlist=10, nprobe=10, seed=2))
        ids, scores = engine.query(["w0005"], k=3)[0]
        assert ids[0] == 5
        assert scores[0] == pytest.approx(1.0, abs=1e-5)

    def test_sanitized_parallel_flush(self):
        """IVF search under the race sanitizer and a thread pool: the
        do_all operator's read/write sets must come back disjoint."""
        store = make_store(V=300)
        engine = QueryEngine(
            IVFIndex(store, nlist=12, nprobe=4, seed=2),
            workers=2,
            sanitize=True,
            max_batch=64,
            search_block=8,
        )
        words = [f"w{i:04d}" for i in keyed_rng(2, 5).integers(0, 300, 50)]
        results = engine.query(words)
        assert len(results) == 50
        assert engine.sanitize_findings == []
