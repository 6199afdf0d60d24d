from hypothesis import given, settings, strategies as st
import numpy as np
import pytest

from repro.dgraph.graph import Graph


class TestConstruction:
    def test_from_edges_basic(self):
        g = Graph.from_edges([0, 0, 1], [1, 2, 2], num_nodes=3)
        assert g.num_nodes == 3
        assert g.num_edges == 3
        assert sorted(g.out_neighbors(0).tolist()) == [1, 2]
        assert g.out_neighbors(2).tolist() == []

    def test_symmetric(self):
        g = Graph.from_edges([0], [1], num_nodes=2, symmetric=True)
        assert g.num_edges == 2
        assert g.out_neighbors(1).tolist() == [0]

    def test_edge_data_preserved(self):
        g = Graph.from_edges([1, 0], [0, 1], num_nodes=2, edge_data=np.array([5.0, 7.0]))
        assert g.out_edge_data(0).tolist() == [7.0]
        assert g.out_edge_data(1).tolist() == [5.0]

    def test_symmetric_duplicates_edge_data(self):
        g = Graph.from_edges([0], [1], num_nodes=2, edge_data=np.array([3.0]), symmetric=True)
        assert g.out_edge_data(0).tolist() == [3.0]
        assert g.out_edge_data(1).tolist() == [3.0]

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            Graph.from_edges([0], [3], num_nodes=3)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            Graph.from_edges([0, 1], [1], num_nodes=2)

    def test_invalid_indptr(self):
        with pytest.raises(ValueError):
            Graph(np.array([1, 2]), np.array([0]))
        with pytest.raises(ValueError):
            Graph(np.array([0, 2]), np.array([0]))

    def test_no_edge_data_access(self):
        g = Graph.from_edges([0], [1], num_nodes=2)
        with pytest.raises(ValueError, match="no edge data"):
            g.out_edge_data(0)


class TestQueries:
    def test_out_degree(self):
        g = Graph.from_edges([0, 0, 2], [1, 2, 0], num_nodes=3)
        assert np.diff(g.indptr).tolist() == [2, 0, 1]
        assert [len(g.out_neighbors(n)) for n in range(3)] == [2, 0, 1]

    def test_edge_slices_matches_naive(self):
        rng = np.random.default_rng(0)
        src = rng.integers(0, 10, size=40)
        dst = rng.integers(0, 10, size=40)
        w = rng.random(40)
        g = Graph.from_edges(src, dst, 10, edge_data=w)
        nodes = np.array([2, 5, 5, 9])
        srcs, dsts, data = g.edge_slices(nodes)
        expected_src, expected_dst, expected_w = [], [], []
        for n in nodes:
            expected_src.extend([n] * len(g.out_neighbors(int(n))))
            expected_dst.extend(g.out_neighbors(int(n)).tolist())
            expected_w.extend(g.out_edge_data(int(n)).tolist())
        assert srcs.tolist() == expected_src
        assert dsts.tolist() == expected_dst
        assert data.tolist() == expected_w

    def test_edge_slices_empty(self):
        g = Graph.from_edges([0], [1], num_nodes=3)
        srcs, dsts, _ = g.edge_slices(np.array([2]))
        assert srcs.size == 0 and dsts.size == 0


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=1, max_value=15), st.integers(0, 2**16))
def test_csr_roundtrip(num_nodes, seed):
    rng = np.random.default_rng(seed)
    m = int(rng.integers(0, 40))
    src = rng.integers(0, num_nodes, size=m)
    dst = rng.integers(0, num_nodes, size=m)
    g = Graph.from_edges(src, dst, num_nodes)
    rebuilt = sorted(
        (int(u), int(v))
        for u in range(num_nodes)
        for v in g.out_neighbors(u)
    )
    assert rebuilt == sorted(zip(src.tolist(), dst.tolist()))
