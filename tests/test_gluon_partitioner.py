from hypothesis import given, settings, strategies as st
import numpy as np
import pytest

from repro.gluon.partitioner import Partition, partition_edges, replicate_all_partitions


def small_graph():
    # 8 nodes, a mix of edges crossing block boundaries.
    src = np.array([0, 1, 2, 3, 4, 5, 6, 7, 0, 4])
    dst = np.array([1, 2, 3, 4, 5, 6, 7, 0, 7, 1])
    return src, dst, 8


class TestPartitionEdges:
    @pytest.mark.parametrize("policy", ["oec", "iec", "cvc"])
    def test_every_edge_exactly_once(self, policy):
        src, dst, n = small_graph()
        parts = partition_edges(src, dst, n, 4, policy=policy)
        total = []
        for part in parts:
            s, d = part.edges_local
            gs = part.local_to_global[s]
            gd = part.local_to_global[d]
            total.extend(zip(gs.tolist(), gd.tolist()))
        assert sorted(total) == sorted(zip(src.tolist(), dst.tolist()))

    @pytest.mark.parametrize("policy", ["oec", "iec", "cvc"])
    def test_each_node_has_one_master(self, policy):
        src, dst, n = small_graph()
        parts = partition_edges(src, dst, n, 3, policy=policy)
        master_count = np.zeros(n, dtype=int)
        for part in parts:
            masters = part.local_to_global[part.masters_local()]
            master_count[masters] += 1
        assert np.all(master_count == 1)

    def test_oec_edges_live_with_source_master(self):
        src, dst, n = small_graph()
        parts = partition_edges(src, dst, n, 4, policy="oec")
        for part in parts:
            s, _ = part.edges_local
            gs = part.local_to_global[s]
            assert np.all(part.master_host_of(gs) == part.host)

    def test_iec_edges_live_with_dst_master(self):
        src, dst, n = small_graph()
        parts = partition_edges(src, dst, n, 4, policy="iec")
        for part in parts:
            _, d = part.edges_local
            gd = part.local_to_global[d]
            assert np.all(part.master_host_of(gd) == part.host)

    def test_edge_data_follows_edges(self):
        src, dst, n = small_graph()
        weights = np.arange(len(src), dtype=float)
        parts = partition_edges(src, dst, n, 2, policy="oec", edge_data=weights)
        seen = {}
        for part in parts:
            s, d = part.edges_local
            for i in range(len(s)):
                key = (
                    int(part.local_to_global[s[i]]),
                    int(part.local_to_global[d[i]]),
                )
                seen.setdefault(key, []).append(float(part.edge_data[i]))
        for (u, v), w in zip(zip(src.tolist(), dst.tolist()), weights):
            assert w in seen[(u, v)]

    def test_unknown_policy(self):
        with pytest.raises(ValueError, match="unknown partition policy"):
            partition_edges(np.array([0]), np.array([1]), 2, 2, policy="xyz")

    def test_endpoint_out_of_range(self):
        with pytest.raises(ValueError):
            partition_edges(np.array([0]), np.array([5]), 3, 2)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            partition_edges(np.array([0, 1]), np.array([1]), 3, 2)


class TestPartitionProxyQueries:
    def test_to_local_roundtrip(self):
        src, dst, n = small_graph()
        part = partition_edges(src, dst, n, 2, policy="oec")[0]
        for local, g in enumerate(part.local_to_global):
            assert part.to_local(int(g)) == local

    def test_to_local_missing(self):
        parts = partition_edges(np.array([0]), np.array([1]), 8, 4, policy="oec")
        # Host 3 owns block [6, 8) and has no edges touching node 0.
        with pytest.raises(KeyError):
            parts[3].to_local(0)

    def test_has_proxy(self):
        parts = partition_edges(np.array([0]), np.array([7]), 8, 4, policy="oec")
        assert parts[0].has_proxy(7)  # mirror via edge
        assert not parts[1].has_proxy(7)

    def test_duplicate_proxies_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            Partition(
                host=0,
                num_hosts=1,
                num_global_nodes=3,
                local_to_global=np.array([0, 0]),
                master_bounds=np.array([0, 3]),
                edges_local=(np.empty(0, np.int64), np.empty(0, np.int64)),
            )


class TestReplicateAll:
    def test_every_host_has_every_node(self):
        parts = replicate_all_partitions(10, 4)
        for part in parts:
            assert part.num_local == 10
            assert np.array_equal(part.local_to_global, np.arange(10))

    def test_masters_are_blocks(self):
        parts = replicate_all_partitions(10, 4)
        owned = [part.local_to_global[part.masters_local()] for part in parts]
        assert np.array_equal(np.concatenate(owned), np.arange(10))
        assert [len(o) for o in owned] == [3, 3, 2, 2]

    def test_replication_factor(self):
        parts = replicate_all_partitions(6, 3)
        total = sum(p.num_local for p in parts)
        assert total / 6 == 3.0


@settings(max_examples=25, deadline=None)
@given(
    st.integers(min_value=2, max_value=40),
    st.integers(min_value=1, max_value=6),
    st.sampled_from(["oec", "iec", "cvc"]),
    st.data(),
)
def test_partition_invariants(num_nodes, num_hosts, policy, data):
    num_edges = data.draw(st.integers(min_value=0, max_value=80))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**16)))
    src = rng.integers(0, num_nodes, size=num_edges)
    dst = rng.integers(0, num_nodes, size=num_edges)
    parts = partition_edges(src, dst, num_nodes, num_hosts, policy=policy)
    # Edge conservation.
    assert sum(len(p.edges_local[0]) for p in parts) == num_edges
    # Exactly one master per node.
    count = np.zeros(num_nodes, dtype=int)
    for p in parts:
        count[p.local_to_global[p.masters_local()]] += 1
    assert np.all(count == 1)
    # Every endpoint of a host's edges has a local proxy (by construction of
    # edges_local this cannot fail to resolve; check bounds instead).
    for p in parts:
        s, d = p.edges_local
        if len(s):
            assert s.max() < p.num_local and d.max() < p.num_local
