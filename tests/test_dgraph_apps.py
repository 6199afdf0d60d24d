import dataclasses

import networkx as nx
import numpy as np
import pytest

from repro.analysis.runtime import GluonSyncChecker, SanitizeError
from repro.dgraph.apps.cc import connected_components
from repro.dgraph.apps.pagerank import pagerank
from repro.dgraph.apps.sssp import sssp_bellman_ford, sssp_delta_stepping
from repro.dgraph.dist_graph import DistGraph
from repro.dgraph.graph import Graph
from repro.gluon.comm import SimulatedNetwork
from repro.gluon.sync import GluonSynchronizer


def random_weighted_graph(n=24, p=0.15, seed=3):
    rng = np.random.default_rng(seed)
    src, dst, w = [], [], []
    for u in range(n):
        for v in range(n):
            if u != v and rng.random() < p:
                src.append(u)
                dst.append(v)
                w.append(float(rng.integers(1, 10)))
    return np.array(src), np.array(dst), np.array(w), n


def nx_reference_sssp(src, dst, w, n, source):
    g = nx.DiGraph()
    g.add_nodes_from(range(n))
    for u, v, weight in zip(src, dst, w):
        if g.has_edge(int(u), int(v)):
            g[int(u)][int(v)]["weight"] = min(g[int(u)][int(v)]["weight"], weight)
        else:
            g.add_edge(int(u), int(v), weight=weight)
    lengths = nx.single_source_dijkstra_path_length(g, source)
    out = np.full(n, np.inf)
    for node, d in lengths.items():
        out[node] = d
    return out


class TestSSSPDistributed:
    @pytest.mark.parametrize("hosts", [1, 2, 4])
    @pytest.mark.parametrize("policy", ["oec", "iec"])
    def test_matches_networkx(self, hosts, policy):
        src, dst, w, n = random_weighted_graph()
        dg = DistGraph.build(src, dst, n, hosts, policy=policy, edge_data=w)
        got = sssp_bellman_ford(dg, source=0)
        expected = nx_reference_sssp(src, dst, w, n, 0)
        assert np.allclose(got, expected)

    def test_unweighted_defaults_to_hops(self):
        src = np.array([0, 1, 2])
        dst = np.array([1, 2, 3])
        dg = DistGraph.build(src, dst, 4, 2)
        got = sssp_bellman_ford(dg, source=0)
        assert got.tolist() == [0.0, 1.0, 2.0, 3.0]

    def test_unreachable_nodes_stay_infinite(self):
        dg = DistGraph.build(np.array([0]), np.array([1]), 3, 2)
        got = sssp_bellman_ford(dg, source=0)
        assert got[2] == np.inf

    def test_invalid_source(self):
        dg = DistGraph.build(np.array([0]), np.array([1]), 2, 1)
        with pytest.raises(ValueError):
            sssp_bellman_ford(dg, source=5)

    def test_communication_happens_with_multiple_hosts(self):
        src, dst, w, n = random_weighted_graph()
        net = SimulatedNetwork(4)
        dg = DistGraph.build(src, dst, n, 4, policy="oec", edge_data=w)
        sssp_bellman_ford(dg, source=0, network=net)
        assert net.total_bytes > 0


class TestSSSPDeltaStepping:
    def test_matches_distributed(self):
        src, dst, w, n = random_weighted_graph(seed=11)
        g = Graph.from_edges(src, dst, n, edge_data=w)
        got = sssp_delta_stepping(g, source=0, delta=2.0)
        expected = nx_reference_sssp(src, dst, w, n, 0)
        assert np.allclose(got, expected)

    @pytest.mark.parametrize("delta", [0.5, 1.0, 4.0, 100.0])
    def test_delta_insensitive(self, delta):
        src, dst, w, n = random_weighted_graph(seed=5)
        g = Graph.from_edges(src, dst, n, edge_data=w)
        expected = nx_reference_sssp(src, dst, w, n, 0)
        assert np.allclose(sssp_delta_stepping(g, 0, delta=delta), expected)

    def test_invalid_delta(self):
        g = Graph.from_edges([0], [1], 2)
        with pytest.raises(ValueError):
            sssp_delta_stepping(g, 0, delta=0.0)


class TestPageRank:
    def test_matches_networkx(self):
        src, dst, _, n = random_weighted_graph(seed=9)
        dg = DistGraph.build(src, dst, n, 3, policy="iec")
        got = pagerank(dg, alpha=0.85, tol=1e-12, max_iters=300)
        g = nx.DiGraph()
        g.add_nodes_from(range(n))
        g.add_edges_from(zip(src.tolist(), dst.tolist()))
        expected = nx.pagerank(g, alpha=0.85, tol=1e-12, max_iter=300)
        expected_vec = np.array([expected[i] for i in range(n)])
        assert np.allclose(got, expected_vec, atol=1e-6)

    def test_sums_to_one(self):
        src, dst, _, n = random_weighted_graph(seed=2)
        dg = DistGraph.build(src, dst, n, 2, policy="iec")
        assert pagerank(dg).sum() == pytest.approx(1.0, abs=1e-8)

    def test_host_count_invariance(self):
        src, dst, _, n = random_weighted_graph(seed=4)
        one = pagerank(DistGraph.build(src, dst, n, 1, policy="iec"))
        four = pagerank(DistGraph.build(src, dst, n, 4, policy="iec"))
        assert np.allclose(one, four, atol=1e-10)

    def test_requires_iec(self):
        src, dst, _, n = random_weighted_graph(seed=4)
        dg = DistGraph.build(src, dst, n, 2, policy="oec")
        with pytest.raises(ValueError, match="incoming-edge-cut"):
            pagerank(dg)

    def test_invalid_alpha(self):
        dg = DistGraph.build(np.array([0]), np.array([1]), 2, 1, policy="iec")
        with pytest.raises(ValueError):
            pagerank(dg, alpha=1.5)


class TestConnectedComponents:
    def test_matches_networkx(self):
        rng = np.random.default_rng(8)
        n = 30
        m = 25
        src = rng.integers(0, n, size=m)
        dst = rng.integers(0, n, size=m)
        both_src = np.concatenate([src, dst])
        both_dst = np.concatenate([dst, src])
        dg = DistGraph.build(both_src, both_dst, n, 3)
        got = connected_components(dg)
        g = nx.Graph()
        g.add_nodes_from(range(n))
        g.add_edges_from(zip(src.tolist(), dst.tolist()))
        for component in nx.connected_components(g):
            labels = {int(got[v]) for v in component}
            assert len(labels) == 1
            assert labels.pop() == min(component)

    def test_isolated_nodes_label_self(self):
        dg = DistGraph.build(np.array([0, 1]), np.array([1, 0]), 4, 2)
        got = connected_components(dg)
        assert got[2] == 2 and got[3] == 3

    def test_host_count_invariance(self):
        src = np.array([0, 1, 2, 3, 4, 5])
        dst = np.array([1, 0, 3, 2, 5, 4])
        a = connected_components(DistGraph.build(src, dst, 6, 1))
        b = connected_components(DistGraph.build(src, dst, 6, 3))
        assert np.array_equal(a, b)


def symmetric_graph(hosts, policy):
    src, dst, w, n = random_weighted_graph(seed=5)
    both_src, both_dst = np.concatenate([src, dst]), np.concatenate([dst, src])
    weights = np.concatenate([w, w])
    return DistGraph.build(both_src, both_dst, n, hosts, policy=policy, edge_data=weights)


#: The BSP applications, each run on a fresh DistGraph.
BSP_APPS = {
    "sssp": lambda dg: sssp_bellman_ford(dg, source=0),
    "cc": connected_components,
}


class TestSanitizedApps:
    """Under ``REPRO_SANITIZE=1`` the BSP loop of sssp and cc audits every
    round with a :class:`GluonSyncChecker`."""

    @pytest.mark.parametrize("policy", ["oec", "iec", "cvc"])
    @pytest.mark.parametrize("app", sorted(BSP_APPS))
    def test_clean_runs_are_audited_and_unchanged(self, app, policy, monkeypatch):
        plain = BSP_APPS[app](symmetric_graph(3, policy))
        monkeypatch.setenv("REPRO_SANITIZE", "1")
        audited = []
        observe = GluonSyncChecker.observe_bsp_round

        def spy(checker, round_index, local_work, result):
            audited.append(round_index)
            observe(checker, round_index, local_work, result)

        monkeypatch.setattr(GluonSyncChecker, "observe_bsp_round", spy)
        sanitized = BSP_APPS[app](symmetric_graph(3, policy))
        np.testing.assert_array_equal(sanitized, plain)
        assert audited and audited == list(range(len(audited)))

    @pytest.mark.parametrize("app", sorted(BSP_APPS))
    def test_phantom_sync_raises(self, app, monkeypatch):
        """A sync that reports a changed label in the quiescent round, where
        no host did local work, is a phantom-sync finding."""
        sync_value = GluonSynchronizer.sync_value
        calls = []

        def counting(self, *args, **kwargs):
            calls.append(1)
            return sync_value(self, *args, **kwargs)

        monkeypatch.setattr(GluonSynchronizer, "sync_value", counting)
        BSP_APPS[app](symmetric_graph(3, "cvc"))
        last = len(calls)
        calls.clear()

        def phantom(self, *args, **kwargs):
            result = counting(self, *args, **kwargs)
            if len(calls) != last:
                return result
            changed = [np.array([0], dtype=np.int64), *result.changed_local[1:]]
            return dataclasses.replace(result, changed_local=changed)

        monkeypatch.setattr(GluonSynchronizer, "sync_value", phantom)
        monkeypatch.setenv("REPRO_SANITIZE", "1")
        with pytest.raises(SanitizeError, match=f"phantom-sync.*BSP round {last - 1}"):
            BSP_APPS[app](symmetric_graph(3, "cvc"))
