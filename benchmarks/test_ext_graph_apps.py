"""Extension benchmark: the graph-analytics substrate at scale.

Runs the classic applications over generated graphs at several host counts
and reports rounds-to-quiescence and exact communication volume — the
substrate-level behaviour (BSP rounds, min-reductions, sparse broadcasts)
that GraphWord2Vec builds on, exercised independently of Word2Vec.
"""

import numpy as np

from repro.dgraph.apps import connected_components, sssp_bellman_ford
from repro.dgraph.dist_graph import DistGraph
from repro.dgraph.generators import power_law
from repro.gluon.comm import SimulatedNetwork
from repro.util.tables import format_bytes, format_table

HOSTS = (1, 2, 4, 8)


def test_ext_graph_apps_scaling(once):
    src, dst, n = power_law(1200, 12_000, exponent=1.1, seed=2)
    weights = (np.arange(len(src)) % 9 + 1).astype(float)
    sym_src = np.concatenate([src, dst])
    sym_dst = np.concatenate([dst, src])

    def work():
        rows = []
        baselines = {}
        for hosts in HOSTS:
            net = SimulatedNetwork(hosts)
            dg = DistGraph.build(src, dst, n, hosts, policy="oec", edge_data=weights)
            dist = sssp_bellman_ford(dg, source=0, network=net)
            baselines.setdefault("sssp", dist)
            assert np.allclose(dist, baselines["sssp"], equal_nan=True)
            rows.append(["sssp", hosts, dg.total_replication_factor(), net.total_bytes, net.total_messages])

            net = SimulatedNetwork(hosts)
            dg = DistGraph.build(sym_src, sym_dst, n, hosts)
            labels = connected_components(dg, network=net)
            baselines.setdefault("cc", labels)
            assert np.array_equal(labels, baselines["cc"])
            rows.append(["cc", hosts, dg.total_replication_factor(), net.total_bytes, net.total_messages])
        return rows

    rows = once(work)
    print()
    print(
        format_table(
            ["App", "Hosts", "Replication", "Comm volume", "Messages"],
            [
                [app, h, f"{rf:.2f}", format_bytes(v), m]
                for app, h, rf, v, m in rows
            ],
            title="Extension: substrate apps on a power-law graph (1200 nodes).",
        )
    )
    by = {(app, h): (v, m) for app, h, _rf, v, m in rows}
    # Single host never communicates; volume grows with host count.
    for app in ("sssp", "cc"):
        assert by[(app, 1)][0] == 0
        assert by[(app, 8)][0] > by[(app, 2)][0] > 0
