"""The paper's classic distributed graph-analytics applications (§2.4):
sssp (Bellman-Ford and delta-stepping), pagerank and cc.

These validate the Galois/Gluon substrate independently of Word2Vec: they
exercise partitioning, label synchronization with value reductions, BSP
quiescence, and (for delta-stepping) the priority worklist.
"""

from repro._exports import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "cc": ("connected_components",),
        "pagerank": ("pagerank",),
        "sssp": ("sssp_bellman_ford", "sssp_delta_stepping"),
    },
)
