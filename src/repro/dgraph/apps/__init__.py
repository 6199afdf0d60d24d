"""Classic distributed graph-analytics applications (paper §2.4).

These validate the Galois/Gluon substrate independently of Word2Vec: they
exercise partitioning, label synchronization with value reductions, BSP
quiescence, and (for delta-stepping) the priority worklist.
"""

from repro._exports import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "bfs": ("bfs_levels",),
        "cc": ("connected_components",),
        "kcore": ("kcore",),
        "mst": ("SpanningForest", "minimum_spanning_forest"),
        "pagerank": ("pagerank",),
        "sssp": ("sssp_bellman_ford", "sssp_delta_stepping"),
        "triangles": ("count_triangles",),
    },
)
