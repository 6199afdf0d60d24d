"""D-Galois-style distributed graphs, BSP and bounded-staleness execution.

GraphWord2Vec is implemented on a distributed graph-analytics framework; to
make the substrate credible independently of Word2Vec, this package provides
CSR graphs, distributed graphs over the :mod:`repro.gluon` partitioner, a
bulk-synchronous execution driver, and the classic applications the paper's
background section describes (sssp via Bellman-Ford and delta-stepping,
PageRank, connected components), all synchronized through Gluon.

The applications run on :class:`BSPEngine`; the trainer's round loop runs
behind the :class:`TrainingEngine` seam (:mod:`repro.dgraph.engine`),
implemented by :class:`~repro.dgraph.async_engine.SSPTrainingEngine`
(stale-synchronous parallel with a bounded staleness window;
``staleness=0`` is the lock-step BSP schedule).
"""

from repro._exports import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "bsp": ("BSPEngine", "RoundStats"),
        "dist_graph": ("DistGraph",),
        "engine": (
            "TrainingEngine",
            "compensate_delta",
            "resolve_training_engine",
        ),
        "graph": ("Graph",),
    },
)
