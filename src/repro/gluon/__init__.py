"""Gluon-style communication substrate (Dathathri et al., PLDI'18).

Gluon abstracts partitioning and bulk-synchronous communication for
distributed graph analytics: nodes have one *master* proxy and any number of
*mirror* proxies; synchronization is a reduce phase (mirrors -> master, with
a user reduction operator) followed by a broadcast phase (master -> mirrors),
and a bit-vector of updated nodes lets it exploit sparsity in the updates.

This package reproduces that substrate over a simulated network with exact
byte accounting:

- :mod:`repro.gluon.bitvector` — updated-node tracking,
- :mod:`repro.gluon.proxies` — master/mirror proxy metadata per partition,
- :mod:`repro.gluon.partitioner` — CuSP-style partitioning policies,
- :mod:`repro.gluon.comm` — the simulated transport with byte/message stats,
- :mod:`repro.gluon.sync` — the reduce/broadcast engine,
- :mod:`repro.gluon.plans` — GraphWord2Vec's communication variants
  (RepModel-Naive, RepModel-Opt, PullModel; paper §4.4).
"""

from repro._exports import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "bitvector": ("BitVector",),
        "comm": ("MessageStats", "SimulatedNetwork"),
        "partition_stats": ("PartitionStats", "analyze_partitions"),
        "partitioner": ("Partition", "partition_edges", "replicate_all_partitions"),
        "plans": ("CommPlan", "PullModel", "RepModelNaive", "RepModelOpt", "get_plan"),
        "sync": ("FieldSync", "GluonSynchronizer"),
    },
)
