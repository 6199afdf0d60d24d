"""Galois-style shared-memory parallel engine.

The paper implements the per-host Word2Vec operator on top of the Galois
library's parallel constructs: ``do_all`` loops, concurrent worklists, and
reducible accumulators.  This package reproduces those constructs with two
executors — a deterministic sequential one (default; this repository targets
single-core simulation) and a thread-pool one — behind the same API, so
operator code is written once, Galois-style.
"""

from repro._exports import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "accumulators": ("GAccumulator",),
        "do_all": (
            "DoAllError",
            "DoAllExecutor",
            "SerialExecutor",
            "ThreadPoolDoAll",
            "do_all",
            "executor_from_env",
            "resolve_executor",
        ),
        "timers": ("StatTimer",),
        "worklist": ("ChunkedWorklist", "OrderedByIntegerMetric"),
    },
)
