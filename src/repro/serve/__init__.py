"""Embedding serving: the inference side of the stack.

Training (``repro.w2v``) produces a dense embedding matrix; this package
serves nearest-neighbor queries over it at scale:

- :mod:`repro.serve.store` — :class:`EmbeddingStore`, an immutable,
  memory-mapped snapshot of a trained embedding (float32 matrix +
  pre-computed L2 norms + word table) saved and opened as one checksummed
  artifact, so serving never re-parses text formats,
- :mod:`repro.serve.index` — the :class:`Index` search contract with an
  exact blocked-matmul top-k (:class:`ExactIndex`), plus
  :func:`recall_at_k` to measure an approximate index against it,
- :mod:`repro.serve.ivf` — :class:`IVFIndex`, an inverted-file index
  over seed-deterministic k-means cells (``nlist``/``nprobe`` knobs)
  with exact float32 rescoring or int8-code scoring — the approximate
  index the recall-vs-QPS frontier says to pick,
- :mod:`repro.serve.quant` — :class:`Int8Store` (per-dimension scalar
  quantization) with a documented reconstruction-error bound, saved as an
  artifact bound to the content sha256 of its source store,
- :mod:`repro.serve.engine` — :class:`QueryEngine`, micro-batching with a
  bounded LRU result cache, executing batches on a
  :class:`~repro.galois.do_all.DoAllExecutor`,
- :mod:`repro.serve.shard` — the distributed tier: :class:`ShardPlan`
  splits a store into grid-aligned contiguous shards (gluon's block
  distribution, replicas as mirrors), :class:`ShardedIndex` scatter-
  gathers top-k across them bit-identically to a single-host
  :class:`ExactIndex`, with load-aware replica routing, fault-schedule
  driven failover, and hot-swappable store generations carrying sha256
  answer fingerprints (:class:`ShardedEngine`),
- :mod:`repro.serve.workload` — the one load harness: backend plugins
  over the one ``search(queries, k)`` surface, seeded arrival processes
  (Poisson, diurnal, bursts, staged ramps), open- and closed-loop load,
  per-tenant Zipf/vocab/QoS mixes, warm-up vs measurement windows, and
  SLO rules whose pass/fail verdicts land in ``BENCH_serve.json`` and
  gate CI (:class:`WorkloadSpec`, :func:`run_workload`); every run
  yields one :class:`WorkloadReport` (modeled core, measured
  throughput/percentiles, JSON and Chrome-trace export),
- :mod:`repro.serve.loadgen` — :func:`run_load`, the classic
  single-stream run (Zipf query mix, Poisson arrivals) spelled as a
  single-tenant :class:`WorkloadSpec` over a caller-built engine,
- :mod:`repro.serve.frontier` — the recall-vs-QPS frontier sweep
  (:class:`FrontierConfig`, :func:`sweep_frontier`) CI uses to hold the
  ANN indexes to recorded recall floors.

Everything modeled (query answers, batch composition, cache accounting)
is a pure function of the seed; only measured wall-clock fields
(latency, throughput) vary run to run.
"""

from repro._exports import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "engine": ("CacheStats", "EngineStats", "LRUCache", "QueryEngine"),
        "index": ("ExactIndex", "Index", "recall_at_k"),
        "ivf": ("IVFIndex", "default_nlist", "kmeans"),
        "frontier": (
            "FrontierConfig",
            "check_frontier_floors",
            "frontier_store",
            "sweep_frontier",
        ),
        "loadgen": ("RECALL_DOMAIN", "LoadConfig", "run_load"),
        "quant": ("Int8Store",),
        "shard": ("ShardedEngine", "ShardedIndex", "ShardGeneration", "ShardPlan"),
        "store": ("EmbeddingStore",),
        "workload": (
            "SLORule",
            "SLOVerdict",
            "TenantMix",
            "TenantSpec",
            "WorkloadReport",
            "WorkloadSpec",
            "available_backends",
            "build_backend",
            "clustered_matrix",
            "format_reports",
            "register_backend",
            "run_workload",
        ),
    },
)
