"""The recall-vs-QPS frontier sweep over the ANN index family.

:func:`sweep_frontier` measures every shipped index (exact, IVF with
float32 / int8 scoring) on one seed-deterministic clustered store and
records, per point, recall@k against the exact index, raw
``index.search`` QPS, build time, memory, and a ``recall_floor``;
:func:`check_frontier_floors` is the CI gate that re-runs the smoke
sweep (``serve-bench --frontier --check-floors``) against the floors in
``BENCH_serve.json`` — every swept point must have one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.galois.timers import StatTimer
from repro.serve.index import ExactIndex, recall_at_k
from repro.serve.ivf import IVFIndex, default_nlist
from repro.serve.loadgen import LoadConfig, generate_queries
from repro.serve.quant import Int8Store
from repro.serve.store import EmbeddingStore
from repro.serve.workload.spec import StoreSpec
from repro.util.rng import DEFAULT_SEED, Domain, keyed_rng

__all__ = [
    "FrontierConfig",
    "frontier_store",
    "sweep_frontier",
    "check_frontier_floors",
]


@dataclass(frozen=True)
class FrontierConfig:
    """One frontier sweep: the synthetic store, the workload, the points.

    The store is a seed-deterministic *clustered* Gaussian matrix
    (:class:`~repro.serve.workload.spec.StoreSpec`): rows are family
    centers plus noise, the serving-scale analogue of the synthetic
    corpus' word families, which is the geometry trained embeddings
    actually have (and the reason IVF cells pay off).  ``nprobes`` are the
    IVF sweep points; ``quant_nprobes`` picks which of them are repeated
    through the int8 code variant.
    The defaults are the **CI smoke configuration** — small enough to run
    in seconds, recorded in ``BENCH_serve.json`` next to the full-scale
    frontier so `serve-bench --frontier --check-floors` can re-verify the
    recall floors deterministically.
    """

    vocab_size: int = 8000
    dim: int = 32
    clusters: int = 160
    spread: float = 0.35
    num_queries: int = 512
    recall_queries: int = 128
    k: int = 10
    batch: int = 64
    seed: int = DEFAULT_SEED
    nlist: int | None = None
    nprobes: tuple[int, ...] = (1, 2, 4, 8, 16)
    quant_nprobes: tuple[int, ...] = (8, 16)

    def __post_init__(self) -> None:
        self.store_spec()  # validates vocab_size / dim / clusters / spread
        for name in ("num_queries", "recall_queries", "k", "batch"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)}")
        if not self.nprobes or any(p <= 0 for p in self.nprobes):
            raise ValueError(f"nprobes must be positive, got {self.nprobes}")
        if any(p <= 0 for p in self.quant_nprobes):
            raise ValueError(f"quant_nprobes must be positive, got {self.quant_nprobes}")

    def store_spec(self) -> StoreSpec:
        return StoreSpec(self.vocab_size, self.dim, self.clusters, self.spread)

    def as_dict(self) -> dict:
        out = dict(self.__dict__)
        out["nprobes"] = list(self.nprobes)
        out["quant_nprobes"] = list(self.quant_nprobes)
        return out


def frontier_store(config: FrontierConfig) -> EmbeddingStore:
    """The :class:`~repro.serve.store.EmbeddingStore` a sweep runs over."""
    return config.store_spec().build(config.seed)


def _recall_floor(recall: float) -> float:
    """The regression floor recorded for a measured recall: 0.05 headroom
    (absorbs BLAS/numpy low-order drift across environments), floored at 0."""
    return max(0.0, round(recall - 0.05, 3))


def _measure_point(index, queries: np.ndarray, k: int, batch: int) -> dict:
    """Measured QPS and per-batch latency for one index on one stream."""
    batch_seconds: list[float] = []
    timer = StatTimer("serve.frontier")
    for start in range(0, queries.shape[0], batch):
        timer.start()
        index.search(queries[start : start + batch], k)
        batch_seconds.append(timer.stop())
    qps = queries.shape[0] / timer.total if timer.total > 0 else 0.0
    per_query_ms = 1e3 * np.asarray(batch_seconds) / batch
    return {
        "qps": float(qps),
        "p50_batch_ms": float(np.percentile(np.asarray(batch_seconds) * 1e3, 50)),
        "p50_query_ms": float(np.percentile(per_query_ms, 50)),
    }


def sweep_frontier(config: FrontierConfig | None = None, store=None) -> dict:
    """Measure the recall-vs-QPS frontier; returns the JSON-ready payload.

    Points: brute-force exact (the recall=1 anchor), IVF with float32
    rescoring at every ``config.nprobes``, and IVF over the int8 code
    variant at ``config.quant_nprobes``.
    Recall@k is computed against the exact index on a seed-deterministic
    uniform row sample; QPS runs the Zipf query stream of
    :func:`generate_queries` through ``index.search`` in fixed
    ``config.batch``-row batches (raw index throughput — no result cache,
    so the numbers compare index work, not cache hit rates).  Each point
    carries a ``recall_floor`` 0.05 below its measured recall; CI re-runs
    the sweep and fails if any point sinks below its recorded floor
    (:func:`check_frontier_floors`).
    """
    config = config or FrontierConfig()
    if store is None:
        store = frontier_store(config)
    V = len(store)
    query_ids = generate_queries(V, LoadConfig(
        num_queries=config.num_queries, k=config.k, seed=config.seed
    ))
    queries = store.matrix[query_ids]
    recall_rng = keyed_rng(config.seed, Domain.RECALL)
    recall_queries = store.matrix[
        recall_rng.choice(V, size=min(config.recall_queries, V), replace=False)
    ]
    exact = ExactIndex(store)

    points: list[dict] = []

    def add_point(label: str, family: str, index, params: dict,
                  build_seconds: float, memory_bytes: int) -> None:
        recall = (
            1.0 if family == "exact"
            else recall_at_k(index, exact, recall_queries, config.k)
        )
        measured = _measure_point(index, queries, config.k, config.batch)
        points.append({
            "label": label,
            "family": family,
            "params": params,
            "recall_at_k": float(recall),
            "recall_floor": _recall_floor(recall),
            "build_seconds": float(build_seconds),
            "memory_bytes": int(memory_bytes),
            **measured,
        })

    add_point("exact", "exact", exact, {}, 0.0, store.normalized().nbytes)

    nlist = config.nlist or default_nlist(V)
    timer = StatTimer("serve.frontier.build")
    with timer:
        ivf = IVFIndex(store, nlist=nlist, nprobe=1, seed=config.seed)
    ivf_build = timer.total
    float_bytes = store.normalized().nbytes + ivf.centroids.nbytes
    for nprobe in config.nprobes:
        ivf.nprobe = min(nprobe, nlist)
        add_point(
            f"ivf-f32(nprobe={nprobe})", "ivf", ivf,
            {"nlist": nlist, "nprobe": nprobe, "rescoring": "float32"},
            ivf_build, float_bytes,
        )

    if config.quant_nprobes:
        timer = StatTimer("serve.frontier.build")
        with timer:
            int8 = Int8Store.build(store)
            ivf8 = IVFIndex(
                store, nlist=nlist, nprobe=1, seed=config.seed,
                codes=int8, centroids=ivf.centroids,
            )
        int8_build = ivf_build + timer.total
        for nprobe in config.quant_nprobes:
            ivf8.nprobe = min(nprobe, nlist)
            add_point(
                f"ivf-int8(nprobe={nprobe})", "ivf-int8", ivf8,
                {"nlist": nlist, "nprobe": nprobe, "rescoring": "int8"},
                int8_build, int8.memory_bytes() + ivf.centroids.nbytes,
            )

    return {"config": config.as_dict(), "k": config.k, "points": points}


def check_frontier_floors(fresh: dict, recorded: dict) -> list[str]:
    """Compare a fresh sweep against recorded floors; returns violations.

    Points are matched by label, in both directions: a config mismatch,
    a recorded point missing from the fresh sweep, a fresh point with no
    recorded ``recall_floor`` (a backend added to the sweep must ship
    with one), or a fresh recall@k below its recorded floor each produce
    one message; an empty list means the frontier holds.
    """
    if fresh.get("config") != recorded.get("config"):
        return [
            "frontier config mismatch: sweep ran "
            f"{fresh.get('config')} but floors were recorded for "
            f"{recorded.get('config')}"
        ]
    fresh_by_label = {p["label"]: p for p in fresh.get("points", [])}
    floors = {p["label"]: p.get("recall_floor") for p in recorded.get("points", [])}
    violations = [
        f"{label}: point missing from fresh sweep"
        for label in floors
        if label not in fresh_by_label
    ]
    for label, got in fresh_by_label.items():
        floor = floors.get(label)
        if floor is None:
            violations.append(f"{label}: no recorded floor")
        elif got["recall_at_k"] < floor:
            violations.append(
                f"{label}: recall@k {got['recall_at_k']:.3f} fell below "
                f"recorded floor {floor:.3f}"
            )
    return violations
