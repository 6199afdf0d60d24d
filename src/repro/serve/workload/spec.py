"""Workload specifications: one JSON document describes one load run.

A :class:`WorkloadSpec` is the declarative form the CLI consumes
(``repro serve-bench --workload spec.json``): which backend serves,
which store it serves over (a seed-deterministic synthetic clustered
store, so CI needs no trained model), how load arrives (open-loop
arrival process or closed-loop concurrency ramp), who sends it (the
tenant mix), how much of the stream is warm-up, and which SLOs gate the
run.  Everything modeled about the run — the query stream, the batch
composition, the cache accounting, every answer — is a pure function of
``(spec, engine knobs)``; see :mod:`repro.serve.workload.runner`.

The JSON shape mirrors the dataclasses::

    {
      "name": "smoke",
      "backend": "ivf", "backend_options": {"nlist": 64, "nprobe": 4},
      "store": {"vocab_size": 4000, "dim": 32, "clusters": 80},
      "mode": "open",
      "arrivals": {"kind": "burst", "base_qps": 800, "burst_qps": 4000,
                   "period_s": 0.25, "burst_s": 0.05},
      "num_queries": 768, "warmup_queries": 128, "k": 10, "seed": 7,
      "tenants": [{"name": "gold", "weight": 2, "zipf_exponent": 1.2,
                   "vocab": [0.0, 0.25], "qos": "gold"}, ...],
      "slos": [{"scope": "aggregate", "metric": "p99_ms", "max": 250.0},
               {"scope": "gold", "metric": "p99_ms", "max": 250.0}]
    }

``mode: "closed"`` replaces ``arrivals`` with ``ramp``, a list of
``{"concurrency": C, "queries": N}`` stages.  Open mode also takes
``flush_horizon_us`` (the modeled batching timeout); ``null`` means no
horizon — only ``max_batch`` flushes — and is ``float("inf")`` in Python.
"""

from __future__ import annotations

from dataclasses import dataclass, field
import json
import math
from pathlib import Path

import numpy as np

from repro.serve.store import EmbeddingStore
from repro.serve.workload.arrivals import (
    ArrivalProcess,
    PoissonArrivals,
    RampStage,
    arrivals_from_dict,
)
from repro.serve.workload.fields import json_fields, json_list, json_object
from repro.serve.workload.slo import SLORule
from repro.serve.workload.tenants import TenantMix
from repro.util.checks import positive_finite
from repro.util.rng import DEFAULT_SEED, Domain, keyed_rng

__all__ = ["StoreSpec", "WorkloadSpec", "MODES", "clustered_matrix"]

MODES = ("open", "closed")


def clustered_matrix(
    vocab_size: int,
    dim: int,
    clusters: int,
    spread: float = 0.35,
    seed: int = DEFAULT_SEED,
) -> np.ndarray:
    """A seed-deterministic family-structured embedding matrix.

    ``clusters`` unit-norm centers are drawn, every row picks a center
    uniformly and adds ``spread``-scaled Gaussian noise — the same
    center-plus-variation geometry the synthetic corpus plants through
    word families, at vocabularies far beyond what a training run can
    reach in-process.  Smaller ``spread`` means tighter families (easier
    ANN); ``spread`` around 0.3-0.4 matches the within-family cosines of
    models trained on the presets.
    """
    if not 1 <= clusters <= vocab_size:
        raise ValueError(f"clusters must be in [1, {vocab_size}], got {clusters}")
    positive_finite(spread, "spread")
    rng = keyed_rng(seed, Domain.CLUSTER, vocab_size, dim, clusters)
    centers = rng.normal(size=(clusters, dim))
    centers /= np.linalg.norm(centers, axis=1, keepdims=True)
    assignment = rng.integers(0, clusters, size=vocab_size)
    noise = rng.normal(scale=spread / np.sqrt(dim), size=(vocab_size, dim))
    return (centers[assignment] + noise).astype(np.float32)


@dataclass(frozen=True)
class StoreSpec:
    """A synthetic clustered store (rows from :func:`clustered_matrix`).

    Family-structured Gaussian rows — the geometry trained embeddings
    have — at any vocabulary size, built deterministically from the
    workload seed, so workload runs need no trained model.
    """

    vocab_size: int = 4000
    dim: int = 32
    clusters: int = 80
    spread: float = 0.35

    def __post_init__(self) -> None:
        if self.vocab_size <= 0:
            raise ValueError(f"vocab_size must be positive, got {self.vocab_size}")
        if self.dim <= 0:
            raise ValueError(f"dim must be positive, got {self.dim}")
        if not 1 <= self.clusters <= self.vocab_size:
            raise ValueError(
                f"clusters must be in [1, {self.vocab_size}], got {self.clusters}"
            )
        positive_finite(self.spread, "spread")

    def build(self, seed: int) -> EmbeddingStore:
        matrix = clustered_matrix(
            self.vocab_size, self.dim, self.clusters, self.spread, seed
        )
        width = len(str(self.vocab_size - 1))
        words = [f"tok{i:0{width}d}" for i in range(self.vocab_size)]
        return EmbeddingStore(matrix, words)

    def as_dict(self) -> dict:
        return {
            "vocab_size": self.vocab_size,
            "dim": self.dim,
            "clusters": self.clusters,
            "spread": self.spread,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "StoreSpec":
        try:
            return cls(**json_fields(cls, data, "store"))
        except TypeError as exc:
            raise ValueError(f"bad store spec: {exc}") from None


@dataclass(frozen=True)
class WorkloadSpec:
    """One declarative load run (see the module docstring for the JSON form)."""

    name: str = "workload"
    backend: str = "exact"
    backend_options: dict = field(default_factory=dict)
    store: StoreSpec | None = field(default_factory=StoreSpec)
    mode: str = "open"
    num_queries: int = 512
    warmup_queries: int = 0
    k: int = 10
    seed: int = DEFAULT_SEED
    arrivals: ArrivalProcess = field(default_factory=PoissonArrivals)
    flush_horizon_us: float = 20000.0
    ramp: tuple[RampStage, ...] = (RampStage(concurrency=8),)
    tenants: TenantMix = field(default_factory=TenantMix.single)
    slos: tuple[SLORule, ...] = ()
    max_batch: int = 64
    cache_size: int = 1024

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("workload name must be non-empty")
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")
        # num_queries == 0 is a legal degenerate run: the report has an
        # empty stream, zero throughput and all-zero percentiles.
        if self.num_queries < 0:
            raise ValueError(
                f"num_queries must be non-negative, got {self.num_queries}"
            )
        if not 0 <= self.warmup_queries < max(self.num_queries, 1):
            raise ValueError(
                f"warmup_queries must be in [0, {self.num_queries}), got "
                f"{self.warmup_queries}"
            )
        if self.k <= 0:
            raise ValueError(f"k must be positive, got {self.k}")
        if self.seed < 0:  # keyed_rng keys are non-negative
            raise ValueError(f"seed must be non-negative, got {self.seed}")
        if not self.flush_horizon_us >= 0:  # also rejects NaN
            raise ValueError(
                f"flush_horizon_us must be non-negative, got {self.flush_horizon_us}"
            )
        if not self.ramp:
            raise ValueError("ramp needs at least one stage")
        if self.max_batch <= 0:
            raise ValueError(f"max_batch must be positive, got {self.max_batch}")
        if self.cache_size <= 0:
            raise ValueError(f"cache_size must be positive, got {self.cache_size}")

    # -- serialization -----------------------------------------------------
    def as_dict(self) -> dict:
        out = {
            "name": self.name,
            "backend": self.backend,
            "backend_options": dict(self.backend_options),
            "mode": self.mode,
            "num_queries": self.num_queries,
            "warmup_queries": self.warmup_queries,
            "k": self.k,
            "seed": self.seed,
            "tenants": self.tenants.as_dict(),
            "slos": [rule.as_dict() for rule in self.slos],
            "max_batch": self.max_batch,
            "cache_size": self.cache_size,
        }
        if self.store is not None:
            out["store"] = self.store.as_dict()
        if self.mode == "open":
            out["arrivals"] = self.arrivals.as_dict()
            # No horizon (only max_batch flushes) is JSON null, not Infinity.
            out["flush_horizon_us"] = (
                None if math.isinf(self.flush_horizon_us) else self.flush_horizon_us
            )
        else:
            out["ramp"] = [stage.as_dict() for stage in self.ramp]
        return out

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(self.as_dict(), indent=indent)

    @classmethod
    def from_dict(cls, data: dict) -> "WorkloadSpec":
        """Parse the JSON form; a bad field is a ``ValueError`` naming it."""
        spec = dict(json_object(data, "workload spec"))
        if spec.get("flush_horizon_us", 0.0) is None:
            spec["flush_horizon_us"] = math.inf
        spec = json_fields(cls, spec, "workload spec")
        kwargs: dict = {}
        try:
            if "store" in spec:
                store = spec.pop("store")
                kwargs["store"] = None if store is None else StoreSpec.from_dict(store)
            if "arrivals" in spec:
                kwargs["arrivals"] = arrivals_from_dict(spec.pop("arrivals"))
            if "ramp" in spec:
                kwargs["ramp"] = tuple(
                    RampStage(**json_fields(RampStage, stage, "ramp entry"))
                    for stage in json_list(spec.pop("ramp"), "ramp")
                )
            if "tenants" in spec:
                kwargs["tenants"] = TenantMix.from_dict(spec.pop("tenants"))
            if "slos" in spec:
                kwargs["slos"] = tuple(
                    SLORule.from_dict(rule) for rule in json_list(spec.pop("slos"), "slos")
                )
            return cls(**spec, **kwargs)
        except TypeError as exc:
            raise ValueError(f"bad workload spec: {exc}") from None

    @classmethod
    def from_json(cls, text: str) -> "WorkloadSpec":
        return cls.from_dict(json.loads(text))

    @classmethod
    def from_file(cls, path: Path | str) -> "WorkloadSpec":
        return cls.from_json(Path(path).read_text())
