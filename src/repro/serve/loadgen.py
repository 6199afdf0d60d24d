"""The classic single-stream load run, as a workload spec.

:func:`run_load` drives a :class:`~repro.serve.engine.QueryEngine` with a
Zipf-distributed query mix over the store's rows (rank = row id + 1,
exponent configurable — heavy-tail traffic like real query logs) arriving
on a Poisson schedule at a modeled QPS.  It is not a second harness: a
:class:`LoadConfig` is shorthand for the single-tenant, open-loop,
no-warm-up, no-batching-horizon
:class:`~repro.serve.workload.spec.WorkloadSpec`, and the run *is*
:func:`~repro.serve.workload.runner.run_workload` on the caller's engine,
so the report, its modeled/measured split, the answers fingerprint and
the Chrome trace are the workload harness' own
(:class:`~repro.serve.workload.runner.WorkloadReport`).
"""

from __future__ import annotations

from dataclasses import dataclass
import math

import numpy as np

from repro.serve.engine import QueryEngine
from repro.serve.workload.arrivals import PoissonArrivals
from repro.serve.workload.runner import WorkloadReport, run_workload
from repro.serve.workload.spec import WorkloadSpec
from repro.serve.workload.tenants import TenantMix
from repro.util.checks import positive_finite
from repro.util.rng import DEFAULT_SEED

__all__ = ["LoadConfig", "generate_queries", "run_load"]


@dataclass(frozen=True)
class LoadConfig:
    """One load run: how many queries, their mix, and the modeled arrivals.

    ``zipf_exponent`` shapes the popularity skew (1.0-1.3 matches web
    query logs); ``arrival_qps`` is the *modeled* offered rate that
    timestamps the Chrome trace — submission never waits on the wall clock.
    """

    num_queries: int = 512
    k: int = 10
    zipf_exponent: float = 1.1
    arrival_qps: float = 2000.0
    seed: int = DEFAULT_SEED

    def __post_init__(self) -> None:
        # num_queries == 0 is a legal degenerate run (see WorkloadSpec).
        if self.num_queries < 0:
            raise ValueError(
                f"num_queries must be non-negative, got {self.num_queries}"
            )
        if self.k <= 0:
            raise ValueError(f"k must be positive, got {self.k}")
        if not (self.zipf_exponent >= 0 and math.isfinite(self.zipf_exponent)):
            raise ValueError(
                f"zipf_exponent must be non-negative and finite, got {self.zipf_exponent}"
            )
        positive_finite(self.arrival_qps, "arrival_qps")


def generate_queries(vocab_size: int, config: LoadConfig) -> np.ndarray:
    """The deterministic query-id stream for ``config`` (Zipf over rows).

    The degenerate single-tenant mix over the full vocabulary — the
    stream :func:`run_load` submits, **bit-identical** to the
    pre-workload formulation (same rng domain, same single ``choice``
    draw), which the regression tests pin against the answer hashes
    recorded in ``BENCH_serve.json``.
    """
    mix = TenantMix.single(zipf_exponent=config.zipf_exponent)
    _, ids = mix.query_stream(vocab_size, config.num_queries, config.seed)
    return ids


def run_load(
    engine: QueryEngine,
    config: LoadConfig | None = None,
    index_label: str = "index",
) -> WorkloadReport:
    """Drive ``engine`` with the workload of ``config``; report the run.

    Queries already sitting in the engine's buffer are flushed first and
    the stats reset, so the report covers exactly this run.  Queries are
    submitted in schedule order, only the engine's ``max_batch`` chops
    them into batches (no batching horizon), and a final flush drains
    the tail.  ``index_label`` names the backend in the report.
    """
    config = config or LoadConfig()
    spec = WorkloadSpec(
        name="load",
        backend=index_label,
        store=None,
        num_queries=config.num_queries,
        k=config.k,
        seed=config.seed,
        arrivals=PoissonArrivals(config.arrival_qps),
        flush_horizon_us=math.inf,
        tenants=TenantMix.single(zipf_exponent=config.zipf_exponent),
        max_batch=engine.max_batch,
        cache_size=engine.cache.capacity,
    )
    return run_workload(spec, store=engine.index.store, engine=engine)
