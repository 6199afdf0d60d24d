"""Drive an engine with a workload spec; report stats and SLO verdicts.

:func:`run_workload` is the harness: it builds (or accepts) a store and
a backend engine, generates the multi-tenant query stream and the
arrival schedule from the spec seed, drives the engine in **open-loop**
(arrival-driven batching windows) or **closed-loop** (concurrency waves)
mode, splits the run into warm-up and measurement windows at a forced
batch boundary, and evaluates the spec's SLO rules against the
measurement-window stats.

The PR-3/PR-4 determinism contract carries over unchanged:

- **Modeled** — the query stream, the tenant interleaving, every batch
  boundary, the cache accounting, and every answer are pure functions of
  ``(spec, engine knobs)``.  Batching decisions read only *modeled*
  arrival timestamps (never the wall clock), so
  :meth:`WorkloadReport.modeled` is bit-stable across runs and invariant
  to ``workers=`` / ``REPRO_WORKERS``.
- **Measured** — per-batch wall-clock latency, aggregate and per-tenant
  percentiles over the measurement window, and throughput (``qps``:
  measurement-window queries over that window's summed batch service
  seconds, the one definition every table, bench row and SLO reads)
  vary run to run; they are what SLO verdicts judge.

Open-loop batching: a query joins the pending buffer at its modeled
arrival; the buffer flushes when ``max_batch`` fills (the engine's own
auto-flush) or when the next arrival falls more than
``flush_horizon_us`` after the first pending arrival — the modeled
analogue of a batching timeout.  Closed-loop batching: each
:class:`~repro.serve.workload.arrivals.RampStage` runs waves of
``concurrency`` simulated users in lock-step — every user submits one
query, the wave flushes, users submit again.
"""

from __future__ import annotations

from dataclasses import dataclass, field
import hashlib
import json

import numpy as np

from repro.galois.timers import StatTimer
from repro.serve.engine import QueryEngine
from repro.serve.shard import fingerprint_update
from repro.serve.store import EmbeddingStore
from repro.serve.workload.arrivals import RampStage, arrival_times_us
from repro.serve.workload.plugins import build_backend
from repro.serve.workload.slo import (
    AGGREGATE_SCOPE,
    SLOVerdict,
    all_pass,
    evaluate_slos,
)
from repro.serve.workload.spec import WorkloadSpec
from repro.util.tables import format_table

__all__ = ["WorkloadReport", "run_workload", "format_reports"]

_US = 1e6


def _fingerprint(words, results) -> str:
    digest = hashlib.sha256()
    for word, (ids, scores) in zip(words, results):
        fingerprint_update(digest, word, ids, scores)
    return digest.hexdigest()


def _percentiles_ms(seconds: np.ndarray) -> dict[str, float]:
    if seconds.size == 0:
        return {"p50_ms": 0.0, "p95_ms": 0.0, "p99_ms": 0.0}
    p50, p95, p99 = np.percentile(seconds, [50, 95, 99]) * 1e3
    return {"p50_ms": float(p50), "p95_ms": float(p95), "p99_ms": float(p99)}


def _resolve_ramp(ramp: tuple[RampStage, ...], n: int) -> list[tuple[int, int]]:
    """Concrete ``(concurrency, count)`` stages covering exactly ``n`` queries.

    A stage with ``queries == 0`` absorbs the remainder; if every stage
    has an explicit count and they run short, the last stage extends.
    """
    stages: list[tuple[int, int]] = []
    remaining = n
    for stage in ramp:
        if remaining == 0:
            break
        count = remaining if stage.queries == 0 else min(stage.queries, remaining)
        stages.append((stage.concurrency, count))
        remaining -= count
    if remaining:
        concurrency, count = stages[-1] if stages else (ramp[-1].concurrency, 0)
        if stages:
            stages[-1] = (concurrency, count + remaining)
        else:
            stages.append((concurrency, remaining))
    return stages


@dataclass
class WorkloadReport:
    """What one workload run asked, answered, cost, and promised.

    Everything :meth:`modeled` returns is bit-stable per ``(spec, engine
    knobs)`` and invariant to executor width; :meth:`measured` fields
    are wall-clock.  ``verdicts`` judge the measurement window against
    the spec's SLO rules; :attr:`slo_pass` is their conjunction.
    """

    name: str
    backend: str
    mode: str
    seed: int
    num_queries: int
    warmup_queries: int
    k: int
    max_batch: int
    tenant_names: list[str]
    tenant_qos: dict[str, str]
    tenant_counts: dict[str, int]
    tenant_measured_counts: dict[str, int]
    batch_sizes: list[int]
    batch_seconds: list[float]
    batch_arrival_us: list[float]
    warmup_batches: int
    cache_hits: int
    cache_misses: int
    cache_evictions: int
    answers_sha256: str
    stream_sha256: str
    total_seconds: float
    measured_seconds: float
    aggregate_measured: dict
    tenant_measured: dict[str, dict]
    verdicts: list[SLOVerdict]
    spec_dict: dict = field(default_factory=dict)
    extras: dict = field(default_factory=dict)

    # -- derived -----------------------------------------------------------
    @property
    def slo_pass(self) -> bool:
        return all_pass(self.verdicts)

    @property
    def cache_hit_rate(self) -> float:
        lookups = self.cache_hits + self.cache_misses
        return self.cache_hits / lookups if lookups else 0.0

    def modeled(self) -> dict:
        """The deterministic core — identical for identical spec + knobs."""
        return {
            "name": self.name,
            "backend": self.backend,
            "mode": self.mode,
            "seed": self.seed,
            "num_queries": self.num_queries,
            "warmup_queries": self.warmup_queries,
            "k": self.k,
            "max_batch": self.max_batch,
            "tenant_counts": dict(self.tenant_counts),
            "tenant_measured_counts": dict(self.tenant_measured_counts),
            "batch_sizes": list(self.batch_sizes),
            "warmup_batches": self.warmup_batches,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "cache_evictions": self.cache_evictions,
            "answers_sha256": self.answers_sha256,
            "stream_sha256": self.stream_sha256,
        }

    def measured(self) -> dict:
        return {
            "total_seconds": self.total_seconds,
            "measured_seconds": self.measured_seconds,
            "aggregate": dict(self.aggregate_measured),
            "tenants": {name: dict(row) for name, row in self.tenant_measured.items()},
            "batch_seconds": list(self.batch_seconds),
        }

    def slo_stats(self) -> dict:
        """The ``{scope: {metric: value}}`` mapping SLO rules evaluate on."""
        stats = {AGGREGATE_SCOPE: dict(self.aggregate_measured)}
        for name, row in self.tenant_measured.items():
            stats[name] = dict(row)
        return stats

    # -- export ------------------------------------------------------------
    def as_dict(self) -> dict:
        return {
            "modeled": self.modeled(),
            "measured": self.measured(),
            "verdicts": [verdict.as_dict() for verdict in self.verdicts],
            "slo_pass": self.slo_pass,
            "cache_hit_rate": self.cache_hit_rate,
            "spec": dict(self.spec_dict),
            "extras": dict(self.extras),
        }

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(self.as_dict(), indent=indent)

    def bench_row(self) -> dict:
        """The compact row ``BENCH_serve.json`` records per workload."""
        return {
            "backend": self.backend,
            "mode": self.mode,
            "seed": self.seed,
            "num_queries": self.num_queries,
            "warmup_queries": self.warmup_queries,
            "tenant_counts": dict(self.tenant_counts),
            "answers_sha256": self.answers_sha256,
            "stream_sha256": self.stream_sha256,
            "throughput_qps": self.aggregate_measured.get("qps", 0.0),
            "latency_ms": {
                key: self.aggregate_measured.get(key, 0.0)
                for key in ("p50_ms", "p95_ms", "p99_ms")
            },
            "tenant_latency_ms": {
                name: {
                    key: row.get(key, 0.0) for key in ("p50_ms", "p95_ms", "p99_ms")
                }
                for name, row in self.tenant_measured.items()
            },
            "cache_hit_rate": self.cache_hit_rate,
            "verdicts": [verdict.as_dict() for verdict in self.verdicts],
            "slo_pass": self.slo_pass,
        }

    def chrome_trace_events(self, tid: int = 0) -> list[dict]:
        """Complete 'X' events, one per batch, on a dedicated engine row.

        Timestamps come from the *modeled* arrival schedule (the batch's
        first query), durations from measured batch latency — the same
        convention as :mod:`repro.cluster.trace`, where modeled and
        measured time share a timeline.  ``tid`` picks the row, so
        several reports can merge into one trace.
        """
        events: list[dict] = []
        for index, (size, seconds, arrival) in enumerate(
            zip(self.batch_sizes, self.batch_seconds, self.batch_arrival_us)
        ):
            events.append(
                {
                    "name": f"batch {index}",
                    "ph": "X",
                    "pid": 0,
                    "tid": tid,
                    "ts": float(arrival),
                    "dur": float(seconds) * _US,
                    "cat": "workload",
                    "args": {
                        "queries": int(size),
                        "backend": self.backend,
                        "window": (
                            "warmup" if index < self.warmup_batches else "measurement"
                        ),
                    },
                }
            )
        events.append(
            {
                "name": "thread_name",
                "ph": "M",
                "pid": 0,
                "tid": tid,
                "args": {"name": f"workload {self.name} ({self.backend})"},
            }
        )
        return events

    def trace_json(self) -> str:
        return json.dumps({"traceEvents": self.chrome_trace_events()})

    def summary(self) -> str:
        aggregate = self.aggregate_measured
        passed = sum(1 for verdict in self.verdicts if verdict.passed)
        return (
            f"workload {self.name} [{self.backend}/{self.mode}]: "
            f"{self.num_queries} queries ({self.warmup_queries} warm-up), "
            f"{aggregate.get('qps', 0.0):,.0f} qps, "
            f"p50 {aggregate.get('p50_ms', 0.0):.3f}ms "
            f"p95 {aggregate.get('p95_ms', 0.0):.3f}ms "
            f"p99 {aggregate.get('p99_ms', 0.0):.3f}ms, "
            f"cache hit rate {self.cache_hit_rate:.1%}, "
            f"SLOs {passed}/{len(self.verdicts)} pass"
        )


def format_reports(reports: list[WorkloadReport], title: str | None = None) -> str:
    """One table over ``reports``: a row per tenant of every multi-tenant
    run (``backend/tenant``), then each run's aggregate row (``backend``)."""

    def row(scope, qos, queries, stats, cache):
        return [
            scope, qos, queries, stats["queries"], float(stats["qps"]),
            stats["p50_ms"], stats["p95_ms"], stats["p99_ms"], cache,
        ]

    rows = []
    for report in reports:
        if len(report.tenant_names) > 1:
            rows.extend(
                row(f"{report.backend}/{name}", report.tenant_qos[name],
                    report.tenant_counts[name], report.tenant_measured[name], "-")
                for name in report.tenant_names
            )
        rows.append(
            row(report.backend, "-", report.num_queries,
                report.aggregate_measured, f"{report.cache_hit_rate:.1%}")
        )
    return format_table(
        ["scope", "qos", "queries", "measured", "qps", "p50 ms", "p95 ms",
         "p99 ms", "cache hits"],
        rows,
        title=title,
    )


def _drive_open(engine, words, ks, arrivals, warmup: int, horizon_us: float):
    """Submit in arrival order with modeled batching-window flushes."""
    tickets = []
    window_start: float | None = None
    for index, word in enumerate(words):
        if index == warmup and engine.pending:
            engine.flush()  # the warm-up window ends at a batch boundary
        if (
            engine.pending
            and window_start is not None
            and arrivals[index] - window_start > horizon_us
        ):
            engine.flush()
        if not engine.pending:
            window_start = float(arrivals[index])
        tickets.append(engine.submit(word, ks[index]))
    engine.flush()
    return tickets


def _drive_closed(engine, words, ks, stages, warmup: int):
    """Lock-step waves: ``concurrency`` users submit, the wave flushes."""
    tickets = []
    cursor = 0
    for concurrency, count in stages:
        end = cursor + count
        while cursor < end:
            wave = min(concurrency, end - cursor)
            if cursor < warmup < cursor + wave:
                wave = warmup - cursor  # never straddle the window boundary
            for index in range(cursor, cursor + wave):
                tickets.append(engine.submit(words[index], ks[index]))
            engine.flush()
            cursor += wave
    return tickets


def run_workload(
    spec: WorkloadSpec,
    store: EmbeddingStore | None = None,
    engine: QueryEngine | None = None,
    *,
    workers: int | None = None,
    executor=None,
    clock=None,
) -> WorkloadReport:
    """Run ``spec``; returns the full :class:`WorkloadReport`.

    ``store`` overrides the spec's synthetic store (serve a real trained
    snapshot); ``engine`` overrides the backend plugin entirely (the
    spec's ``backend``/``max_batch``/``cache_size`` are then ignored —
    the report labels the run with the spec's backend name regardless).
    ``workers``/``executor``/``clock`` forward to the engine build, with
    the usual ``REPRO_WORKERS`` env default applying when unset.
    """
    if store is None:
        if spec.store is None:
            raise ValueError(
                "spec has no store section; pass a store= explicitly"
            )
        store = spec.store.build(spec.seed)
    if engine is None:
        engine_kwargs: dict = {
            "max_batch": spec.max_batch,
            "cache_size": spec.cache_size,
            "workers": workers,
            "executor": executor,
        }
        if clock is not None:
            engine_kwargs["clock"] = clock
        engine = build_backend(
            spec.backend,
            store,
            spec.backend_options,
            seed=spec.seed,
            **engine_kwargs,
        )

    n = spec.num_queries
    warmup = spec.warmup_queries
    tenant_idx, query_ids = spec.tenants.query_stream(len(store), n, spec.seed)
    words = [store.word_of(int(i)) for i in query_ids]
    ks = [
        tenant.k if tenant.k is not None else spec.k
        for tenant in (spec.tenants.tenants[t] for t in tenant_idx)
    ]
    arrivals = arrival_times_us(spec.arrivals, n, spec.seed)

    if engine.pending:
        engine.flush()
    engine.reset_stats()
    wall = StatTimer("serve.workload")
    with wall:
        if spec.mode == "open":
            tickets = _drive_open(
                engine, words, ks, arrivals, warmup, spec.flush_horizon_us
            )
        else:
            stages = _resolve_ramp(spec.ramp, n)
            tickets = _drive_closed(engine, words, ks, stages, warmup)
    results = [ticket.result for ticket in tickets]

    stats = engine.stats
    batch_sizes = list(stats.batch_sizes)
    batch_seconds = list(stats.batch_seconds)

    # The warm-up window ends at a forced batch boundary; find it.
    warmup_batches = 0
    covered = 0
    for size in batch_sizes:
        if covered >= warmup:
            break
        covered += size
        warmup_batches += 1
    if covered != warmup:
        raise RuntimeError(
            f"warm-up boundary fell inside a batch (covered {covered} of "
            f"{warmup}) — the driver must force a flush at the boundary"
        )

    # Modeled batch arrival stamps: open mode reads the arrival schedule
    # (each batch stamped by its first query); closed mode has no modeled
    # schedule, so batches stack end-to-end on measured durations (a
    # trace-only, measured-side convention — not part of modeled()).
    batch_arrival_us: list[float] = []
    if spec.mode == "open":
        cursor = 0
        for size in batch_sizes:
            batch_arrival_us.append(float(arrivals[min(cursor, n - 1)]))
            cursor += size
    else:
        elapsed = 0.0
        for seconds in batch_seconds:
            batch_arrival_us.append(elapsed * _US)
            elapsed += seconds

    per_query_seconds = np.repeat(
        np.asarray(batch_seconds, dtype=np.float64),
        np.asarray(batch_sizes, dtype=np.int64),
    )
    measured_mask = np.arange(n) >= warmup
    measured_seconds = float(sum(batch_seconds[warmup_batches:]))

    tenant_counts: dict[str, int] = {}
    tenant_measured_counts: dict[str, int] = {}
    tenant_measured: dict[str, dict] = {}
    for index, tenant in enumerate(spec.tenants.tenants):
        mask = tenant_idx == index
        tenant_counts[tenant.name] = int(mask.sum())
        window = mask & measured_mask
        count = int(window.sum())
        tenant_measured_counts[tenant.name] = count
        row = {
            "queries": count,
            "qos": tenant.qos,
            "qps": count / measured_seconds if measured_seconds > 0 else 0.0,
            **_percentiles_ms(per_query_seconds[window]),
        }
        tenant_measured[tenant.name] = row

    measured_count = int(measured_mask.sum())
    aggregate_measured = {
        "queries": measured_count,
        "qps": measured_count / measured_seconds if measured_seconds > 0 else 0.0,
        "cache_hit_rate": (
            stats.cache.hits / stats.cache.lookups if stats.cache.lookups else 0.0
        ),
        **_percentiles_ms(per_query_seconds[measured_mask]),
    }

    verdicts_stats = {AGGREGATE_SCOPE: aggregate_measured, **tenant_measured}
    verdicts = evaluate_slos(spec.slos, verdicts_stats)

    extras: dict = {}
    serve_extras = getattr(engine, "serve_extras", None)
    if callable(serve_extras):
        extras.update(serve_extras())

    return WorkloadReport(
        name=spec.name,
        backend=spec.backend,
        mode=spec.mode,
        seed=spec.seed,
        num_queries=n,
        warmup_queries=warmup,
        k=spec.k,
        max_batch=engine.max_batch,
        tenant_names=spec.tenants.names,
        tenant_qos={t.name: t.qos for t in spec.tenants.tenants},
        tenant_counts=tenant_counts,
        tenant_measured_counts=tenant_measured_counts,
        batch_sizes=batch_sizes,
        batch_seconds=batch_seconds,
        batch_arrival_us=batch_arrival_us,
        warmup_batches=warmup_batches,
        cache_hits=stats.cache.hits,
        cache_misses=stats.cache.misses,
        cache_evictions=stats.cache.evictions,
        answers_sha256=_fingerprint(words, results),
        stream_sha256=spec.tenants.stream_sha256(tenant_idx, query_ids),
        total_seconds=wall.total,
        measured_seconds=measured_seconds,
        aggregate_measured=aggregate_measured,
        tenant_measured=tenant_measured,
        verdicts=verdicts,
        spec_dict=spec.as_dict(),
        extras=extras,
    )
