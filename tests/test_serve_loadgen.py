"""run_load as a single-tenant workload spec: determinism, export formats."""

import json

import numpy as np
import pytest

from repro.serve.engine import QueryEngine
from repro.serve.index import ExactIndex
from repro.serve.ivf import IVFIndex
from repro.serve.loadgen import LoadConfig, generate_queries, run_load
from repro.serve.store import EmbeddingStore
from repro.serve.workload import PoissonArrivals, TenantMix, WorkloadSpec, run_workload
from repro.util.rng import default_rng


def make_store(V=300, d=16, seed=1):
    rng = default_rng(seed)
    matrix = rng.normal(size=(V, d)).astype(np.float32)
    return EmbeddingStore(matrix, [f"w{i:03d}" for i in range(V)])


class TestGenerateQueries:
    def test_deterministic(self):
        config = LoadConfig(num_queries=200, seed=9)
        np.testing.assert_array_equal(
            generate_queries(100, config), generate_queries(100, config)
        )

    def test_seed_changes_stream(self):
        a = generate_queries(100, LoadConfig(num_queries=200, seed=1))
        b = generate_queries(100, LoadConfig(num_queries=200, seed=2))
        assert not np.array_equal(a, b)

    def test_zipf_skew_favors_low_ranks(self):
        ids = generate_queries(
            1000, LoadConfig(num_queries=5000, zipf_exponent=1.2, seed=3)
        )
        head = np.sum(ids < 10)
        tail = np.sum(ids >= 990)
        assert head > 5 * max(tail, 1)

    def test_flat_exponent_is_uniformish(self):
        ids = generate_queries(
            50, LoadConfig(num_queries=5000, zipf_exponent=0.0, seed=3)
        )
        counts = np.bincount(ids, minlength=50)
        assert counts.min() > 0

    def test_validation(self):
        with pytest.raises(ValueError, match="vocab_size"):
            generate_queries(0, LoadConfig())
        with pytest.raises(ValueError, match="num_queries"):
            LoadConfig(num_queries=-1)
        for bad in (-1, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="zipf_exponent"):
                LoadConfig(zipf_exponent=bad)
        for bad in (0, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="arrival_qps"):
                LoadConfig(arrival_qps=bad)
        with pytest.raises(ValueError, match="k must be positive"):
            LoadConfig(k=0)


class TestRunLoad:
    def test_report_shape(self):
        store = make_store()
        engine = QueryEngine(ExactIndex(store), max_batch=16, cache_size=64)
        config = LoadConfig(num_queries=100, k=5, seed=4)
        report = run_load(engine, config, index_label="exact")
        assert report.num_queries == 100
        assert sum(report.batch_sizes) == 100
        assert len(report.batch_seconds) == len(report.batch_sizes)
        assert len(report.batch_arrival_us) == len(report.batch_sizes)
        assert report.cache_hits + report.cache_misses == 100
        assert 0.0 <= report.cache_hit_rate <= 1.0
        assert len(report.answers_sha256) == 64
        measured = report.aggregate_measured
        assert measured["queries"] == 100 and report.warmup_batches == 0
        assert measured["qps"] == pytest.approx(100 / sum(report.batch_seconds))
        assert measured["p50_ms"] <= measured["p95_ms"] <= measured["p99_ms"]
        assert report.tenant_counts == {"default": 100}
        assert report.backend == "exact" and report.mode == "open"

    def test_is_the_equivalent_workload_spec_by_construction(self):
        """run_load is run_workload on the single-tenant Poisson open-loop
        spec with no warm-up and no batching horizon — same modeled core,
        same trace up to measured durations."""
        store = make_store()
        config = LoadConfig(
            num_queries=150, k=5, zipf_exponent=1.3, arrival_qps=750.0, seed=21
        )
        spec = WorkloadSpec(
            name="load",
            backend="ivf",
            store=None,
            mode="open",
            num_queries=150,
            warmup_queries=0,
            k=5,
            seed=21,
            arrivals=PoissonArrivals(qps=750.0),
            flush_horizon_us=float("inf"),
            tenants=TenantMix.single(zipf_exponent=1.3),
            max_batch=16,
            cache_size=32,
        )

        def engine():
            return QueryEngine(IVFIndex(store, seed=5), max_batch=16, cache_size=32)

        loaded = run_load(engine(), config, index_label="ivf")
        explicit = run_workload(spec, store=store, engine=engine())
        assert loaded.modeled() == explicit.modeled()
        assert loaded.spec_dict == explicit.spec_dict == spec.as_dict()

        def modeled_events(report):
            events = report.chrome_trace_events(tid=1)
            assert all("dur" in e for e in events if e["ph"] == "X")
            return [{k: v for k, v in e.items() if k != "dur"} for e in events]

        assert modeled_events(loaded) == modeled_events(explicit)

    def test_modeled_identical_across_runs_and_workers(self):
        store = make_store()
        index = ExactIndex(store)
        config = LoadConfig(num_queries=150, seed=12)
        reports = [
            run_load(
                QueryEngine(index, max_batch=16, cache_size=32, workers=workers),
                config,
                index_label="exact",
            )
            for workers in (None, 2, 4)
        ]
        assert reports[0].modeled() == reports[1].modeled() == reports[2].modeled()

    def test_answers_and_cache_invariant_to_max_batch(self):
        store = make_store()
        index = IVFIndex(store, seed=5)
        config = LoadConfig(num_queries=150, seed=12)
        signatures = set()
        for max_batch in (1, 13, 150):
            report = run_load(
                QueryEngine(index, max_batch=max_batch, cache_size=32),
                config,
                index_label="ivf",
            )
            signatures.add(
                (
                    report.answers_sha256,
                    report.cache_hits,
                    report.cache_misses,
                    report.cache_evictions,
                )
            )
        assert len(signatures) == 1

    def test_different_seeds_different_answers(self):
        store = make_store()
        index = ExactIndex(store)
        a = run_load(QueryEngine(index), LoadConfig(num_queries=50, seed=1))
        b = run_load(QueryEngine(index), LoadConfig(num_queries=50, seed=2))
        assert a.answers_sha256 != b.answers_sha256

    def test_resets_engine_stats_first(self):
        store = make_store()
        engine = QueryEngine(ExactIndex(store), max_batch=8)
        engine.query(["w001"] * 20)
        report = run_load(engine, LoadConfig(num_queries=40, seed=3))
        assert report.num_queries == 40
        assert sum(report.batch_sizes) == 40

    def test_stale_pending_queries_drained_before_run(self):
        """Submitted-but-unflushed queries must not leak into the report:
        they would skew the first batch's size and walk the arrival
        cursor past the end of the schedule."""
        store = make_store()
        engine = QueryEngine(ExactIndex(store), max_batch=64)
        stale = [engine.submit(f"w{i:03d}") for i in range(5)]
        assert engine.pending == 5
        report = run_load(engine, LoadConfig(num_queries=30, seed=7))
        assert all(t.done for t in stale)
        assert report.num_queries == 30
        assert sum(report.batch_sizes) == 30
        assert len(report.batch_arrival_us) == len(report.batch_sizes)

    def test_zero_query_run_is_well_defined(self):
        """num_queries=0 is a legal degenerate run: empty stream, zero
        throughput, all-zero percentiles, and a valid (empty) report."""
        store = make_store()
        engine = QueryEngine(ExactIndex(store), max_batch=16, cache_size=8)
        config = LoadConfig(num_queries=0, seed=11)
        assert generate_queries(100, config).shape == (0,)
        report = run_load(engine, config, index_label="exact")
        assert report.num_queries == 0
        assert report.batch_sizes == []
        assert report.batch_arrival_us == []
        assert report.cache_hits == 0 and report.cache_misses == 0
        assert report.cache_hit_rate == 0.0
        measured = report.aggregate_measured
        assert measured["qps"] == 0.0
        assert (measured["p50_ms"], measured["p95_ms"], measured["p99_ms"]) == (0, 0, 0)
        assert len(report.answers_sha256) == 64
        payload = json.loads(report.to_json())
        assert payload["modeled"]["batch_sizes"] == []
        assert [e["ph"] for e in report.chrome_trace_events()] == ["M"]

    def test_single_batch_run(self):
        """The whole stream fits one flush: one batch, one arrival stamp."""
        store = make_store()
        engine = QueryEngine(ExactIndex(store), max_batch=64, cache_size=64)
        report = run_load(engine, LoadConfig(num_queries=16, seed=8))
        assert report.batch_sizes == [16]
        assert len(report.batch_seconds) == 1
        assert len(report.batch_arrival_us) == 1
        measured = report.aggregate_measured
        assert measured["p50_ms"] == measured["p99_ms"]  # every query shares the batch


class TestExport:
    @pytest.fixture
    def report(self):
        store = make_store()
        engine = QueryEngine(ExactIndex(store), max_batch=16, cache_size=64)
        return run_load(engine, LoadConfig(num_queries=64, seed=6), index_label="exact")

    def test_json_round_trip(self, report):
        # parse_constant fires on Infinity/NaN, which are not JSON.
        payload = json.loads(report.to_json(), parse_constant=pytest.fail)
        assert payload["modeled"] == report.modeled()
        assert payload["measured"]["aggregate"] == report.aggregate_measured
        assert {"qps", "p50_ms", "p95_ms", "p99_ms"} <= set(report.aggregate_measured)
        assert payload["cache_hit_rate"] == pytest.approx(report.cache_hit_rate)
        assert payload["spec"]["flush_horizon_us"] is None  # no batching horizon
        assert sum(payload["modeled"]["batch_sizes"]) == 64

    def test_chrome_trace_events(self, report):
        events = report.chrome_trace_events(tid=3)
        complete = [e for e in events if e["ph"] == "X"]
        meta = [e for e in events if e["ph"] == "M"]
        assert len(complete) == len(report.batch_sizes)
        assert all(e["tid"] == 3 and e["cat"] == "workload" for e in complete)
        assert all(e["dur"] >= 0 and e["ts"] >= 0 for e in complete)
        arrivals = [e["ts"] for e in complete]
        assert arrivals == sorted(arrivals)
        assert meta[0]["args"]["name"] == "workload load (exact)"
        json.dumps({"traceEvents": events})  # serializable as-is

    def test_trace_json(self, report):
        parsed = json.loads(report.trace_json())
        assert "traceEvents" in parsed

    def test_summary_mentions_key_numbers(self, report):
        text = report.summary()
        assert "exact" in text and "p99" in text and "cache hit rate" in text
