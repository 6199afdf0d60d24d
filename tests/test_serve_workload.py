"""Unit + hypothesis battery over the multi-tenant workload harness.

Contracts pinned here:

- **Arrivals** — every process is seed-deterministic, non-decreasing and
  non-negative; :class:`PoissonArrivals` reproduces the PR-4 load
  generator's schedule bit-for-bit; burst trains invert their
  piecewise-constant cumulative intensity *exactly* (checked against
  hand-computed warps of a stubbed unit-rate stream) and concentrate
  arrivals inside the burst windows.
- **Tenants** — a single-tenant mix reproduces the legacy
  ``generate_queries`` stream bit-for-bit; every tenant's ids stay in
  its vocabulary slice; weights skew the assignment; the interleaved
  stream and its fingerprint are pure functions of the seed.
- **SLOs** — metric-default comparison directions, ``max``/``min``
  JSON sugar, and the no-vacuous-pass rule (a missing scope or metric
  FAILS).
- **Plugins** — every built-in backend builds an engine answering
  ``search``-shaped queries; unknown names and unconsumed options fail
  loudly.
- **Runner** — ``modeled()`` is bit-stable across executor widths and
  repeat runs; the warm-up window always ends at a batch boundary (also
  hunted with hypothesis over random stream/window/batch shapes in both
  loop modes); closed-loop wave sizes follow the concurrency ramp
  exactly; per-tenant measured counts partition the measurement window.
- **Legacy pin** — the refactored loadgen still produces the recorded
  ``BENCH_serve.json`` ``exact`` answer hash.
"""

import copy
import json
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st
import numpy as np
import pytest

from repro.serve.engine import QueryEngine
from repro.serve.index import ExactIndex
from repro.serve.loadgen import LoadConfig, generate_queries, run_load
from repro.serve.shard import ShardedEngine
from repro.serve.store import EmbeddingStore
from repro.serve.workload import (
    BurstArrivals,
    PoissonArrivals,
    RampStage,
    SLORule,
    StoreSpec,
    TenantMix,
    TenantSpec,
    WorkloadSpec,
    all_pass,
    arrival_times_us,
    arrivals_from_dict,
    available_backends,
    build_backend,
    evaluate_slos,
    format_verdicts,
    register_backend,
    run_workload,
)
import repro.serve.workload.plugins as plugins_module
from repro.serve.workload.tenants import zipf_probabilities
from repro.util.rng import Domain, keyed_rng

REPO_ROOT = Path(__file__).resolve().parents[1]

_STORE_DOMAIN = 0x574C53  # "WLS" — workload-test stores
NAN, INF = json.loads("[NaN, Infinity]")

PROCESSES = [
    PoissonArrivals(qps=1500.0),
    BurstArrivals(base_qps=200.0, burst_qps=4000.0, period_s=0.5, burst_s=0.05),
]


def make_store(V=120, d=8, seed=5):
    matrix = keyed_rng(seed, _STORE_DOMAIN, V, d).normal(size=(V, d))
    return EmbeddingStore(
        matrix.astype(np.float32), [f"w{i:04d}" for i in range(V)]
    )


class _UnitGapRng:
    """Stub rng: every exponential draw equals its scale (gaps of 1/rate)."""

    def exponential(self, scale=1.0, size=None):
        return np.full(size, scale, dtype=np.float64)


# ---------------------------------------------------------------------------
# arrivals
# ---------------------------------------------------------------------------
class TestArrivals:
    def test_poisson_matches_legacy_formulation(self):
        # The PR-4 loadgen schedule: exponential gaps at 1/qps, cumsum, µs.
        legacy = (
            np.cumsum(keyed_rng(42, 0x415256).exponential(1.0 / 1234.0, size=777))
            * 1e6
        )
        np.testing.assert_array_equal(
            arrival_times_us(PoissonArrivals(qps=1234.0), 777, 42), legacy
        )

    @pytest.mark.parametrize("process", PROCESSES, ids=lambda p: p.as_dict()["kind"])
    def test_monotone_nonnegative_deterministic(self, process):
        times = arrival_times_us(process, 300, 9)
        again = arrival_times_us(process, 300, 9)
        np.testing.assert_array_equal(times, again)
        assert times.shape == (300,)
        assert np.all(times >= 0.0)
        assert np.all(np.diff(times) >= 0.0)
        assert not np.array_equal(times, arrival_times_us(process, 300, 10))

    @pytest.mark.parametrize("process", PROCESSES, ids=lambda p: p.as_dict()["kind"])
    def test_streams_share_a_prefix(self, process):
        # One rng draw per query + exact inversion -> longer streams extend
        # shorter ones.
        short = arrival_times_us(process, 100, 21)
        long = arrival_times_us(process, 250, 21)
        np.testing.assert_array_equal(short, long[:100])

    def test_empty_stream(self):
        for process in PROCESSES:
            assert arrival_times_us(process, 0, 3).shape == (0,)

    def test_burst_inverts_exactly(self):
        # period 1s = 0.5s at 3 qps (Lambda gain 1.5) + 0.5s at 1 qps
        # (gain 0.5).  Unit sums 1..4 warp to hand-computed knot times.
        burst = BurstArrivals(
            base_qps=1.0, burst_qps=3.0, period_s=1.0, burst_s=0.5
        )
        times = burst.times_us(4, _UnitGapRng())
        np.testing.assert_allclose(
            times, np.array([1.0 / 3.0, 1.0, 4.0 / 3.0, 2.0]) * 1e6
        )

    def test_burst_concentrates_arrivals(self):
        process = BurstArrivals(
            base_qps=100.0, burst_qps=10000.0, period_s=1.0, burst_s=0.1
        )
        seconds = arrival_times_us(process, 2000, 4) / 1e6
        in_burst = np.mean((seconds % process.period_s) < process.burst_s)
        # Bursts carry 10000*0.1 / (10000*0.1 + 100*0.9) ~ 92% of the mass;
        # a uniform process would put only 10% in the windows.
        assert in_burst > 0.5

    def test_validation(self):
        with pytest.raises(ValueError, match="qps"):
            PoissonArrivals(qps=0.0)
        with pytest.raises(ValueError, match="burst_s"):
            BurstArrivals(period_s=0.1, burst_s=0.1)
        with pytest.raises(ValueError, match="concurrency"):
            RampStage(concurrency=0)
        with pytest.raises(ValueError, match="non-negative"):
            arrival_times_us(PoissonArrivals(), -1, 0)

    @pytest.mark.parametrize("process", PROCESSES, ids=lambda p: p.as_dict()["kind"])
    def test_dict_round_trip(self, process):
        assert arrivals_from_dict(process.as_dict()) == process

    def test_from_dict_rejects_garbage(self):
        with pytest.raises(ValueError, match="unknown arrival kind"):
            arrivals_from_dict({"kind": "fractal"})
        with pytest.raises(ValueError, match="bad arrival spec"):
            arrivals_from_dict({"kind": "poisson", "qqps": 10.0})
        with pytest.raises(ValueError, match="bad arrival spec"):
            arrivals_from_dict({"kind": ["poisson"]})


seeds = st.integers(min_value=0, max_value=2**32 - 1)


class TestArrivalProperties:
    @settings(max_examples=20, deadline=None)
    @given(
        seed=seeds,
        kind=st.integers(0, len(PROCESSES) - 1),
        n=st.integers(0, 200),
    )
    def test_every_process_is_a_valid_schedule(self, seed, kind, n):
        times = arrival_times_us(PROCESSES[kind], n, seed)
        assert times.shape == (n,)
        assert np.all(times >= 0.0)
        assert np.all(np.diff(times) >= 0.0)
        np.testing.assert_array_equal(times, arrival_times_us(PROCESSES[kind], n, seed))


# ---------------------------------------------------------------------------
# tenants
# ---------------------------------------------------------------------------
class TestTenants:
    def test_single_mix_matches_legacy_generate_queries(self):
        config = LoadConfig(num_queries=777, zipf_exponent=1.3, seed=42)
        legacy = generate_queries(500, config)
        _, ids = TenantMix.single(zipf_exponent=1.3).query_stream(500, 777, 42)
        np.testing.assert_array_equal(ids, legacy)
        # And the inlined PR-4 formulation, in case loadgen ever drifts:
        raw = keyed_rng(42, 0x51524D).choice(
            500, size=777, p=zipf_probabilities(500, 1.3)
        )
        np.testing.assert_array_equal(ids, raw)

    def test_ids_stay_in_vocab_slices(self):
        mix = TenantMix(
            (
                TenantSpec("low", vocab_start=0.0, vocab_stop=0.25),
                TenantSpec("high", vocab_start=0.25, vocab_stop=1.0),
                TenantSpec("all"),
            )
        )
        tenant_idx, ids = mix.query_stream(400, 1500, 13)
        assert set(np.unique(tenant_idx)) == {0, 1, 2}
        assert ids[tenant_idx == 0].max() < 100
        assert ids[tenant_idx == 1].min() >= 100
        assert ids.min() >= 0 and ids.max() < 400

    def test_weights_skew_assignment(self):
        mix = TenantMix(
            (TenantSpec("heavy", weight=9.0), TenantSpec("light", weight=1.0))
        )
        tenant_idx = mix.assignments(2000, 8)
        heavy = int((tenant_idx == 0).sum())
        assert heavy > 5 * (2000 - heavy)

    def test_tenant_streams_use_distinct_rng_keys(self):
        # Two tenants with identical profiles must not mirror each other.
        mix = TenantMix((TenantSpec("a"), TenantSpec("b")))
        tenant_idx, ids = mix.query_stream(300, 1000, 3)
        a, b = ids[tenant_idx == 0], ids[tenant_idx == 1]
        size = min(a.size, b.size)
        assert not np.array_equal(a[:size], b[:size])

    def test_stream_fingerprint_pins_names_and_ids(self):
        mix = TenantMix((TenantSpec("a"), TenantSpec("b")))
        tenant_idx, ids = mix.query_stream(300, 500, 3)
        digest = mix.stream_sha256(tenant_idx, ids)
        assert digest == mix.stream_sha256(tenant_idx, ids)
        renamed = TenantMix((TenantSpec("a"), TenantSpec("c")))
        assert digest != renamed.stream_sha256(tenant_idx, ids)

    def test_vocab_slice_never_empty(self):
        assert TenantSpec("t", vocab_start=0.999, vocab_stop=1.0).vocab_slice(10) == (9, 10)
        assert TenantSpec("t", vocab_start=0.0, vocab_stop=0.001).vocab_slice(10) == (0, 1)

    def test_validation(self):
        with pytest.raises(ValueError, match="qos"):
            TenantSpec("t", qos="platinum")
        with pytest.raises(ValueError, match="name"):
            TenantSpec("")
        with pytest.raises(ValueError, match="weight"):
            TenantSpec("t", weight=0.0)
        with pytest.raises(ValueError, match="vocab fractions"):
            TenantSpec("t", vocab_start=0.5, vocab_stop=0.5)
        with pytest.raises(ValueError, match="unique"):
            TenantMix((TenantSpec("t"), TenantSpec("t")))
        with pytest.raises(ValueError, match="at least one tenant"):
            TenantMix(())

    def test_dict_round_trip(self):
        mix = TenantMix(
            (
                TenantSpec("gold", weight=2.0, qos="gold", k=20),
                TenantSpec("batch", vocab_start=0.5, vocab_stop=0.75, qos="batch"),
            )
        )
        assert TenantMix.from_dict(mix.as_dict()) == mix
        with pytest.raises(ValueError, match="vocab"):
            TenantSpec.from_dict({"name": "t", "vocab": [0.1]})
        with pytest.raises(ValueError, match="bad tenant spec"):
            TenantSpec.from_dict({"name": "t", "wight": 2.0})


class TestTenantProperties:
    @settings(max_examples=20, deadline=None)
    @given(
        seed=seeds,
        n=st.integers(0, 500),
        vocab=st.integers(1, 300),
        start=st.floats(0.0, 0.9),
        width=st.floats(0.05, 1.0),
        exponent=st.floats(0.0, 2.0),
    )
    def test_slices_and_determinism(self, seed, n, vocab, start, width, exponent):
        stop = min(1.0, start + width)
        mix = TenantMix(
            (
                TenantSpec(
                    "sliced",
                    zipf_exponent=exponent,
                    vocab_start=start,
                    vocab_stop=stop,
                ),
                TenantSpec("full", weight=2.0),
            )
        )
        tenant_idx, ids = mix.query_stream(vocab, n, seed)
        again_idx, again_ids = mix.query_stream(vocab, n, seed)
        np.testing.assert_array_equal(tenant_idx, again_idx)
        np.testing.assert_array_equal(ids, again_ids)
        lo, hi = mix.tenants[0].vocab_slice(vocab)
        sliced = ids[tenant_idx == 0]
        if sliced.size:
            assert sliced.min() >= lo and sliced.max() < hi
        assert n == 0 or (ids.min() >= 0 and ids.max() < vocab)


# ---------------------------------------------------------------------------
# SLOs
# ---------------------------------------------------------------------------
class TestSLO:
    def test_metric_default_directions(self):
        assert SLORule("p99_ms", 50.0).op == "<="
        assert SLORule("qps", 100.0).op == ">="
        assert SLORule("cache_hit_rate", 0.5).op == ">="
        assert SLORule("p50_ms", 1.0, op=">=").op == ">="

    def test_check_sense(self):
        assert SLORule("p99_ms", 50.0).check(50.0)
        assert not SLORule("p99_ms", 50.0).check(50.001)
        assert SLORule("qps", 100.0).check(100.0)
        assert not SLORule("qps", 100.0).check(99.9)

    def test_validation(self):
        with pytest.raises(ValueError, match="unknown metric"):
            SLORule("p75_ms", 1.0)
        with pytest.raises(ValueError, match="op"):
            SLORule("p99_ms", 1.0, op="<")
        with pytest.raises(ValueError, match="finite"):
            SLORule("p99_ms", float("nan"))
        with pytest.raises(ValueError, match="scope"):
            SLORule("p99_ms", 1.0, scope="")

    def test_from_dict_sugar(self):
        rule = SLORule.from_dict({"scope": "gold", "metric": "p99_ms", "max": 50.0})
        assert rule == SLORule("p99_ms", 50.0, scope="gold", op="<=")
        rule = SLORule.from_dict({"metric": "p50_ms", "min": 1.0})
        assert rule.op == ">=" and rule.scope == "aggregate"
        rule = SLORule.from_dict({"metric": "qps", "threshold": 5.0})
        assert rule.op == ">="  # metric default
        with pytest.raises(ValueError, match="exactly one"):
            SLORule.from_dict({"metric": "qps", "max": 1.0, "min": 2.0})
        with pytest.raises(ValueError, match="exactly one"):
            SLORule.from_dict({"metric": "qps"})
        with pytest.raises(ValueError, match="bad SLO rule"):
            SLORule.from_dict({"metric": "qps", "max": 1.0, "scpe": "gold"})

    def test_evaluate_and_missing_scopes_fail(self):
        stats = {"aggregate": {"p99_ms": 10.0, "qps": 500.0}, "gold": {"p99_ms": 2.0}}
        rules = [
            SLORule("p99_ms", 50.0),
            SLORule("qps", 1000.0),
            SLORule("p99_ms", 1.0, scope="gold"),
            SLORule("p99_ms", 1.0, scope="ghost"),
            SLORule("cache_hit_rate", 0.1, scope="gold"),
        ]
        verdicts = evaluate_slos(rules, stats)
        assert [v.passed for v in verdicts] == [True, False, False, False, False]
        assert verdicts[3].observed is None and "ghost" in verdicts[3].detail
        assert "not measured" in verdicts[4].detail
        assert not all_pass(verdicts)
        assert all_pass([])
        lines = format_verdicts(verdicts).splitlines()
        assert lines[0].startswith("FAIL") and lines[-1].startswith("PASS")
        assert verdicts[0].summary().startswith("PASS  aggregate: p99_ms <= 50")


# ---------------------------------------------------------------------------
# plugins
# ---------------------------------------------------------------------------
class TestPlugins:
    def test_builtins_registered(self):
        assert {"exact", "ivf", "ivf-int8", "sharded"} <= set(available_backends())

    def test_every_registered_backend_clears_the_recall_floor(self):
        """Shipping a backend means recall@10 >= 0.8 against ``exact`` at its
        default options — walked over the registry, so a new backend is held
        to the floor without anyone adding it to a list."""
        store = StoreSpec(4000, 32, 80).build(7)
        rows = keyed_rng(7, Domain.RECALL).choice(len(store), 128, replace=False)
        words = [store.word_of(int(row)) for row in rows]
        truth, _ = ExactIndex(store).search(store.matrix[rows], 10)
        for name in available_backends():
            answers = build_backend(name, store).query(words, 10)
            hits = sum(
                len(set(ids.tolist()) & set(want.tolist()))
                for (ids, _), want in zip(answers, truth)
            )
            assert hits / truth.size >= 0.8, (name, hits / truth.size)

    @pytest.mark.parametrize(
        "name,options",
        [
            ("exact", {}),
            ("ivf", {}),
            ("ivf", {"nlist": 8, "nprobe": 4}),
            ("ivf-int8", {"nlist": 8}),
            ("ivf-int8", {"nlist": 8, "nprobe": 2}),
            ("sharded", {"shards": 3.0, "replicas": 2}),  # integral floats are ints
        ],
    )
    def test_every_builtin_serves_queries(self, name, options):
        store = make_store(V=96, d=8)
        engine = build_backend(name, store, options, seed=7, max_batch=8)
        ticket = engine.submit("w0003", 5)
        engine.flush()
        ids, scores = ticket.result
        assert ids.shape == (5,) and scores.shape == (5,)
        if name == "sharded":
            assert isinstance(engine, ShardedEngine)
            assert engine.serve_extras()["plan"]["num_shards"] == 3

    def test_unknown_backend(self):
        with pytest.raises(ValueError, match="unknown backend 'faiss'"):
            build_backend("faiss", make_store())

    def test_unconsumed_options_rejected(self):
        with pytest.raises(ValueError, match="does not understand options \\['nprob'\\]"):
            build_backend("ivf", make_store(), {"nlist": 8, "nprob": 4})

    @pytest.mark.parametrize(
        "name,options,field",
        [
            ("ivf", {"nprobe": 2.5}, "nprobe"),
            ("ivf", {"nlist": True}, "nlist"),
            ("ivf-int8", {"nlist": "8"}, "nlist"),
            ("sharded", {"shards": 2.9}, "shards"),
            ("exact", [["nprobe", 3]], "backend_options"),
        ],
    )
    def test_mistyped_options_rejected_naming_the_option(self, name, options, field):
        """No option is silently truncated by ``int()``; integral floats are fine."""
        with pytest.raises(ValueError, match=f"{field}.* must be"):
            build_backend(name, make_store(), options)

    def test_register_custom_backend(self):
        @register_backend("test-custom")
        def _build(store, options, seed, engine_kwargs):
            return QueryEngine(ExactIndex(store), **engine_kwargs)

        try:
            assert "test-custom" in available_backends()
            with pytest.raises(ValueError, match="already registered"):
                register_backend("test-custom")(_build)
            engine = build_backend("test-custom", make_store(), max_batch=4)
            assert engine.max_batch == 4
        finally:
            plugins_module._REGISTRY.pop("test-custom")


# ---------------------------------------------------------------------------
# spec
# ---------------------------------------------------------------------------
class TestWorkloadSpec:
    def test_open_round_trip(self):
        spec = WorkloadSpec(
            name="rt",
            backend="ivf",
            backend_options={"nlist": 16},
            arrivals=BurstArrivals(),
            tenants=TenantMix((TenantSpec("a"), TenantSpec("b", qos="batch"))),
            slos=(SLORule("p99_ms", 50.0), SLORule("qps", 10.0, scope="a")),
            warmup_queries=64,
        )
        assert WorkloadSpec.from_json(spec.to_json()) == spec

    def test_closed_round_trip(self):
        spec = WorkloadSpec(
            name="rt-closed",
            mode="closed",
            ramp=(RampStage(concurrency=4, queries=100), RampStage(concurrency=16)),
        )
        parsed = WorkloadSpec.from_json(spec.to_json())
        assert parsed == spec
        assert "arrivals" not in spec.as_dict()
        assert "ramp" not in WorkloadSpec(name="open").as_dict()

    def test_from_file(self, tmp_path):
        path = tmp_path / "spec.json"
        spec = WorkloadSpec(name="disk", seed=99)
        path.write_text(spec.to_json())
        assert WorkloadSpec.from_file(path) == spec

    def test_smoke_spec_parses(self):
        spec = WorkloadSpec.from_file(REPO_ROOT / "benchmarks/workloads/smoke.json")
        assert spec.name == "smoke"
        assert spec.backend == "ivf"
        assert len(spec.tenants) == 3
        assert len(spec.slos) == 5

    def test_validation(self):
        with pytest.raises(ValueError, match="warmup_queries"):
            WorkloadSpec(num_queries=10, warmup_queries=10)
        with pytest.raises(ValueError, match="warmup_queries"):
            WorkloadSpec(num_queries=0, warmup_queries=1)
        with pytest.raises(ValueError, match="num_queries"):
            WorkloadSpec(num_queries=-1)
        with pytest.raises(ValueError, match="k must be positive"):
            WorkloadSpec(k=0)
        with pytest.raises(ValueError, match="flush_horizon_us"):
            WorkloadSpec(flush_horizon_us=float("nan"))
        with pytest.raises(ValueError, match="mode"):
            WorkloadSpec(mode="ajar")
        with pytest.raises(ValueError, match="bad workload spec"):
            WorkloadSpec.from_dict({"name": "x", "bakend": "exact"})
        with pytest.raises(ValueError, match="clusters"):
            StoreSpec(vocab_size=10, clusters=11)

    def test_store_build_is_seeded(self):
        spec = StoreSpec(vocab_size=50, dim=4, clusters=5)
        a, b = spec.build(3), spec.build(3)
        np.testing.assert_array_equal(a.matrix, b.matrix)
        assert a.words[0] == "tok00" and len(a) == 50
        assert not np.array_equal(a.matrix, spec.build(4).matrix)

    @pytest.mark.parametrize(
        "patch,field",
        [
            ({"num_queries": 2.5}, "num_queries"),
            ({"max_batch": True}, "max_batch"),
            ({"backend_options": [["nprobe", 3]]}, "backend_options"),
            ({"tenants": 5}, "tenants"),
            ({"k": "10"}, "k"),
            ({"store": {"vocab_size": 2.5}}, "vocab_size"),
            ({"arrivals": {"kind": "poisson", "qps": "fast"}}, "qps"),
            ({"arrivals": {"kind": "burst", "burst_s": "x"}}, "burst_s"),
            ({"ramp": [{"concurrency": 1.5}]}, "concurrency"),
            ({"slos": [{"metric": "qps", "min": [1]}]}, "min"),
            ({"tenants": [{"name": "t", "vocab": [0, "1"]}]}, "vocab"),
            ({"seed": -1}, "seed"),
            # json.load reads NaN and Infinity; rates, weights and scales
            # must be finite, not NaN or all-zero timestamps downstream.
            ({"arrivals": {"kind": "poisson", "qps": INF}}, "qps"),
            ({"arrivals": {"kind": "poisson", "qps": NAN}}, "qps"),
            ({"arrivals": {"kind": "burst", "base_qps": NAN}}, "base_qps"),
            ({"arrivals": {"kind": "burst", "burst_qps": NAN}}, "burst_qps"),
            ({"arrivals": {"kind": "burst", "burst_s": NAN}}, "burst_s"),
            ({"arrivals": {"kind": "burst", "period_s": INF}}, "period_s"),
            ({"tenants": [{"name": "t", "weight": NAN}]}, "weight"),
            ({"tenants": [{"name": "t", "weight": INF}]}, "weight"),
            ({"tenants": [{"name": "t", "zipf_exponent": NAN}]}, "zipf_exponent"),
            ({"tenants": [{"name": "t", "zipf_exponent": INF}]}, "zipf_exponent"),
            ({"store": {"spread": NAN}}, "spread"),
            ({"store": {"spread": INF}}, "spread"),
        ],
    )
    def test_json_boundary_names_the_field(self, patch, field):
        with pytest.raises(ValueError, match=f"{field}'? must"):
            WorkloadSpec.from_dict({"name": "x", **patch})
        assert WorkloadSpec.from_dict({"name": "x", "num_queries": 64.0}).num_queries == 64


#: benchmarks/workloads/smoke.json, the spec the CI SLO gate runs.
SMOKE_SPEC = json.loads((REPO_ROOT / "benchmarks/workloads/smoke.json").read_text())

#: A store wide enough for the smoke spec's ``nlist``; cheap to index.
FUZZ_STORE = StoreSpec(256, 8, 8).build(7)

#: Type swaps and value mutations: every JSON type plus numeric edges.
SWAPS = ["x", "", "10", True, False, None, 0, -1, 2.5, 3.0, 10**12, [], [1], {}, {"k": 1}]


def _paths(node, path=()):
    """Every path into ``node`` (object keys and list indexes)."""
    if path:
        yield path
    children = node.items() if isinstance(node, dict) else (
        enumerate(node) if isinstance(node, list) else ()
    )
    for key, child in children:
        yield from _paths(child, path + (key,))


SMOKE_PATHS = list(_paths(SMOKE_SPEC))


def _parent(document, path):
    for key in path[:-1]:
        document = document[key]
    return document


class TestWorkloadSpecFuzz:
    """Deleted, type-swapped and mutated fields of the smoke spec: loading
    and building its backend either succeed or raise a ``ValueError``
    that names a field — never a bare ``TypeError``/``KeyError``."""

    @settings(max_examples=300, deadline=None)
    @given(
        edits=st.lists(
            st.tuples(
                st.sampled_from(SMOKE_PATHS),
                st.one_of(st.just("delete"), st.sampled_from(SWAPS)),
            ),
            min_size=1,
            max_size=2,
        )
    )
    def test_mutated_smoke_spec_fails_only_naming_a_field(self, edits):
        document = json.loads(json.dumps(SMOKE_SPEC))
        names = set()  # the path's keys, its siblings and its children
        for path, value in edits:
            names |= {key for key in path if isinstance(key, str)}
            parent = _parent(SMOKE_SPEC, path)
            for node in (parent, parent[path[-1]]):
                names |= set(node) if isinstance(node, dict) else set()
            try:
                parent = _parent(document, path)
                if value == "delete":
                    del parent[path[-1]]
                else:
                    parent[path[-1]] = copy.deepcopy(value)  # later edits may write into it
            except (KeyError, IndexError, TypeError):
                pass  # an earlier edit removed or replaced this path
        try:
            spec = WorkloadSpec.from_dict(document)
            build_backend(
                spec.backend, FUZZ_STORE, spec.backend_options, seed=spec.seed,
                max_batch=spec.max_batch, cache_size=spec.cache_size,
            )
        except ValueError as exc:
            assert any(name in str(exc) for name in names), (edits, str(exc))


# ---------------------------------------------------------------------------
# runner
# ---------------------------------------------------------------------------
MIX = TenantMix(
    (
        TenantSpec("gold", weight=2.0, zipf_exponent=1.2, vocab_stop=0.5, qos="gold"),
        TenantSpec("std", weight=3.0),
        TenantSpec("bulk", weight=1.0, vocab_start=0.5, qos="batch", k=5),
    )
)

OPEN_SPEC = WorkloadSpec(
    name="unit-open",
    backend="exact",
    store=StoreSpec(vocab_size=120, dim=8, clusters=10),
    num_queries=200,
    warmup_queries=40,
    seed=17,
    arrivals=PoissonArrivals(qps=2000.0),
    tenants=MIX,
    slos=(SLORule("queries", 1.0), SLORule("p99_ms", 1e6)),
    max_batch=16,
    cache_size=64,
)


class TestRunner:
    def test_modeled_is_invariant_to_workers(self):
        one = run_workload(OPEN_SPEC, workers=1)
        four = run_workload(OPEN_SPEC, workers=4)
        assert one.modeled() == four.modeled()

    def test_modeled_is_deterministic_across_runs(self):
        assert run_workload(OPEN_SPEC).modeled() == run_workload(OPEN_SPEC).modeled()

    def test_batch_and_window_accounting(self):
        report = run_workload(OPEN_SPEC)
        n, warmup = OPEN_SPEC.num_queries, OPEN_SPEC.warmup_queries
        assert sum(report.batch_sizes) == n
        assert sum(report.batch_sizes[: report.warmup_batches]) == warmup
        assert max(report.batch_sizes) <= OPEN_SPEC.max_batch
        assert sum(report.tenant_counts.values()) == n
        assert sum(report.tenant_measured_counts.values()) == n - warmup
        assert report.aggregate_measured["queries"] == n - warmup
        assert set(report.tenant_counts) == {"gold", "std", "bulk"}
        assert report.tenant_measured["bulk"]["qos"] == "batch"
        assert len(report.batch_seconds) == len(report.batch_sizes)
        assert len(report.batch_arrival_us) == len(report.batch_sizes)
        assert report.slo_pass  # trivially satisfiable rules
        assert report.summary().startswith("workload unit-open [exact/open]")

    def test_zero_flush_horizon_degenerates_to_singleton_batches(self):
        import dataclasses

        spec = dataclasses.replace(OPEN_SPEC, flush_horizon_us=0.0)
        report = run_workload(spec)
        assert report.batch_sizes == [1] * spec.num_queries

    def test_huge_flush_horizon_fills_batches(self):
        import dataclasses

        spec = dataclasses.replace(
            OPEN_SPEC,
            num_queries=64,
            warmup_queries=8,
            flush_horizon_us=1e12,
        )
        report = run_workload(spec)
        # Warm-up forces a boundary at 8; afterwards only max_batch flushes.
        assert report.batch_sizes == [8, 16, 16, 16, 8]
        assert report.warmup_batches == 1

    @pytest.mark.parametrize("mode", ["open", "closed"])
    def test_zero_query_run_is_well_defined(self, mode):
        """num_queries=0 is a legal degenerate run, as it is for LoadConfig."""
        import dataclasses

        spec = dataclasses.replace(
            OPEN_SPEC, mode=mode, num_queries=0, warmup_queries=0
        )
        assert WorkloadSpec.from_json(spec.to_json()) == spec
        report = run_workload(spec)
        assert report.batch_sizes == [] and report.batch_arrival_us == []
        assert report.warmup_batches == 0
        assert report.tenant_counts == {"gold": 0, "std": 0, "bulk": 0}
        assert report.aggregate_measured == {
            "queries": 0, "qps": 0.0, "cache_hit_rate": 0.0,
            "p50_ms": 0.0, "p95_ms": 0.0, "p99_ms": 0.0,
        }
        assert len(report.answers_sha256) == 64 and len(report.stream_sha256) == 64
        assert not report.slo_pass  # "queries >= 1" fails on an empty window
        assert json.loads(report.to_json())["modeled"] == report.modeled()

    def test_no_horizon_is_json_null_not_infinity(self):
        import dataclasses

        spec = dataclasses.replace(
            OPEN_SPEC, num_queries=64, warmup_queries=8, flush_horizon_us=float("inf")
        )
        # parse_constant fires on Infinity/NaN, which are not JSON.
        parsed = json.loads(spec.to_json(), parse_constant=pytest.fail)
        assert parsed["flush_horizon_us"] is None
        assert WorkloadSpec.from_json(spec.to_json()) == spec
        report = run_workload(spec)
        json.loads(report.to_json(), parse_constant=pytest.fail)
        # Only the warm-up boundary and max_batch ever flush.
        assert report.batch_sizes == [8, 16, 16, 16, 8]

    def test_closed_loop_wave_structure(self):
        spec = WorkloadSpec(
            name="unit-closed",
            backend="exact",
            store=StoreSpec(vocab_size=60, dim=4, clusters=6),
            mode="closed",
            num_queries=20,
            warmup_queries=5,
            seed=23,
            ramp=(RampStage(concurrency=3, queries=9), RampStage(concurrency=5)),
            max_batch=64,
        )
        report = run_workload(spec)
        # Ramp stage one (9 queries, waves of 3) splits its second wave at the
        # warm-up boundary; stage two drains the remaining 11 in waves of 5.
        assert report.batch_sizes == [3, 2, 3, 1, 5, 5, 1]
        assert report.warmup_batches == 2
        assert run_workload(spec, workers=4).modeled() == report.modeled()

    def test_engine_override_matches_plugin_build(self):
        store = OPEN_SPEC.store.build(OPEN_SPEC.seed)
        engine = QueryEngine(
            ExactIndex(store),
            max_batch=OPEN_SPEC.max_batch,
            cache_size=OPEN_SPEC.cache_size,
        )
        override = run_workload(OPEN_SPEC, store=store, engine=engine)
        assert override.modeled() == run_workload(OPEN_SPEC).modeled()

    def test_tenant_k_override_changes_answers(self):
        import dataclasses

        no_override = dataclasses.replace(
            OPEN_SPEC,
            tenants=TenantMix(
                tuple(
                    dataclasses.replace(t, k=None) for t in MIX.tenants
                )
            ),
        )
        assert (
            run_workload(OPEN_SPEC).answers_sha256
            != run_workload(no_override).answers_sha256
        )

    def test_missing_store_requires_explicit_store(self):
        import dataclasses

        spec = dataclasses.replace(OPEN_SPEC, store=None)
        with pytest.raises(ValueError, match="no store section"):
            run_workload(spec)
        report = run_workload(spec, store=make_store(V=120, d=8))
        assert sum(report.batch_sizes) == spec.num_queries

    def test_verdicts_fail_for_unknown_tenant_scope(self):
        import dataclasses

        spec = dataclasses.replace(
            OPEN_SPEC, slos=(SLORule("p99_ms", 100.0, scope="ghost"),)
        )
        report = run_workload(spec)
        assert not report.slo_pass
        assert report.verdicts[0].observed is None

    def test_report_exports(self):
        report = run_workload(OPEN_SPEC)
        payload = json.loads(report.to_json())
        assert payload["modeled"]["answers_sha256"] == report.answers_sha256
        assert payload["slo_pass"] is True
        row = report.bench_row()
        assert row["tenant_counts"] == report.tenant_counts
        assert set(row["latency_ms"]) == {"p50_ms", "p95_ms", "p99_ms"}
        trace = json.loads(report.trace_json())["traceEvents"]
        batches = [e for e in trace if e["ph"] == "X"]
        assert len(batches) == len(report.batch_sizes)
        warm = sum(1 for e in batches if e["args"]["window"] == "warmup")
        assert warm == report.warmup_batches


class TestRunnerProperties:
    STORE = make_store(V=60, d=6, seed=31)

    @settings(max_examples=12, deadline=None)
    @given(
        seed=seeds,
        n=st.integers(2, 48),
        warmup_frac=st.floats(0.0, 0.99),
        max_batch=st.integers(1, 12),
        mode=st.sampled_from(["open", "closed"]),
    )
    def test_warmup_boundary_and_workers_invariance(
        self, seed, n, warmup_frac, max_batch, mode
    ):
        warmup = int(warmup_frac * n)
        spec = WorkloadSpec(
            name="prop",
            backend="exact",
            store=None,
            mode=mode,
            num_queries=n,
            warmup_queries=warmup,
            seed=seed,
            arrivals=BurstArrivals(
                base_qps=500.0, burst_qps=8000.0, period_s=0.05, burst_s=0.01
            ),
            ramp=(RampStage(concurrency=5, queries=n // 2), RampStage(concurrency=3)),
            tenants=MIX,
            max_batch=max_batch,
            cache_size=16,
        )
        report = run_workload(spec, store=self.STORE, workers=1)
        assert sum(report.batch_sizes) == n
        assert sum(report.batch_sizes[: report.warmup_batches]) == warmup
        assert max(report.batch_sizes) <= max_batch
        assert sum(report.tenant_measured_counts.values()) == n - warmup
        wide = run_workload(spec, store=self.STORE, workers=4)
        assert report.modeled() == wide.modeled()


# ---------------------------------------------------------------------------
# legacy pin: the loadgen refactor must not move the recorded answers
# ---------------------------------------------------------------------------
class TestLegacyBenchPin:
    def test_exact_bench_row_answers_reproduce(self):
        recorded = json.loads((REPO_ROOT / "BENCH_serve.json").read_text())
        expected = recorded["exact"]["answers_sha256"]
        matrix = keyed_rng(3, 0x42454E43).normal(size=(4000, 64)).astype(np.float32)
        store = EmbeddingStore(matrix, [f"tok{i:05d}" for i in range(4000)])
        engine = QueryEngine(ExactIndex(store), max_batch=64, cache_size=512)
        report = run_load(engine, LoadConfig(num_queries=2048, k=10, seed=11))
        assert report.answers_sha256 == expected
