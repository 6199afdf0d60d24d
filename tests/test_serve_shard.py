"""Sharded serving: bit-identical scatter-gather, failover, generations."""

import numpy as np
import pytest

from repro.cluster.faults import (
    CrashEvent,
    FaultConfig,
    FaultSchedule,
    UnrecoverableFaultError,
)
from repro.galois.do_all import ThreadPoolDoAll
from repro.gluon.partition_stats import analyze_partitions
from repro.gluon.partitioner import contiguous_partitions
from repro.serve.engine import QueryEngine
from repro.serve.loadgen import LoadConfig, run_load
from repro.serve.shard import ShardedEngine, ShardedIndex, ShardPlan
from repro.serve.store import EmbeddingStore
from repro.util.rng import keyed_rng

_STORE_DOMAIN = 0x53484152  # "SHAR"
_QUERY_DOMAIN = 0x53515259  # "SQRY"


def make_store(V=240, d=16, seed=1):
    matrix = keyed_rng(seed, _STORE_DOMAIN, V, d).normal(size=(V, d))
    return EmbeddingStore(
        matrix.astype(np.float32), [f"w{i:04d}" for i in range(V)]
    )


def make_queries(store, n=24, seed=3):
    rng = keyed_rng(seed, _QUERY_DOMAIN, n)
    return store.matrix[rng.choice(len(store), n)]


def crash_schedule(crashes, num_hosts):
    """A schedule with exactly the given {(epoch, round): host} crashes."""
    events = {
        key: (CrashEvent(key[0], key[1], host=host, loss_fraction=0.5),)
        for key, host in crashes.items()
    }
    return FaultSchedule(
        FaultConfig(),
        num_hosts=num_hosts,
        epochs=1,
        rounds_per_epoch=0,
        crashes=events,
        stragglers={},
        message_seed=0,
    )


class TestShardPlan:
    def test_bounds_are_block_aligned_and_cover(self):
        plan = ShardPlan(503, 4)
        assert plan.bounds[0] == 0 and plan.bounds[-1] == 503
        interior = plan.bounds[1:-1]
        assert np.all(interior % plan.block_rows == 0)
        assert np.all(plan.shard_sizes() > 0)

    def test_default_block_rows_keeps_every_shard_nonempty(self):
        for V, S in [(5, 4), (10, 3), (17, 17), (9000, 2)]:
            plan = ShardPlan(V, S)
            assert len(plan.bounds) == S + 1
            assert np.all(plan.shard_sizes() > 0), (V, S)

    def test_validation(self):
        with pytest.raises(ValueError, match="num_shards"):
            ShardPlan(4, 5)
        with pytest.raises(ValueError, match="block_rows"):
            ShardPlan(100, 3, block_rows=0)
        with pytest.raises(ValueError, match="row blocks"):
            ShardPlan(100, 3, block_rows=50)  # only 2 blocks for 3 shards
        with pytest.raises(ValueError, match="replicas"):
            ShardPlan(100, 2, replicas=0)

    def test_partition_stats_replication_factor(self):
        plan = ShardPlan(240, 4, replicas=3)
        stats = plan.stats()
        assert stats.num_hosts == 12
        assert stats.replication_factor == pytest.approx(3.0)
        assert stats.num_nodes == 240

    def test_unreplicated_partitions_are_pure_masters(self):
        plan = ShardPlan(240, 4)
        parts = plan.partitions(replicated=False)
        assert len(parts) == 4
        stats = analyze_partitions(parts)
        assert stats.replication_factor == pytest.approx(1.0)
        assert stats.mirrors_total == 0

    def test_sub_stores_share_memory_and_match_rows(self):
        store = make_store()
        plan = ShardPlan(len(store), 3)
        subs = plan.sub_stores(store)
        assert sum(len(s) for s in subs) == len(store)
        for shard, sub in enumerate(subs):
            sl = plan.shard_slice(shard)
            assert np.shares_memory(sub.matrix, store.matrix)
            np.testing.assert_array_equal(sub.matrix, store.matrix[sl])
            np.testing.assert_array_equal(sub.norms, store.norms[sl])
            assert sub.words == store.words[sl.start : sl.stop]


class TestContiguousPartitions:
    def test_replicated_masters_cover_nodes_once(self):
        parts = contiguous_partitions(np.array([0, 50, 120, 200]), replicas=2)
        assert len(parts) == 6
        stats = analyze_partitions(parts)
        assert stats.replication_factor == pytest.approx(2.0)
        # Primary hosts own their block, replica hosts hold only mirrors.
        assert parts[0].is_master_local().all()
        assert not parts[1].is_master_local().any()
        np.testing.assert_array_equal(
            parts[1].local_to_global, parts[0].local_to_global
        )

    def test_validation(self):
        with pytest.raises(ValueError, match="start at 0"):
            contiguous_partitions(np.array([1, 5]))
        with pytest.raises(ValueError, match="non-decreasing"):
            contiguous_partitions(np.array([0, 5, 3]))
        with pytest.raises(ValueError, match="replicas"):
            contiguous_partitions(np.array([0, 5]), replicas=0)


class TestScatterGatherParity:
    @pytest.mark.parametrize("num_shards", [1, 2, 3, 5, 8])
    @pytest.mark.parametrize("replicas", [1, 2])
    def test_bit_identical_to_reference(self, num_shards, replicas):
        store = make_store()
        sharded = ShardedIndex(store, num_shards=num_shards, replicas=replicas)
        reference = sharded.plan.reference_index(store)
        queries = make_queries(store, 33)
        for k in (1, 7, 50):
            ref_ids, ref_scores = reference.search(queries, k)
            got_ids, got_scores = sharded.search(queries, k)
            np.testing.assert_array_equal(ref_ids, got_ids)
            np.testing.assert_array_equal(ref_scores, got_scores)

    def test_k_wider_than_any_shard_and_than_store(self):
        store = make_store(V=100)
        sharded = ShardedIndex(store, num_shards=4)
        reference = sharded.plan.reference_index(store)
        queries = make_queries(store, 9)
        for k in (40, 100, 250):  # > shard, == V, > V
            ref = reference.search(queries, k)
            got = sharded.search(queries, k)
            np.testing.assert_array_equal(ref[0], got[0])
            np.testing.assert_array_equal(ref[1], got[1])
            assert got[0].shape == (9, min(k, len(store)))

    @pytest.mark.parametrize("workers", [None, 2, 4])
    def test_engine_parity_across_workers(self, workers):
        store = make_store()
        sharded = ShardedIndex(store, num_shards=3, replicas=2)
        config = LoadConfig(num_queries=120, k=6, seed=9)
        engine = ShardedEngine(
            sharded, max_batch=16, cache_size=64, workers=workers
        )
        report = run_load(engine, config, index_label="sharded")
        ref_engine = QueryEngine(
            sharded.plan.reference_index(store), max_batch=16, cache_size=64
        )
        ref_report = run_load(ref_engine, config, index_label="exact")
        assert report.answers_sha256 == ref_report.answers_sha256
        assert report.modeled()["batch_sizes"] == ref_report.modeled()["batch_sizes"]
        assert report.cache_hits == ref_report.cache_hits

    def test_own_shard_pool_matches_serial_scatter(self):
        store = make_store()
        queries = make_queries(store, 20)
        serial = ShardedIndex(store, num_shards=4)
        with ThreadPoolDoAll(workers=3) as pool:
            threaded = ShardedIndex(store, num_shards=4, executor=pool)
            a = serial.search(queries, 8)
            b = threaded.search(queries, 8)
        np.testing.assert_array_equal(a[0], b[0])
        np.testing.assert_array_equal(a[1], b[1])


class TestReplicaRouting:
    def test_load_aware_round_robin_between_replicas(self):
        store = make_store()
        sharded = ShardedIndex(store, num_shards=2, replicas=2)
        queries = make_queries(store, 10)
        for _ in range(4):
            sharded.search(queries, 5)
        load = sharded.replica_load()
        # Equal-size rounds alternate deterministically: replica 0 takes
        # rounds 0 and 2, replica 1 rounds 1 and 3.
        np.testing.assert_array_equal(load, np.full((2, 2), 20))

    def test_routing_is_deterministic(self):
        store = make_store()
        runs = []
        for _ in range(2):
            sharded = ShardedIndex(store, num_shards=3, replicas=3)
            for n in (4, 9, 2, 7):
                sharded.search(make_queries(store, n), 5)
            runs.append(sharded.replica_load())
        np.testing.assert_array_equal(runs[0], runs[1])


class TestFailover:
    def test_crash_fails_over_with_identical_answers(self):
        store = make_store()
        # Host 2 == shard 1, replica 0 — its primary dies at round 0.
        schedule = crash_schedule({(0, 0): 2}, num_hosts=6)
        sharded = ShardedIndex(
            store, num_shards=3, replicas=2, faults=schedule
        )
        reference = sharded.plan.reference_index(store)
        queries = make_queries(store, 12)
        got = sharded.search(queries, 6)
        ref = reference.search(queries, 6)
        np.testing.assert_array_equal(ref[0], got[0])
        np.testing.assert_array_equal(ref[1], got[1])
        assert sharded.failovers == 1
        assert sharded.fault_report.crashes == 1
        load = sharded.replica_load()
        assert load[1, 0] == 0 and load[1, 1] == 12  # replica served it

    def test_recovery_accounting_and_rejoin(self):
        store = make_store()
        schedule = crash_schedule({(0, 0): 2}, num_hosts=6)
        sharded = ShardedIndex(
            store, num_shards=3, replicas=2, faults=schedule, recovery_rounds=2
        )
        queries = make_queries(store, 4)
        sharded.search(queries, 3)  # round 0: crash + failover
        sharded.search(queries, 3)  # round 1: still down
        assert sharded.recoveries == 0 and sharded.failovers == 2
        sharded.search(queries, 3)  # round 2: back in rotation
        assert sharded.recoveries == 1
        report = sharded.fault_report
        assert report.crashes == 1
        assert report.detect_s == pytest.approx(
            schedule.config.detect_timeout_s
        )
        shard_bytes = sharded.generation.sub_stores[1].memory_bytes()
        assert report.checkpoint_restore_bytes == shard_bytes
        assert report.restore_s == pytest.approx(
            shard_bytes / schedule.config.restore_bandwidth_Bps
        )
        extras = sharded.serve_extras()
        assert extras["faults"]["crashes"] == 1
        assert extras["failovers"] == 2 and extras["recoveries"] == 1

    def test_rejected_call_serves_no_round_and_fires_no_crash(self):
        """Validation runs ahead of the round counter: a mis-shaped or
        non-finite batch must not consume the round a crash is scheduled
        at, or the schedule would drift against the answered stream."""
        store = make_store()
        schedule = crash_schedule({(0, 0): 2}, num_hosts=6)
        sharded = ShardedIndex(store, num_shards=3, replicas=2, faults=schedule)
        queries = make_queries(store, 5).copy()
        with pytest.raises(ValueError, match=r"queries must be \(n, 16\)"):
            sharded.search(queries[:, :-1], 3)
        queries[3, 0] = np.nan
        with pytest.raises(ValueError, match="finite.* row 3 "):
            sharded.search(queries, 3)
        assert sharded.rounds_served == 0
        assert sharded.fault_report.crashes == 0 and sharded.failovers == 0
        assert sharded.replica_load().sum() == 0
        sharded.search(queries[:3], 3)  # the first *served* call is round 0
        assert sharded.rounds_served == 1
        assert sharded.fault_report.crashes == 1 and sharded.failovers == 1

    def test_all_replicas_dead_is_unrecoverable(self):
        store = make_store()
        schedule = crash_schedule({(0, 0): 0}, num_hosts=2)
        sharded = ShardedIndex(
            store, num_shards=2, replicas=1, faults=schedule
        )
        with pytest.raises(UnrecoverableFaultError, match="shard 0"):
            sharded.search(make_queries(store, 3), 5)

    def test_failover_report_reaches_serve_report(self):
        store = make_store()
        schedule = crash_schedule({(0, 0): 0}, num_hosts=4)
        sharded = ShardedIndex(
            store, num_shards=2, replicas=2, faults=schedule
        )
        engine = ShardedEngine(sharded, max_batch=16, cache_size=64)
        report = run_load(
            engine, LoadConfig(num_queries=48, k=5, seed=9), "sharded"
        )
        assert report.extras["faults"]["crashes"] == 1
        assert report.extras["failovers"] >= 1
        ref_engine = QueryEngine(
            sharded.plan.reference_index(store), max_batch=16, cache_size=64
        )
        ref = run_load(ref_engine, LoadConfig(num_queries=48, k=5, seed=9))
        assert report.answers_sha256 == ref.answers_sha256


class TestGenerations:
    def test_promote_swaps_without_dropping_pending(self):
        store = make_store(seed=1)
        next_store = EmbeddingStore(
            keyed_rng(2, _STORE_DOMAIN).normal(size=(240, 16)).astype(np.float32),
            store.words,
        )
        sharded = ShardedIndex(store, num_shards=3)
        engine = ShardedEngine(sharded, max_batch=32, cache_size=64)
        before = [engine.submit(f"w{i:04d}", 5) for i in range(6)]
        generation = engine.promote(next_store)
        after = [engine.submit(f"w{i:04d}", 5) for i in range(6, 12)]
        engine.flush()
        assert all(t.done for t in before + after)
        assert generation.number == 1
        # The pending queries were answered by the *new* generation.
        reference = sharded.plan.reference_index(next_store)
        for i, ticket in enumerate(before):
            ids, scores = reference.search(next_store.matrix[i], 5)
            np.testing.assert_array_equal(ticket.result[0], ids[0])
            np.testing.assert_array_equal(ticket.result[1], scores[0])

    def test_fingerprint_changes_deterministically_on_swap(self):
        store = make_store(seed=1)
        next_store = EmbeddingStore(
            keyed_rng(2, _STORE_DOMAIN).normal(size=(240, 16)).astype(np.float32),
            store.words,
        )
        fingerprints = []
        for _ in range(2):
            sharded = ShardedIndex(store, num_shards=3)
            engine = ShardedEngine(sharded, max_batch=8, cache_size=64)
            engine.query([f"w{i:04d}" for i in range(10)], k=5)
            gen0 = sharded.generation.fingerprint
            engine.promote(next_store)
            engine.query([f"w{i:04d}" for i in range(10)], k=5)
            gen1 = sharded.generation.fingerprint
            assert gen0 != gen1
            fingerprints.append((gen0, gen1))
        assert fingerprints[0] == fingerprints[1]

    def test_promote_invalidates_cached_answers(self):
        store = make_store(seed=1)
        next_store = EmbeddingStore(
            keyed_rng(2, _STORE_DOMAIN).normal(size=(240, 16)).astype(np.float32),
            store.words,
        )
        sharded = ShardedIndex(store, num_shards=2)
        engine = ShardedEngine(sharded, max_batch=4, cache_size=64)
        old = engine.query(["w0000"], k=5)[0]
        stats = engine.stats.cache
        engine.promote(next_store)
        assert engine.stats.cache is stats  # stats alias survives the swap
        new = engine.query(["w0000"], k=5)[0]
        reference = sharded.plan.reference_index(next_store)
        ids, scores = reference.search(next_store.matrix[0], 5)
        np.testing.assert_array_equal(new[0], ids[0])
        assert not np.array_equal(old[1], new[1])

    def test_single_generation_fingerprint_matches_report(self):
        store = make_store()
        sharded = ShardedIndex(store, num_shards=3)
        engine = ShardedEngine(sharded, max_batch=16, cache_size=64)
        report = run_load(
            engine, LoadConfig(num_queries=60, k=5, seed=9), "sharded"
        )
        generations = report.extras["generations"]
        assert len(generations) == 1
        assert generations[0]["fingerprint"] == report.answers_sha256
        assert generations[0]["answered"] == 60

    def test_promote_rejects_mismatched_shape(self):
        store = make_store()
        sharded = ShardedIndex(store, num_shards=2)
        small = EmbeddingStore(
            np.ones((10, 16), dtype=np.float32), [f"x{i}" for i in range(10)]
        )
        with pytest.raises(ValueError, match="does not match"):
            sharded.promote(small)

    def test_checkpoint_promotion_closes_train_serve_loop(self):
        from repro.text.synthetic import SyntheticCorpusSpec, generate_corpus
        from repro.w2v.distributed import GraphWord2Vec
        from repro.w2v.params import Word2VecParams

        spec = SyntheticCorpusSpec(
            num_tokens=3000, pairs_per_family=3, filler_vocab=60,
            questions_per_family=3,
        )
        corpus, _ = generate_corpus(spec, seed=1)
        params = Word2VecParams(dim=12, epochs=2, negatives=3, window=3)
        trainer = GraphWord2Vec(corpus, params, num_hosts=2, seed=5)
        trainer.train(until_round=trainer.sync_rounds)  # one epoch
        early = EmbeddingStore.from_checkpoint(
            trainer.save_checkpoint(), corpus.vocabulary
        )

        sharded = ShardedIndex(early, num_shards=2, replicas=2)
        engine = ShardedEngine(sharded, max_batch=8, cache_size=32)
        words = [corpus.vocabulary.word_of(i) for i in range(8)]
        engine.query(words, k=4)
        fingerprint_early = sharded.generation.fingerprint

        trainer.train()  # finish the budget
        final = EmbeddingStore.from_checkpoint(
            trainer.save_checkpoint(), corpus.vocabulary
        )
        engine.promote(final)
        engine.query(words, k=4)
        assert sharded.generation.number == 1
        assert sharded.generation.fingerprint != fingerprint_early
        reference = sharded.plan.reference_index(final)
        ref_engine = QueryEngine(reference, max_batch=8, cache_size=32)
        expected = ref_engine.query(words, k=4)
        got = ShardedEngine(
            ShardedIndex(final, num_shards=2, replicas=2),
            max_batch=8, cache_size=32,
        ).query(words, k=4)
        for (gi, gs), (ei, es) in zip(got, expected):
            np.testing.assert_array_equal(gi, ei)
            np.testing.assert_array_equal(gs, es)


class TestSanitizedScatter:
    def test_sanitized_engine_flush_is_finding_free(self):
        store = make_store()
        sharded = ShardedIndex(store, num_shards=4, replicas=2)
        engine = ShardedEngine(
            sharded, max_batch=16, cache_size=32, workers=4, sanitize=True
        )
        report = run_load(
            engine, LoadConfig(num_queries=96, k=5, seed=9), "sharded"
        )
        assert engine.sanitize_findings == []
        ref_engine = QueryEngine(
            sharded.plan.reference_index(store), max_batch=16, cache_size=32
        )
        ref = run_load(ref_engine, LoadConfig(num_queries=96, k=5, seed=9))
        assert report.answers_sha256 == ref.answers_sha256

    def test_env_sanitized_promote_parity(self, monkeypatch):
        """REPRO_SANITIZE=1 with workers=4 and a hot promote is bit-identical."""

        def scenario():
            store = make_store(seed=1)
            next_store = EmbeddingStore(
                keyed_rng(2, _STORE_DOMAIN)
                .normal(size=(240, 16))
                .astype(np.float32),
                store.words,
            )
            sharded = ShardedIndex(store, num_shards=3, replicas=2)
            engine = ShardedEngine(
                sharded, max_batch=16, cache_size=32, workers=4
            )
            first = run_load(
                engine, LoadConfig(num_queries=96, k=5, seed=9), "sharded"
            )
            engine.promote(next_store)
            second = run_load(
                engine, LoadConfig(num_queries=96, k=5, seed=11), "sharded"
            )
            return first.answers_sha256, second.answers_sha256, engine

        monkeypatch.setenv("REPRO_SANITIZE", "1")
        sanitized = scenario()
        assert sanitized[2].sanitize_findings == []
        monkeypatch.delenv("REPRO_SANITIZE")
        plain = scenario()
        assert (sanitized[0], sanitized[1]) == (plain[0], plain[1])

    def test_sanitized_own_pool_scatter(self):
        store = make_store()
        with ThreadPoolDoAll(workers=3) as pool:
            sharded = ShardedIndex(
                store, num_shards=4, executor=pool, sanitize=True
            )
            serial = ShardedIndex(store, num_shards=4, sanitize=False)
            queries = make_queries(store, 18)
            a = sharded.search(queries, 6)
            b = serial.search(queries, 6)
        np.testing.assert_array_equal(a[0], b[0])
        np.testing.assert_array_equal(a[1], b[1])
