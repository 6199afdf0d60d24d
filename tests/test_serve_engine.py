"""QueryEngine: batching policy, LRU accounting, executor invariance."""

import numpy as np
import pytest

from repro.galois.do_all import SerialExecutor, ThreadPoolDoAll
from repro.serve.engine import CacheStats, LRUCache, QueryEngine
from repro.serve.index import ExactIndex
from repro.serve.store import EmbeddingStore
from repro.util.rng import default_rng


def make_index(V=120, d=16, seed=1):
    rng = default_rng(seed)
    matrix = rng.normal(size=(V, d)).astype(np.float32)
    return ExactIndex(EmbeddingStore(matrix, [f"w{i:03d}" for i in range(V)]))


class TestLRUCache:
    def test_bounded_with_eviction_accounting(self):
        cache = LRUCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.put("c", 3)  # evicts a
        assert len(cache) == 2
        assert "a" not in cache
        assert cache.stats.evictions == 1

    def test_get_refreshes_recency(self):
        cache = LRUCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.get("a") == 1  # a now most recent
        cache.put("c", 3)  # evicts b, not a
        assert "a" in cache and "b" not in cache

    def test_hit_miss_counters(self):
        cache = LRUCache(4)
        cache.put("a", 1)
        cache.get("a")
        cache.get("zzz")
        assert cache.stats.hits == 1
        assert cache.stats.misses == 1
        assert cache.stats.hit_rate == 0.5

    def test_peek_counts_nothing(self):
        cache = LRUCache(4)
        cache.put("a", 1)
        assert cache.peek("a") == 1
        assert cache.peek("b") is None
        assert cache.stats.lookups == 0

    def test_replace_keeps_recency_and_skips_absent(self):
        cache = LRUCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.replace("a", 10)  # value swapped, recency unchanged
        cache.replace("ghost", 1)  # no-op, no insertion
        assert "ghost" not in cache
        cache.put("c", 3)  # LRU is still a
        assert "a" not in cache

    def test_put_existing_refreshes(self):
        cache = LRUCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.put("a", 5)
        cache.put("c", 3)  # evicts b
        assert cache.peek("a") == 5 and "b" not in cache

    def test_capacity_validation(self):
        with pytest.raises(ValueError, match="capacity"):
            LRUCache(0)


class TestBatchingPolicy:
    def test_auto_flush_at_max_batch(self):
        engine = QueryEngine(make_index(), max_batch=4)
        tickets = [engine.submit(f"w{i:03d}") for i in range(3)]
        assert engine.pending == 3
        assert not tickets[0].done
        engine.submit("w003")  # fourth query triggers the flush
        assert engine.pending == 0
        assert all(t.done for t in tickets)

    def test_explicit_flush_drains_tail(self):
        engine = QueryEngine(make_index(), max_batch=100)
        ticket = engine.submit("w000")
        assert engine.flush() == 1
        assert ticket.done
        assert engine.flush() == 0  # idempotent on empty

    def test_batch_sizes_recorded(self):
        engine = QueryEngine(make_index(), max_batch=4)
        engine.query([f"w{i:03d}" for i in range(10)])
        assert engine.stats.batch_sizes == [4, 4, 2]
        assert engine.stats.queries == 10
        assert len(engine.stats.batch_seconds) == 3

    def test_results_correct_and_read_only(self):
        index = make_index()
        engine = QueryEngine(index, max_batch=3)
        results = engine.query(["w005", "w017"], k=4)
        ids, scores = results[0]
        expect_ids, expect_scores = index.search(index.store.matrix[5], 4)
        np.testing.assert_array_equal(ids, expect_ids[0])
        np.testing.assert_array_equal(scores, expect_scores[0])
        with pytest.raises(ValueError):
            ids[0] = 1

    def test_mixed_k_in_one_flush(self):
        engine = QueryEngine(make_index(), max_batch=100)
        t_small = engine.submit("w001", k=2)
        t_big = engine.submit("w002", k=9)
        engine.flush()
        assert t_small.result[0].shape == (2,)
        assert t_big.result[0].shape == (9,)

    def test_unknown_word_fails_at_submit(self):
        engine = QueryEngine(make_index())
        with pytest.raises(KeyError):
            engine.submit("nope")
        assert engine.pending == 0

    def test_validation(self):
        index = make_index()
        with pytest.raises(ValueError, match="max_batch"):
            QueryEngine(index, max_batch=0)
        with pytest.raises(ValueError, match="search_block"):
            QueryEngine(index, search_block=0)
        with pytest.raises(ValueError, match="k must be positive"):
            QueryEngine(index).submit("w000", k=0)


class TestCacheAccounting:
    def test_repeat_query_hits(self):
        engine = QueryEngine(make_index(), max_batch=2)
        engine.query(["w001", "w002"])
        engine.query(["w001", "w003"])
        assert engine.stats.cache.hits == 1
        assert engine.stats.cache.misses == 3

    def test_in_flush_duplicate_counts_as_hit(self):
        engine = QueryEngine(make_index(), max_batch=10)
        results = engine.query(["w001", "w001", "w001"])
        assert engine.stats.cache.hits == 2
        assert engine.stats.cache.misses == 1
        for ids, _ in results:
            np.testing.assert_array_equal(ids, results[0][0])

    def test_distinct_k_cached_separately(self):
        engine = QueryEngine(make_index(), max_batch=10)
        engine.query(["w001"], k=3)
        engine.query(["w001"], k=5)
        assert engine.stats.cache.misses == 2

    def test_accounting_invariant_to_batch_chopping(self):
        """Hits, misses and evictions match one-query-at-a-time serving."""
        words = [f"w{i % 17:03d}" for i in default_rng(3).integers(0, 40, 200)]
        reference = None
        for max_batch in (1, 7, 64, 200):
            engine = QueryEngine(make_index(), max_batch=max_batch, cache_size=8)
            for word in words:
                engine.submit(word)
            engine.flush()
            stats = (
                engine.stats.cache.hits,
                engine.stats.cache.misses,
                engine.stats.cache.evictions,
            )
            if reference is None:
                reference = stats
            assert stats == reference, f"max_batch={max_batch}"

    def test_tickets_resolve_even_when_cache_thrashes(self):
        engine = QueryEngine(make_index(), max_batch=50, cache_size=1)
        tickets = [engine.submit(f"w{i:03d}") for i in range(30)]
        engine.flush()
        assert all(t.done for t in tickets)

    def test_evicted_placeholder_not_searched_twice(self):
        """Regression: with cache_size < max_batch, a key whose _PENDING
        placeholder was evicted mid-flush re-misses on its next occurrence
        — it must re-enter the accounting replay but NOT the search batch.
        """

        class CountingIndex:
            def __init__(self, inner):
                self.inner = inner
                self.rows_searched = 0

            @property
            def store(self):
                return self.inner.store

            def search(self, queries, k):
                self.rows_searched += np.atleast_2d(queries).shape[0]
                return self.inner.search(queries, k)

        counting = CountingIndex(make_index())
        engine = QueryEngine(counting, max_batch=10, cache_size=1)
        # Stream [a, b, a]: b's miss evicts a's placeholder, so a re-misses.
        tickets = [engine.submit(w) for w in ("w001", "w002", "w001")]
        engine.flush()
        assert all(t.done for t in tickets)
        np.testing.assert_array_equal(tickets[0].result[0], tickets[2].result[0])
        # Accounting still replays one-query-at-a-time serving exactly:
        # three misses (a, b, a-again), two placeholder evictions.
        assert engine.stats.cache.misses == 3
        assert engine.stats.cache.hits == 0
        assert engine.stats.cache.evictions == 2
        # ...but only the two distinct keys hit the index.
        assert counting.rows_searched == 2

    def test_thrashed_flush_searches_each_distinct_key_once(self):
        class CountingIndex:
            def __init__(self, inner):
                self.inner = inner
                self.rows_searched = 0

            @property
            def store(self):
                return self.inner.store

            def search(self, queries, k):
                self.rows_searched += np.atleast_2d(queries).shape[0]
                return self.inner.search(queries, k)

        words = [f"w{i % 9:03d}" for i in default_rng(6).integers(0, 25, 80)]
        counting = CountingIndex(make_index())
        engine = QueryEngine(counting, max_batch=80, cache_size=2)
        tickets = [engine.submit(word) for word in words]
        engine.flush()
        assert all(t.done for t in tickets)
        assert counting.rows_searched == len(set(words))

    def test_reset_stats_keeps_cache_contents(self):
        engine = QueryEngine(make_index(), max_batch=1)
        engine.query(["w001"])
        engine.reset_stats()
        assert engine.stats.queries == 0
        assert engine.stats.cache.lookups == 0
        engine.query(["w001"])  # still cached from before the reset
        assert engine.stats.cache.hits == 1


class TestExecutorInvariance:
    def test_results_bit_identical_across_workers(self):
        words = [f"w{i:03d}" for i in default_rng(4).integers(0, 100, 90)]
        index = make_index()
        baseline = QueryEngine(index, max_batch=64, executor=SerialExecutor())
        base_results = baseline.query(list(words))
        with ThreadPoolDoAll(workers=4) as pool:
            parallel = QueryEngine(index, max_batch=64, executor=pool, search_block=8)
            par_results = parallel.query(list(words))
        for (ids_a, scores_a), (ids_b, scores_b) in zip(base_results, par_results):
            np.testing.assert_array_equal(ids_a, ids_b)
            np.testing.assert_array_equal(scores_a, scores_b)

    def test_workers_knob(self):
        engine = QueryEngine(make_index(), workers=2)
        executor = engine._executor.inner if engine.sanitize else engine._executor
        assert isinstance(executor, ThreadPoolDoAll)
        executor.close()

    def test_executor_and_workers_mutually_exclusive(self):
        with pytest.raises(ValueError, match="not both"):
            QueryEngine(make_index(), executor=SerialExecutor(), workers=2)

    def test_injected_clock_measures_batches(self):
        ticks = iter(range(100))

        def clock():
            return float(next(ticks))

        engine = QueryEngine(make_index(), max_batch=2, clock=clock)
        engine.query(["w001", "w002"])
        assert engine.stats.batch_seconds == [1.0]


def test_cache_stats_shared_with_engine_stats():
    engine = QueryEngine(make_index(), max_batch=1)
    engine.query(["w001"])
    assert engine.stats.cache is engine.cache.stats
    assert isinstance(engine.stats.cache, CacheStats)
