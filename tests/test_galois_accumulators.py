import threading

import pytest

from repro.galois.accumulators import GAccumulator
from repro.galois.do_all import ThreadPoolDoAll


class TestGAccumulator:
    def test_sum(self):
        acc = GAccumulator()
        acc += 2.0
        acc += 3.5
        assert acc.value == pytest.approx(5.5)

    def test_initial_value(self):
        assert GAccumulator(10.0).value == pytest.approx(10.0)

    def test_reset(self):
        acc = GAccumulator()
        acc += 4.0
        acc.reset()
        assert acc.value == 0.0

    def test_threaded_updates_all_counted(self):
        acc = GAccumulator()
        ThreadPoolDoAll(workers=4).run(list(range(100)), lambda x: acc.update(1.0))
        assert acc.value == pytest.approx(100.0)

    def test_concurrent_updates_exact_count(self):
        # Regression: a read-modify-write on shared state would lose updates
        # under contention.  Integer-valued float sums are exact, so any
        # undercount is detectable; hammer with raw threads (not chunked
        # do_all scheduling) to maximize interleaving.
        acc = GAccumulator()
        per_thread = 10_000
        n_threads = 8

        def hammer():
            for _ in range(per_thread):
                acc.update(1.0)

        threads = [threading.Thread(target=hammer) for _ in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert acc.value == per_thread * n_threads

    def test_reused_across_persistent_pool_runs(self):
        # A persistent pool keeps its worker threads (and so their cells)
        # alive between runs; sums must keep accumulating exactly.
        acc = GAccumulator()
        with ThreadPoolDoAll(workers=3) as pool:
            pool.run([1.0] * 50, acc.update)
            pool.run([2.0] * 25, acc.update)
        assert acc.value == pytest.approx(100.0)

    def test_reset_between_pool_runs(self):
        # reset() must fully clear cells owned by pool worker threads, not
        # just the calling thread's, and later updates must count again.
        acc = GAccumulator()
        with ThreadPoolDoAll(workers=4) as pool:
            pool.run([1.0] * 100, acc.update)
            assert acc.value == pytest.approx(100.0)
            acc.reset()
            assert acc.value == 0.0
            pool.run([1.0] * 40, acc.update)
        assert acc.value == pytest.approx(40.0)

    def test_reset_concurrent_with_updates_never_overcounts(self):
        # A reset racing in-flight updates may land before or after each
        # update, but the post-reset total can never exceed what was added
        # in total (a lost reset / resurrected value would overcount).
        for _ in range(20):
            acc = GAccumulator()
            start = threading.Barrier(3, timeout=5)

            def hammer():
                start.wait()
                for _ in range(1000):
                    acc.update(1.0)

            threads = [threading.Thread(target=hammer) for _ in range(2)]
            for t in threads:
                t.start()
            start.wait()
            acc.reset()
            for t in threads:
                t.join()
            assert 0.0 <= acc.value <= 2000.0
