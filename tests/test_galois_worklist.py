from hypothesis import given, strategies as st
import numpy as np
import pytest

from repro.galois.worklist import ChunkedWorklist, OrderedByIntegerMetric


class TestChunkedWorklist:
    def test_fifo_chunks(self):
        wl = ChunkedWorklist(range(10), chunk_size=4)
        assert wl.pop_chunk() == [0, 1, 2, 3]
        assert wl.pop_chunk() == [4, 5, 6, 7]
        assert wl.pop_chunk() == [8, 9]
        assert wl.empty()
        assert wl.pop_chunk() == []

    def test_len_tracks_pending(self):
        wl = ChunkedWorklist(range(5), chunk_size=2)
        assert len(wl) == 5
        wl.pop_chunk()
        assert len(wl) == 3

    def test_push_after_pop(self):
        wl = ChunkedWorklist([1], chunk_size=8)
        wl.pop_chunk()
        wl.push(2)
        wl.push_many([3, 4])
        assert list(wl) == [2, 3, 4]

    def test_pop_chunk_releases_consumed_items(self):
        # Draining the worklist must not pin consumed items: the backing
        # list shrinks as chunks are popped instead of holding the whole
        # corpus behind an advancing cursor.
        wl = ChunkedWorklist(range(100), chunk_size=10)
        for _ in range(9):
            wl.pop_chunk()
        assert len(wl) == 10
        assert len(wl._items) <= 20  # consumed prefix was compacted away
        assert wl.pop_chunk() == list(range(90, 100))
        assert wl.empty()
        assert wl._items == []

    def test_pop_chunk_order_unchanged_by_compaction(self):
        wl = ChunkedWorklist(range(25), chunk_size=4)
        popped = []
        while not wl.empty():
            popped.extend(wl.pop_chunk())
        assert popped == list(range(25))

    def test_reset_rewinds_retained_items_only(self):
        # Released chunks are gone for good; reset only rewinds whatever the
        # compaction has not yet freed.
        wl = ChunkedWorklist(range(4), chunk_size=4)
        wl.pop_chunk()
        assert wl.empty()
        wl.reset()
        assert len(wl) == 0

    def test_reset_before_compaction_restores(self):
        wl = ChunkedWorklist(range(10), chunk_size=2)
        wl.pop_chunk()  # cursor 2 of 10: below the compaction threshold
        wl.reset()
        assert len(wl) == 10
        assert wl.pop_chunk() == [0, 1]

    def test_shuffle_preserves_multiset(self):
        wl = ChunkedWorklist(range(20), chunk_size=5)
        wl.shuffle(np.random.default_rng(0))
        assert sorted(wl) == list(range(20))

    def test_invalid_chunk_size(self):
        with pytest.raises(ValueError):
            ChunkedWorklist([], chunk_size=0)

    def test_partitions_contiguous_and_balanced(self):
        wl = ChunkedWorklist(range(10))
        parts = wl.partitions(3)
        assert parts == [[0, 1, 2, 3], [4, 5, 6], [7, 8, 9]]

    def test_partitions_more_than_items(self):
        wl = ChunkedWorklist([1, 2])
        parts = wl.partitions(4)
        assert len(parts) == 4
        assert [p for p in parts if p] == [[1], [2]]

    def test_partitions_invalid_count(self):
        with pytest.raises(ValueError):
            ChunkedWorklist([1]).partitions(0)

    @given(st.lists(st.integers(), max_size=50), st.integers(min_value=1, max_value=10))
    def test_partitions_cover_exactly(self, items, k):
        parts = ChunkedWorklist(items).partitions(k)
        flattened = [x for p in parts for x in p]
        assert flattened == items
        sizes = [len(p) for p in parts]
        assert max(sizes) - min(sizes) <= 1


class TestOBIM:
    def test_pops_lowest_bin_first(self):
        wl = OrderedByIntegerMetric(lambda x: x // 10)
        wl.push_many([25, 5, 17, 3])
        prio, items = wl.pop_bin()
        assert prio == 0
        assert sorted(items) == [3, 5]

    def test_single_pop_order(self):
        wl = OrderedByIntegerMetric(lambda x: x)
        wl.push(2)
        wl.push(1)
        wl.push(1)
        assert wl.pop() == 1
        assert wl.pop() == 1
        assert wl.pop() == 2
        assert wl.empty()

    def test_pop_empty_raises(self):
        wl = OrderedByIntegerMetric(lambda x: x)
        with pytest.raises(IndexError):
            wl.pop()
        with pytest.raises(IndexError):
            wl.pop_bin()

    def test_negative_metric_rejected(self):
        wl = OrderedByIntegerMetric(lambda x: x)
        with pytest.raises(ValueError):
            wl.push(-1)

    def test_len(self):
        wl = OrderedByIntegerMetric(lambda x: x % 3)
        wl.push_many(range(7))
        assert len(wl) == 7
        wl.pop_bin()
        assert len(wl) < 7

    @given(st.lists(st.integers(min_value=0, max_value=100), min_size=1, max_size=60))
    def test_drains_in_priority_order(self, items):
        wl = OrderedByIntegerMetric(lambda x: x)
        wl.push_many(items)
        drained = []
        while not wl.empty():
            _p, batch = wl.pop_bin()
            drained.extend(batch)
        assert drained == sorted(items)
