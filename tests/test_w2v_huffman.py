import heapq
import itertools

from hypothesis import given, settings, strategies as st
import numpy as np
import pytest

from repro.w2v.huffman import HuffmanTree


def expected_length(tree, counts):
    """Frequency-weighted mean code length of ``tree``."""
    counts = np.asarray(counts, dtype=np.float64)
    return float((tree.code_lengths * counts).sum() / counts.sum())


def reference_expected_length(counts):
    """Expected code length of an optimal prefix code (heapq Huffman)."""
    n = len(counts)
    if n == 1:
        return 1.0
    heap = [(int(c), i, i) for i, c in enumerate(counts)]
    heapq.heapify(heap)
    lengths = {i: 0 for i in range(n)}
    groups = {i: [i] for i in range(n)}
    fresh = itertools.count(n)
    while len(heap) > 1:
        a = heapq.heappop(heap)
        b = heapq.heappop(heap)
        nid = next(fresh)
        members = groups.pop(a[2]) + groups.pop(b[2])
        for m in members:
            lengths[m] += 1
        groups[nid] = members
        heapq.heappush(heap, (a[0] + b[0], nid, nid))
    total = sum(counts)
    return sum(lengths[i] * counts[i] for i in range(n)) / total


class TestConstruction:
    def test_single_word(self):
        tree = HuffmanTree.from_counts(np.array([5]))
        assert tree.vocab_size == 1
        assert tree.num_inner_nodes == 1
        assert tree.code_lengths.tolist() == [1]

    def test_two_words(self):
        tree = HuffmanTree.from_counts(np.array([3, 7]))
        assert tree.code_lengths.tolist() == [1, 1]
        assert tree.codes[0].tolist() != tree.codes[1].tolist()
        assert tree.points[0].tolist() == [0] == tree.points[1].tolist()

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            HuffmanTree.from_counts(np.array([]))

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            HuffmanTree.from_counts(np.array([1, -1]))

    def test_frequent_words_get_short_codes(self):
        counts = np.array([1000, 1, 1, 1, 1, 1, 1, 1])
        tree = HuffmanTree.from_counts(counts)
        assert tree.code_lengths[0] == tree.code_lengths.min()

    def test_inner_node_ids_in_range(self):
        counts = np.arange(1, 20)
        tree = HuffmanTree.from_counts(counts)
        for pts in tree.points:
            assert pts.min() >= 0
            assert pts.max() < tree.num_inner_nodes

    def test_codes_prefix_free(self):
        counts = np.array([5, 9, 12, 13, 16, 45])
        tree = HuffmanTree.from_counts(counts)
        codes = [tuple(c.tolist()) for c in tree.codes]
        for a in codes:
            for b in codes:
                if a != b:
                    assert a != b[: len(a)], "prefix violation"

    def test_padded_matrices_consistent(self):
        counts = np.array([3, 1, 4, 1, 5])
        tree = HuffmanTree.from_counts(counts)
        for w in range(5):
            n = int(tree.code_lengths[w])
            assert np.array_equal(tree.code_matrix[w, :n], tree.codes[w])
            assert np.array_equal(tree.point_matrix[w, :n], tree.points[w])


class TestOptimality:
    def test_expected_length_matches_reference(self):
        counts = np.array([50, 30, 10, 5, 3, 2])
        tree = HuffmanTree.from_counts(counts)
        assert expected_length(tree, counts) == pytest.approx(
            reference_expected_length(counts.tolist())
        )

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.integers(min_value=1, max_value=1000), min_size=2, max_size=40))
    def test_optimality_property(self, counts):
        tree = HuffmanTree.from_counts(np.array(counts))
        got = expected_length(tree, counts)
        ref = reference_expected_length(counts)
        assert got == pytest.approx(ref)

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.integers(min_value=1, max_value=100), min_size=2, max_size=30))
    def test_kraft_equality(self, counts):
        """A full binary code tree satisfies sum 2^-len == 1 exactly."""
        tree = HuffmanTree.from_counts(np.array(counts))
        kraft = sum(2.0 ** -int(n) for n in tree.code_lengths)
        assert kraft == pytest.approx(1.0)

    def test_zero_counts_allowed(self):
        tree = HuffmanTree.from_counts(np.array([0, 5, 3]))
        assert tree.vocab_size == 3
        # The zero-count word simply gets the longest code.
        assert tree.code_lengths[0] == tree.code_lengths.max()
