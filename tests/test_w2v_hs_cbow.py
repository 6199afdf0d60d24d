from hypothesis import example, given, settings, strategies as st
import numpy as np
import pytest

from repro.text.negative_sampling import UnigramTable
from repro.w2v.cbow import (
    CbowBatch,
    build_cbow_batch,
    cbow_hs_update,
    cbow_ns_update,
)
from repro.w2v.hs import hs_pairs_access, hs_update
from repro.w2v.huffman import HuffmanTree
from repro.w2v.params import Word2VecParams
from repro.w2v.sgd import sample_negatives
from repro.w2v.steps import build_round_work, output_rows_for
from tests.test_w2v_sgd import chunks, flat_draws, keep_modes, keep_probabilities


def small_tree(V=8):
    return HuffmanTree.from_counts(np.arange(1, V + 1))


class TestHsUpdate:
    def test_loss_decreases(self):
        rng = np.random.default_rng(0)
        V, D = 8, 6
        tree = small_tree(V)
        emb = rng.normal(size=(V, D)).astype(np.float32) * 0.1
        out = np.zeros((tree.num_inner_nodes, D), dtype=np.float32)
        inputs = np.array([0, 1, 2])
        outputs = np.array([3, 4, 5])
        losses = [
            hs_update(emb, out, inputs, outputs, tree, 0.3, compute_loss=True)
            for _ in range(40)
        ]
        assert losses[-1] < losses[0]

    def test_empty_batch(self):
        tree = small_tree()
        emb = np.zeros((8, 4), dtype=np.float32)
        out = np.zeros((tree.num_inner_nodes, 4), dtype=np.float32)
        empty = np.empty(0, dtype=np.int64)
        assert hs_update(emb, out, empty, empty, tree, 0.1) == 0.0

    def test_wrong_output_rows_rejected(self):
        tree = small_tree()
        emb = np.zeros((8, 4), dtype=np.float32)
        out = np.zeros((3, 4), dtype=np.float32)  # wrong row count
        with pytest.raises(ValueError, match="rows"):
            hs_update(emb, out, np.array([0]), np.array([1]), tree, 0.1)

    def test_only_path_nodes_touched(self):
        tree = small_tree()
        emb = np.full((8, 4), 0.1, dtype=np.float32)
        out = np.zeros((tree.num_inner_nodes, 4), dtype=np.float32)
        outputs = np.array([7])
        hs_update(emb, out, np.array([0]), outputs, tree, 0.5)
        touched = set(np.nonzero(out.any(axis=1))[0].tolist())
        assert touched == set(tree.points[7].tolist())

    def test_pairs_access(self):
        tree = small_tree()
        ids = hs_pairs_access(np.array([2, 5]), tree)
        expected = np.unique(np.concatenate([tree.points[2], tree.points[5]]))
        assert np.array_equal(ids, expected)

    def test_pairs_access_empty(self):
        assert hs_pairs_access(np.empty(0, dtype=np.int64), small_tree()).size == 0


class TestCbowBatch:
    def make(self):
        return CbowBatch(
            centers=np.array([0, 1]),
            context_rows=np.array([2, 3, 4]),
            context_segments=np.array([0, 0, 1]),
            context_counts=np.array([2, 1]),
            negatives=np.array([[5], [6]]),
            negative_mask=np.ones((2, 1), dtype=bool),
        )

    def test_access_sets(self):
        params = Word2VecParams(window=1, negatives=1, architecture="cbow")
        work = build_round_work(
            [np.array([3, 2, 3, 4])], params=params, keep_prob=np.ones(8),
            table=UnigramTable(np.ones(8)), tree=None, rng=np.random.default_rng(0),
        )
        assert work.embedding_access.tolist() == [2, 3, 4]
        assert work.output_access.tolist() == np.unique(
            np.concatenate([[2, 3, 4], work.batch.negatives.ravel()])
        ).tolist()

    def test_slice(self):
        piece = self.make().slice(1, 2)
        assert piece.centers.tolist() == [1]
        assert piece.context_rows.tolist() == [4]
        assert piece.context_segments.tolist() == [0]

    def test_validation(self):
        with pytest.raises(ValueError, match="at least one context"):
            CbowBatch(
                centers=np.array([0]),
                context_rows=np.empty(0, dtype=np.int64),
                context_segments=np.empty(0, dtype=np.int64),
                context_counts=np.array([0]),
                negatives=np.empty((1, 0), dtype=np.int64),
                negative_mask=np.empty((1, 0), dtype=bool),
            )
        with pytest.raises(ValueError, match="sum"):
            CbowBatch(
                centers=np.array([0]),
                context_rows=np.array([1, 2]),
                context_segments=np.array([0, 0]),
                context_counts=np.array([1]),
                negatives=np.empty((1, 0), dtype=np.int64),
                negative_mask=np.empty((1, 0), dtype=bool),
            )


class TestBuildCbowBatch:
    def test_every_center_has_contexts(self):
        rng = np.random.default_rng(0)
        table = UnigramTable(np.ones(20))
        batch = build_cbow_batch(
            [np.arange(12)], window=3, keep_prob=np.ones(20), table=table,
            num_negatives=4, rng=rng,
        )
        assert len(batch) > 0
        assert (batch.context_counts >= 1).all()
        assert batch.negatives.shape == (len(batch), 4)

    def test_hierarchical_mode_no_negatives(self):
        rng = np.random.default_rng(0)
        batch = build_cbow_batch(
            [np.arange(8)], window=2, keep_prob=np.ones(8), table=None,
            num_negatives=0, rng=rng,
        )
        assert batch.negatives.shape[1] == 0

    def test_empty_sentences(self):
        rng = np.random.default_rng(0)
        batch = build_cbow_batch(
            [], window=2, keep_prob=np.ones(4), table=None, num_negatives=0, rng=rng
        )
        assert len(batch) == 0


class TestCbowKernels:
    def test_ns_loss_decreases(self):
        rng = np.random.default_rng(0)
        V, D = 10, 6
        emb = rng.normal(size=(V, D)).astype(np.float32) * 0.1
        trn = np.zeros((V, D), dtype=np.float32)
        batch = CbowBatch(
            centers=np.array([0, 1]),
            context_rows=np.array([2, 3, 4, 5]),
            context_segments=np.array([0, 0, 1, 1]),
            context_counts=np.array([2, 2]),
            negatives=np.array([[6, 7], [8, 9]]),
            negative_mask=np.ones((2, 2), dtype=bool),
        )
        losses = [cbow_ns_update(emb, trn, batch, 0.3, compute_loss=True) for _ in range(40)]
        assert losses[-1] < losses[0]

    def test_hs_loss_decreases(self):
        rng = np.random.default_rng(0)
        V, D = 8, 6
        tree = small_tree(V)
        emb = rng.normal(size=(V, D)).astype(np.float32) * 0.1
        out = np.zeros((tree.num_inner_nodes, D), dtype=np.float32)
        batch = CbowBatch(
            centers=np.array([0, 1]),
            context_rows=np.array([2, 3, 4]),
            context_segments=np.array([0, 0, 1]),
            context_counts=np.array([2, 1]),
            negatives=np.empty((2, 0), dtype=np.int64),
            negative_mask=np.empty((2, 0), dtype=bool),
        )
        losses = [
            cbow_hs_update(emb, out, batch, tree, 0.3, compute_loss=True)
            for _ in range(40)
        ]
        assert losses[-1] < losses[0]

    def test_empty_batches(self):
        emb = np.zeros((4, 2), dtype=np.float32)
        trn = np.zeros((4, 2), dtype=np.float32)
        batch = CbowBatch(
            centers=np.empty(0, dtype=np.int64),
            context_rows=np.empty(0, dtype=np.int64),
            context_segments=np.empty(0, dtype=np.int64),
            context_counts=np.empty(0, dtype=np.int64),
            negatives=np.empty((0, 2), dtype=np.int64),
            negative_mask=np.empty((0, 2), dtype=bool),
        )
        assert cbow_ns_update(emb, trn, batch, 0.1) == 0.0


class TestSteps:
    @pytest.mark.parametrize(
        "arch,obj,kind",
        [
            ("skipgram", "negative", "sg-ns"),
            ("skipgram", "hierarchical", "sg-hs"),
            ("cbow", "negative", "cbow-ns"),
            ("cbow", "hierarchical", "cbow-hs"),
        ],
    )
    def test_build_round_work_kinds(self, arch, obj, kind):
        rng = np.random.default_rng(0)
        V = 20
        params = Word2VecParams(
            dim=8, window=2, negatives=3, architecture=arch, objective=obj,
            subsample_threshold=1.0,
        )
        table = UnigramTable(np.ones(V)) if obj == "negative" else None
        tree = HuffmanTree.from_counts(np.ones(V)) if obj == "hierarchical" else None
        work = build_round_work(
            [np.arange(10)], params=params, keep_prob=np.ones(V),
            table=table, tree=tree, rng=rng,
        )
        assert work.kind == kind
        assert work.num_examples > 0
        rows = output_rows_for(params, V)
        emb = np.zeros((V, 8), dtype=np.float32)
        out = np.zeros((rows, 8), dtype=np.float32)
        loss, count = work.apply(emb, out, 0.1, batch_pairs=4, compute_loss=True)
        assert count == work.num_examples
        assert loss > 0
        assert work.output_access.max() < rows

    def test_missing_tree_rejected(self):
        params = Word2VecParams(objective="hierarchical")
        with pytest.raises(ValueError, match="Huffman"):
            build_round_work(
                [np.arange(4)], params=params, keep_prob=np.ones(4),
                table=None, tree=None, rng=np.random.default_rng(0),
            )

    def test_missing_table_rejected(self):
        params = Word2VecParams(objective="negative")
        with pytest.raises(ValueError, match="unigram"):
            build_round_work(
                [np.arange(4)], params=params, keep_prob=np.ones(4),
                table=None, tree=None, rng=np.random.default_rng(0),
            )

    def test_output_rows_for(self):
        assert output_rows_for(Word2VecParams(), 100) == 100
        assert output_rows_for(Word2VecParams(objective="hierarchical"), 100) == 99


def reference_cbow(draws):
    """The per-position CBOW loop, fed each sentence's flat draws."""
    centers, rows, counts = [], [np.empty(0, dtype=np.int64)], []
    for kept, spans in draws:
        L = len(kept)
        for i in range(L):
            lo = max(0, i - int(spans[i]))
            hi = min(L, i + int(spans[i]) + 1)
            context = np.concatenate([kept[lo:i], kept[i + 1 : hi]])
            if context.size:
                centers.append(int(kept[i]))
                rows.append(context)
                counts.append(len(context))
    counts = np.array(counts, dtype=np.int64)
    segments = np.repeat(np.arange(len(centers)), counts)
    return np.array(centers, dtype=np.int64), np.concatenate(rows), segments, counts


@settings(max_examples=60, deadline=None)
@given(chunks, st.integers(1, 7), keep_modes, st.integers(0, 2**16))
@example([], 3, "all", 0)  # empty chunk
@example([np.array([0, 1, 2]), np.array([4, 5])], 2, "none", 0)  # every token dropped
@example([np.array([0]), np.array([4]), np.array([8])], 3, "all", 0)  # all length 1
@example([np.array([0, 1, 2]), np.array([4, 5, 6, 7])], 7, "all", 1)  # window > length
@example([np.array([0, 1, 2, 3]), np.array([4, 5, 6])], 1, "all", 2)  # window = 1
@example([np.array([0, 1]), np.array([4, 5, 6])], 3, "all", 3)  # a length-2 sentence
def test_cbow_builder_matches_per_position_reference(sentences, window, mode, seed):
    """Flat CBOW generation == the per-position loop fed the same draws."""
    V = 4 * max(len(sentences), 1)
    keep_prob = keep_probabilities(mode, V, seed)
    table = UnigramTable(np.arange(1, V + 1, dtype=float))
    batch = build_cbow_batch(
        sentences, window=window, keep_prob=keep_prob, table=table,
        num_negatives=2, rng=np.random.default_rng(seed),
    )
    rng = np.random.default_rng(seed)
    centers, rows, segments, counts = reference_cbow(
        flat_draws(sentences, window, keep_prob, rng)
    )
    negatives, mask = sample_negatives(table, centers, 2, rng)
    assert np.array_equal(batch.centers, centers)
    assert np.array_equal(batch.context_rows, rows)
    assert np.array_equal(batch.context_segments, segments)
    assert np.array_equal(batch.context_counts, counts)
    assert np.array_equal(batch.negatives, negatives)
    assert np.array_equal(batch.negative_mask, mask)
    # No context crosses a sentence (sentence j owns ids 4j..4j+3).
    assert np.array_equal(batch.context_rows // 4, batch.centers[batch.context_segments] // 4)


@settings(max_examples=40, deadline=None)
@given(chunks, st.integers(1, 7), keep_modes, st.integers(0, 2**16))
@example([], 3, "all", 0)
@example([np.array([0, 1, 2]), np.array([4, 5])], 2, "none", 0)
@example([np.array([0]), np.array([4]), np.array([8])], 3, "all", 0)
def test_access_sets_equal_np_unique(sentences, window, mode, seed):
    """All four access sets are ``np.unique`` of the batch's ids, dtype included."""
    V = 4 * max(len(sentences), 1)
    keep_prob = keep_probabilities(mode, V, seed)
    tree = HuffmanTree.from_counts(np.arange(1, V + 1))
    empty = np.empty(0, dtype=np.int64)
    for arch in ("skipgram", "cbow"):
        for obj in ("negative", "hierarchical"):
            params = Word2VecParams(window=window, negatives=3, architecture=arch, objective=obj)
            work = build_round_work(
                sentences, params=params, keep_prob=keep_prob,
                table=UnigramTable(np.ones(V)), tree=tree, rng=np.random.default_rng(seed),
            )
            batch = work.batch
            inputs = batch.inputs if arch == "skipgram" else batch.context_rows
            outputs = batch.outputs if arch == "skipgram" else batch.centers
            if obj == "negative":
                out_ids = np.concatenate([outputs, batch.negatives.ravel()])
            else:
                out_ids = np.concatenate([empty, *(tree.points[w] for w in outputs)])
            for got, want in ((work.embedding_access, np.unique(inputs)),
                              (work.output_access, np.unique(out_ids))):
                assert got.dtype == want.dtype
                assert np.array_equal(got, want)
