from hypothesis import example, given, settings, strategies as st
import numpy as np
import pytest
from scipy.special import expit

from repro.text.negative_sampling import UnigramTable
from repro.w2v.sgd import (
    TrainingBatch,
    apply_in_slices,
    build_training_batch,
    sample_negatives,
    sgns_update,
    subsample_sentence,
)


def make_batch(inputs, outputs, negatives):
    negatives = np.asarray(negatives)
    return TrainingBatch(
        inputs=np.asarray(inputs),
        outputs=np.asarray(outputs),
        negatives=negatives,
        negative_mask=np.ones_like(negatives, dtype=bool),
    )


class TestSubsample:
    def test_keep_all(self):
        s = np.array([0, 1, 2])
        out = subsample_sentence(s, np.ones(3), np.random.default_rng(0))
        assert np.array_equal(out, s)

    def test_drop_all(self):
        s = np.array([0, 1, 2])
        out = subsample_sentence(s, np.zeros(3), np.random.default_rng(0))
        assert out.size == 0

    def test_empty(self):
        s = np.empty(0, dtype=np.int64)
        assert subsample_sentence(s, np.ones(1), np.random.default_rng(0)).size == 0

    def test_statistical_rate(self):
        rng = np.random.default_rng(0)
        s = np.zeros(20_000, dtype=np.int64)
        kept = subsample_sentence(s, np.array([0.3]), rng)
        assert 0.27 < len(kept) / len(s) < 0.33


def pairs(sentences, window, seed=0):
    """``(inputs, outputs)`` of a chunk with no subsampling and no negatives."""
    batch = build_training_batch(
        sentences, window=window, keep_prob=np.ones(1000), table=None,
        num_negatives=0, rng=np.random.default_rng(seed),
    )
    return batch.inputs, batch.outputs


class TestGeneratePairs:
    def test_window_one_adjacent_only(self):
        ins, outs = pairs([np.array([10, 11, 12])], window=1)
        pairs_seen = set(zip(ins.tolist(), outs.tolist()))
        # Every pair must be adjacent (input is the neighbor of the center).
        assert pairs_seen <= {(11, 10), (10, 11), (12, 11), (11, 12)}
        assert pairs_seen  # non-empty

    def test_short_sentence(self):
        ins, outs = pairs([np.array([5])], 5)
        assert ins.size == 0 and outs.size == 0

    def test_window_larger_than_sentence(self):
        # Regression: offsets >= sentence length must not wrap around.
        s = np.array([1, 2, 3, 4])
        ins, outs = pairs([s], window=10)
        for i, o in zip(ins, outs):
            assert abs(np.where(s == i)[0][0] - np.where(s == o)[0][0]) <= 3

    def test_pairs_within_window(self):
        ins, outs = pairs([np.arange(50)], window=5, seed=1)
        assert np.all(np.abs(ins - outs) <= 5)
        assert np.all(ins != outs)

    def test_invalid_window(self):
        with pytest.raises(ValueError, match="window"):
            pairs([np.array([1, 2])], 0)

    def test_every_center_has_adjacent_pair(self):
        # span >= 1 always, so each interior center pairs with both
        # immediate neighbors.
        ins, outs = pairs([np.arange(20)], window=3, seed=2)
        pairs_seen = set(zip(ins.tolist(), outs.tolist()))
        for i in range(1, 19):
            assert (i - 1, i) in pairs_seen and (i + 1, i) in pairs_seen


class TestSampleNegatives:
    def test_shape(self):
        table = UnigramTable(np.ones(10))
        neg, mask = sample_negatives(table, np.zeros(4, dtype=np.int64), 3, np.random.default_rng(0))
        assert neg.shape == (4, 3) and mask.shape == (4, 3)

    def test_zero_negatives(self):
        table = UnigramTable(np.ones(10))
        neg, mask = sample_negatives(table, np.zeros(4, dtype=np.int64), 0, np.random.default_rng(0))
        assert neg.shape == (4, 0)

    def test_collisions_masked(self):
        # Single-word vocabulary: every draw collides with the target.
        table = UnigramTable(np.array([5.0]))
        neg, mask = sample_negatives(table, np.zeros(3, dtype=np.int64), 2, np.random.default_rng(0))
        assert not mask.any()

    def test_masked_fraction_small_for_rich_vocab(self):
        table = UnigramTable(np.ones(1000))
        outputs = np.arange(200, dtype=np.int64)
        _neg, mask = sample_negatives(table, outputs, 5, np.random.default_rng(0))
        assert mask.mean() > 0.99


class TestSGNSUpdate:
    def test_gradient_direction_positive_pair(self):
        # A positive pair with score 0 has sigma=0.5 -> pulls e toward t.
        emb = np.zeros((2, 3), dtype=np.float32)
        trn = np.zeros((2, 3), dtype=np.float32)
        emb[0] = [1.0, 0.0, 0.0]
        trn[1] = [0.0, 1.0, 0.0]
        batch = make_batch([0], [1], np.empty((1, 0), dtype=np.int64))
        sgns_update(emb, trn, batch, learning_rate=0.1)
        # gradient for e: (sigma-1) * t = -0.5*t  -> e gains +0.05 * t dir
        assert emb[0, 1] > 0
        assert trn[1, 0] > 0

    def test_negative_pair_pushes_apart(self):
        emb = np.zeros((2, 2), dtype=np.float32)
        trn = np.zeros((2, 2), dtype=np.float32)
        emb[0] = [1.0, 0.0]
        trn[1] = [1.0, 0.0]
        batch = TrainingBatch(
            inputs=np.array([0]),
            outputs=np.array([1]),  # positive target also 1...
            negatives=np.array([[1]]),
            negative_mask=np.array([[True]]),
        )
        # Score 1.0: positive pulls with (sig-1), negative pushes with sig.
        before = float(emb[0] @ trn[1])
        sgns_update(emb, trn, batch, 0.1)
        # Negative label dominates since sigma(1) > 1 - sigma(1).
        assert float(emb[0] @ trn[1]) < before

    def test_masked_negatives_do_not_update(self):
        emb = np.ones((2, 2), dtype=np.float32)
        trn = np.ones((2, 2), dtype=np.float32)
        batch = TrainingBatch(
            inputs=np.array([0]),
            outputs=np.array([0]),
            negatives=np.array([[1]]),
            negative_mask=np.array([[False]]),
        )
        sgns_update(emb, trn, batch, 0.1)
        assert np.array_equal(trn[1], np.ones(2))  # untouched

    def test_loss_decreases_over_repeated_updates(self):
        rng = np.random.default_rng(0)
        emb = rng.normal(size=(4, 8)).astype(np.float32) * 0.1
        trn = rng.normal(size=(4, 8)).astype(np.float32) * 0.1
        batch = make_batch([0, 1], [2, 3], [[1], [0]])
        losses = [
            sgns_update(emb, trn, batch, 0.5, compute_loss=True) for _ in range(30)
        ]
        assert losses[-1] < losses[0]

    def test_empty_batch(self):
        emb = np.zeros((1, 2), dtype=np.float32)
        batch = make_batch(
            np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64), np.empty((0, 2), dtype=np.int64)
        )
        assert sgns_update(emb, emb.copy(), batch, 0.1) == 0.0

    def test_duplicate_rows_accumulate(self):
        # Two identical pairs in one batch: gradient applied twice.
        emb1 = np.zeros((2, 2), dtype=np.float32)
        trn1 = np.zeros((2, 2), dtype=np.float32)
        emb1[0] = [1.0, 0.0]
        trn1[1] = [0.0, 1.0]
        emb2, trn2 = emb1.copy(), trn1.copy()
        single = make_batch([0], [1], np.empty((1, 0), dtype=np.int64))
        double = make_batch([0, 0], [1, 1], np.empty((2, 0), dtype=np.int64))
        sgns_update(emb1, trn1, single, 0.1)
        sgns_update(emb2, trn2, double, 0.1)
        moved1 = np.abs(emb1[0] - [1, 0]).sum()
        moved2 = np.abs(emb2[0] - [1, 0]).sum()
        assert moved2 == pytest.approx(2 * moved1, rel=1e-5)

    def test_loss_matches_formula(self):
        emb = np.zeros((2, 2), dtype=np.float32)
        trn = np.zeros((2, 2), dtype=np.float32)
        emb[0] = [2.0, 0.0]
        trn[1] = [1.0, 0.0]
        batch = make_batch([0], [1], np.empty((1, 0), dtype=np.int64))
        loss = sgns_update(emb, trn, batch, 1e-9, compute_loss=True)
        assert loss == pytest.approx(-np.log(expit(2.0)), rel=1e-5)


class TestBatchHelpers:
    def test_accessed_ids(self):
        batch = make_batch([3, 1], [2, 2], [[5, 1], [0, 7]])
        assert batch.accessed_ids().tolist() == [0, 1, 2, 3, 5, 7]

    def test_slice(self):
        batch = make_batch([1, 2, 3], [4, 5, 6], [[7], [8], [9]])
        piece = batch.slice(1, 3)
        assert piece.inputs.tolist() == [2, 3]
        assert len(piece) == 2

    def test_apply_in_slices_equals_pairs_count(self):
        rng = np.random.default_rng(0)
        emb = rng.normal(size=(10, 4)).astype(np.float32)
        trn = rng.normal(size=(10, 4)).astype(np.float32)
        batch = make_batch(
            rng.integers(0, 10, 7), rng.integers(0, 10, 7), rng.integers(0, 10, (7, 2))
        )
        _loss, pairs = apply_in_slices(
            batch, 3, lambda piece: sgns_update(emb, trn, piece, 0.01)
        )
        assert pairs == 7

    def test_apply_invalid_batch_pairs(self):
        batch = make_batch([0], [0], [[0]])
        with pytest.raises(ValueError):
            apply_in_slices(batch, 0, lambda piece: 0.0)

    def test_build_training_batch_shapes(self):
        table = UnigramTable(np.ones(20))
        sentences = [np.arange(10), np.arange(5)]
        batch = build_training_batch(
            sentences,
            window=2,
            keep_prob=np.ones(20),
            table=table,
            num_negatives=3,
            rng=np.random.default_rng(0),
        )
        assert len(batch) > 0
        assert batch.negatives.shape == (len(batch), 3)

    def test_build_training_batch_empty_sentences(self):
        table = UnigramTable(np.ones(5))
        batch = build_training_batch(
            [], window=2, keep_prob=np.ones(5), table=table, num_negatives=2,
            rng=np.random.default_rng(0),
        )
        assert len(batch) == 0

    def test_batch_shape_validation(self):
        with pytest.raises(ValueError):
            TrainingBatch(
                inputs=np.array([1]),
                outputs=np.array([1, 2]),
                negatives=np.zeros((1, 1), dtype=np.int64),
                negative_mask=np.ones((1, 1), dtype=bool),
            )


@settings(max_examples=25, deadline=None)
@given(st.integers(2, 30), st.integers(1, 6), st.integers(0, 2**16))
def test_generate_pairs_symmetry_property(length, window, seed):
    """Every generated pair is a valid (neighbor, center) within the span."""
    s = np.arange(length) * 10  # distinct values encode positions
    ins, outs = pairs([s], window, seed)
    for i, o in zip(ins // 10, outs // 10):
        assert 1 <= abs(int(i) - int(o)) <= window


def flat_draws(sentences, window, keep_prob, rng):
    """The chunk's draws, cut per sentence: ``[(kept, spans), ...]``.

    One uniform per token, then one span per kept token — the layout
    ``build_training_batch`` and ``build_cbow_batch`` consume.
    """
    tokens = np.concatenate([np.empty(0, dtype=np.int64), *sentences])
    keep = rng.random(len(tokens)) < keep_prob[tokens]
    spans = rng.integers(1, window + 1, int(keep.sum()))
    draws, start, kept_start = [], 0, 0
    for sentence in sentences:
        kept = sentence[keep[start : start + len(sentence)]]
        draws.append((kept, spans[kept_start : kept_start + len(kept)]))
        start += len(sentence)
        kept_start += len(kept)
    return draws


def reference_sg_pairs(kept, spans, window):
    """The per-sentence pair loop, fed one sentence's flat draws."""
    L = len(kept)
    ins, outs = [], []
    for d in range(1, window + 1):
        if d >= L:
            break
        wide = spans >= d
        left = np.nonzero(wide[d:])[0] + d
        outs.append(kept[left])
        ins.append(kept[left - d])
        right = np.nonzero(wide[: L - d])[0]
        outs.append(kept[right])
        ins.append(kept[right + d])
    return ins, outs


#: Sentences over a per-sentence vocabulary: sentence ``j`` uses ids
#: ``4j..4j+3`` only, so ``id // 4`` names the sentence a token came from.
chunks = st.lists(st.lists(st.integers(0, 3), max_size=12), max_size=6).map(
    lambda lists: [np.array([4 * j + t for t in ts], dtype=np.int64) for j, ts in enumerate(lists)]
)
keep_modes = st.sampled_from(["all", "none", "random"])


def keep_probabilities(mode, V, seed):
    if mode == "all":
        return np.ones(V)
    if mode == "none":
        return np.zeros(V)
    return np.random.default_rng(seed).random(V)


@settings(max_examples=60, deadline=None)
@given(chunks, st.integers(1, 7), keep_modes, st.integers(0, 2**16))
@example([], 3, "all", 0)  # empty chunk
@example([np.array([0, 1, 2]), np.array([4, 5])], 2, "none", 0)  # every token dropped
@example([np.array([0]), np.array([4]), np.array([8])], 3, "all", 0)  # all length 1
@example([np.array([0, 1, 2]), np.array([4, 5, 6, 7])], 7, "all", 1)  # window > length
@example([np.array([0, 1, 2, 3]), np.array([4, 5, 6])], 1, "all", 2)  # window = 1
@example([np.array([0, 1]), np.array([4, 5, 6])], 3, "all", 3)  # a length-2 sentence
def test_chunk_builder_matches_per_sentence_reference(sentences, window, mode, seed):
    """Flat generation == the per-sentence loop fed the same draws, bit for bit."""
    V = 4 * max(len(sentences), 1)
    keep_prob = keep_probabilities(mode, V, seed)
    table = UnigramTable(np.arange(1, V + 1, dtype=float))
    batch = build_training_batch(
        sentences, window=window, keep_prob=keep_prob, table=table,
        num_negatives=3, rng=np.random.default_rng(seed),
    )
    rng = np.random.default_rng(seed)
    ins, outs = [np.empty(0, dtype=np.int64)], [np.empty(0, dtype=np.int64)]
    for kept, spans in flat_draws(sentences, window, keep_prob, rng):
        sentence_ins, sentence_outs = reference_sg_pairs(kept, spans, window)
        ins += sentence_ins
        outs += sentence_outs
    ins, outs = np.concatenate(ins), np.concatenate(outs)
    negatives, mask = sample_negatives(table, outs, 3, rng)
    assert np.array_equal(batch.inputs, ins)
    assert np.array_equal(batch.outputs, outs)
    assert np.array_equal(batch.negatives, negatives)
    assert np.array_equal(batch.negative_mask, mask)
    assert np.array_equal(batch.inputs // 4, batch.outputs // 4)  # same sentence
