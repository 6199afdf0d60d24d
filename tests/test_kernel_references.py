"""Kernel-vs-scalar-reference checks.

Each vectorized kernel is compared against a straightforward per-example,
per-element NumPy reference implementing the update equations directly.
"""

import numpy as np
import pytest
from scipy.special import expit

from repro.text.negative_sampling import UnigramTable
from repro.w2v.cbow import CbowBatch, cbow_ns_update
from repro.w2v.hs import hs_update
from repro.w2v.huffman import HuffmanTree
from repro.w2v.sgd import TrainingBatch, build_training_batch, sgns_update


def reference_sgns(emb, trn, inputs, outputs, negatives, mask, lr):
    """Per-pair SGNS with gradients evaluated at entry state."""
    emb0, trn0 = emb.astype(np.float64), trn.astype(np.float64)
    d_emb = np.zeros_like(emb0)
    d_trn = np.zeros_like(trn0)
    for b in range(len(inputs)):
        e = emb0[inputs[b]]
        targets = [(outputs[b], 1.0)] + [
            (negatives[b, j], 0.0) for j in range(negatives.shape[1]) if mask[b, j]
        ]
        for target, label in targets:
            t = trn0[target]
            g = (expit(e @ t) - label) * lr
            d_emb[inputs[b]] -= g * t
            d_trn[target] -= g * e
    return emb0 + d_emb, trn0 + d_trn


def random_batch(rng, V):
    B, K = 6, 3
    return TrainingBatch(
        inputs=rng.integers(0, V, B),
        outputs=rng.integers(0, V, B),
        negatives=rng.integers(0, V, (B, K)),
        negative_mask=rng.random((B, K)) < 0.8,
    )


def shared_negatives_batch(rng, V):
    """A built chunk: every pair of a center repeats the center's output row
    and its one negatives row, so one slice updates those rows several
    times and the duplicates must sum."""
    batch = build_training_batch(
        [rng.integers(0, V, 9), rng.integers(0, V, 6)], window=3,
        keep_prob=np.ones(V), table=UnigramTable(np.ones(V)),
        num_negatives=4, rng=rng,
    )
    _, repeats = np.unique(batch.negatives, axis=0, return_counts=True)
    assert repeats.max() > 1
    return batch


class TestSGNSAgainstReference:
    @pytest.mark.parametrize(
        "make_batch, seed",
        [pytest.param(random_batch, s, id=str(s)) for s in (0, 1, 2)]
        + [pytest.param(shared_negatives_batch, s, id=f"shared-{s}") for s in (0, 5)],
    )
    def test_matches(self, make_batch, seed):
        rng = np.random.default_rng(seed)
        V, D = 8, 5
        emb = rng.normal(size=(V, D)).astype(np.float32)
        trn = rng.normal(size=(V, D)).astype(np.float32)
        batch = make_batch(rng, V)
        expected_emb, expected_trn = reference_sgns(
            emb, trn, batch.inputs, batch.outputs, batch.negatives,
            batch.negative_mask, 0.1,
        )
        sgns_update(emb, trn, batch, 0.1)
        np.testing.assert_allclose(emb, expected_emb, rtol=1e-4, atol=1e-6)
        np.testing.assert_allclose(trn, expected_trn, rtol=1e-4, atol=1e-6)


def reference_hs(emb, out, inputs, outputs, tree, lr):
    emb0, out0 = emb.astype(np.float64), out.astype(np.float64)
    d_emb = np.zeros_like(emb0)
    d_out = np.zeros_like(out0)
    for b in range(len(inputs)):
        e = emb0[inputs[b]]
        word = int(outputs[b])
        for bit, point in zip(tree.codes[word], tree.points[word]):
            t = out0[point]
            label = 1.0 - float(bit)
            g = (expit(e @ t) - label) * lr
            d_emb[inputs[b]] -= g * t
            d_out[point] -= g * e
    return emb0 + d_emb, out0 + d_out


class TestHSAgainstReference:
    @pytest.mark.parametrize("seed", [0, 3])
    def test_matches(self, seed):
        rng = np.random.default_rng(seed)
        V, D, B = 9, 4, 5
        tree = HuffmanTree.from_counts(rng.integers(1, 50, V))
        emb = rng.normal(size=(V, D)).astype(np.float32)
        out = rng.normal(size=(tree.num_inner_nodes, D)).astype(np.float32)
        inputs = rng.integers(0, V, B)
        outputs = rng.integers(0, V, B)
        expected_emb, expected_out = reference_hs(emb, out, inputs, outputs, tree, 0.2)
        hs_update(emb, out, inputs, outputs, tree, 0.2)
        np.testing.assert_allclose(emb, expected_emb, rtol=1e-4, atol=1e-6)
        np.testing.assert_allclose(out, expected_out, rtol=1e-4, atol=1e-6)


def reference_cbow_ns(emb, trn, batch, lr):
    emb0, trn0 = emb.astype(np.float64), trn.astype(np.float64)
    d_emb = np.zeros_like(emb0)
    d_trn = np.zeros_like(trn0)
    for b in range(len(batch)):
        rows = batch.context_rows[batch.context_segments == b]
        h = emb0[rows].mean(axis=0)
        grad_h = np.zeros_like(h)
        targets = [(int(batch.centers[b]), 1.0)] + [
            (int(batch.negatives[b, j]), 0.0)
            for j in range(batch.negatives.shape[1])
            if batch.negative_mask[b, j]
        ]
        for target, label in targets:
            t = trn0[target]
            g = (expit(h @ t) - label) * lr
            grad_h += g * t
            d_trn[target] -= g * h
        for row in rows:
            d_emb[row] -= grad_h
    return emb0 + d_emb, trn0 + d_trn


class TestCBOWAgainstReference:
    @pytest.mark.parametrize("seed", [0, 4])
    def test_matches(self, seed):
        rng = np.random.default_rng(seed)
        V, D, B, K = 10, 4, 4, 2
        emb = rng.normal(size=(V, D)).astype(np.float32)
        trn = rng.normal(size=(V, D)).astype(np.float32)
        counts = rng.integers(1, 4, B)
        segments = np.repeat(np.arange(B), counts)
        batch = CbowBatch(
            centers=rng.integers(0, V, B),
            context_rows=rng.integers(0, V, int(counts.sum())),
            context_segments=segments,
            context_counts=counts,
            negatives=rng.integers(0, V, (B, K)),
            negative_mask=rng.random((B, K)) < 0.8,
        )
        expected_emb, expected_trn = reference_cbow_ns(emb, trn, batch, 0.15)
        cbow_ns_update(emb, trn, batch, 0.15)
        np.testing.assert_allclose(emb, expected_emb, rtol=1e-4, atol=1e-6)
        np.testing.assert_allclose(trn, expected_trn, rtol=1e-4, atol=1e-6)
