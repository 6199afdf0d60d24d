"""Batched generation: ``build_round_works(slots)[i]`` is ``build_round_work``
of slot ``i`` alone, array for array, whatever its batch-mates.

Each slot draws from its own generator and everything between the draws
runs once over the batch (``repro.w2v.sgd._chunk_pairs``), so a slot's
examples and access sets must not depend on which slots share its batch or
where it sits.  The inputs are hostile on purpose: empty chunks and
sentences, one-token sentences, windows longer than any sentence, every
token subsampled away, and out-of-vocabulary tokens, which must raise the
single-slot ``ValueError`` before any slot's generator is drawn.
"""

import re

from hypothesis import example, given, settings, strategies as st
import numpy as np
import pytest

from repro.text.negative_sampling import UnigramTable
from repro.w2v.huffman import HuffmanTree
from repro.w2v.params import Word2VecParams
from repro.w2v.steps import build_round_work, build_round_works

KINDS = [
    ("skipgram", "negative"),
    ("skipgram", "hierarchical"),
    ("cbow", "negative"),
    ("cbow", "hierarchical"),
]

sentences = st.lists(st.integers(0, 11), max_size=9).map(lambda ids: np.array(ids, dtype=np.int64))
chunks = st.lists(st.lists(sentences, max_size=4), min_size=1, max_size=5)


def setting(V, window, negatives, keep, seed, arch, obj):
    """Params, keep probabilities, table and tree over a ``V``-word vocabulary."""
    rng = np.random.default_rng(seed)
    counts = rng.integers(1, 50, V).astype(float)
    keep_prob = {"all": np.ones(V), "none": np.zeros(V), "random": rng.random(V)}[keep]
    params = Word2VecParams(
        architecture=arch, objective=obj, window=window, negatives=negatives
    )
    return dict(
        params=params,
        keep_prob=keep_prob,
        table=UnigramTable(counts),
        tree=HuffmanTree.from_counts(counts),
    )


def assert_same_work(batched, alone):
    assert batched.kind == alone.kind and batched.tree is alone.tree
    assert type(batched.batch) is type(alone.batch)
    pairs = [(name, value, getattr(alone.batch, name)) for name, value in vars(batched.batch).items()]
    pairs += [
        ("embedding_access", batched.embedding_access, alone.embedding_access),
        ("output_access", batched.output_access, alone.output_access),
    ]
    for name, x, y in pairs:
        assert x.dtype == y.dtype and x.shape == y.shape, name
        assert np.array_equal(x, y), name


@pytest.mark.parametrize("arch, obj", KINDS)
@settings(max_examples=40, deadline=None)
@given(
    chunks=chunks,
    window=st.integers(1, 12),
    negatives=st.integers(0, 4),
    keep=st.sampled_from(["all", "none", "random"]),
    seed=st.integers(0, 2**16),
    rotate=st.integers(0, 4),
)
@example([[]], 3, 2, "all", 0, 0)  # one empty chunk
@example([[], [np.array([1, 2, 3])], []], 2, 2, "all", 1, 1)  # empty batch-mates
@example([[np.array([], dtype=np.int64), np.array([4])], [np.array([5])]], 3, 1, "all", 2, 0)  # empty and one-token sentences
@example([[np.array([0, 1, 2])], [np.array([3, 4, 5, 6])]], 12, 3, "all", 3, 1)  # window > every sentence
@example([[np.array([0, 1, 2])], [np.array([3, 4])]], 2, 3, "none", 4, 0)  # every token subsampled away
def test_batch_equals_each_slot_alone(arch, obj, chunks, window, negatives, keep, seed, rotate):
    kwargs = setting(12, window, negatives, keep, seed, arch, obj)
    # Slot i draws from stream seed + i wherever it sits in the batch.
    order = np.roll(np.arange(len(chunks)), rotate)
    slots = [(chunks[i], np.random.default_rng(seed + int(i))) for i in order]
    works = build_round_works(slots, **kwargs)
    assert len(works) == len(slots)
    for work, i in zip(works, order):
        alone = build_round_work(chunks[i], rng=np.random.default_rng(seed + int(i)), **kwargs)
        assert_same_work(work, alone)


@pytest.mark.parametrize("arch, obj", KINDS)
@settings(max_examples=25, deadline=None)
@given(
    chunks=chunks,
    bad=st.sampled_from([-1, 12, 40]),
    where=st.integers(0, 4),
    sentence=st.integers(0, 3),
)
@example([[np.array([3])], [np.array([], dtype=np.int64), np.array([1, 2])]], 12, 1, 1)
def test_out_of_vocabulary_token_raises_as_alone(arch, obj, chunks, bad, where, sentence):
    kwargs = setting(12, 3, 2, "random", 0, arch, obj)
    where %= len(chunks)
    chunk = chunks[where]
    if not chunk:
        chunk.append(np.array([], dtype=np.int64))
    sentence %= len(chunk)
    chunk[sentence] = np.append(chunk[sentence], bad)
    with pytest.raises(ValueError) as alone:
        build_round_work(chunk, rng=np.random.default_rng(0), **kwargs)
    assert f"sentence {sentence} of the chunk holds token {bad}," in str(alone.value)
    # Every other token is in range: the batch names the same sentence as
    # the slot alone, before drawing from any slot's generator.
    rngs = [np.random.default_rng(i) for i in range(len(chunks))]
    with pytest.raises(ValueError, match=re.escape(str(alone.value))):
        build_round_works(list(zip(chunks, rngs)), **kwargs)
    assert all(
        rng.bit_generator.state == np.random.default_rng(i).bit_generator.state
        for i, rng in enumerate(rngs)
    )


def test_empty_batch_builds_nothing():
    assert build_round_works([], **setting(4, 2, 1, "all", 0, "skipgram", "negative")) == []
