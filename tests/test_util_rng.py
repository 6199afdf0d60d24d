from hypothesis import given, strategies as st
import numpy as np

from repro.util.rng import Domain, SeedSequenceTree, default_rng, derive_seed, hash64, keyed_rng


class TestDefaultRng:
    def test_deterministic_for_same_seed(self):
        assert default_rng(5).integers(1 << 30) == default_rng(5).integers(1 << 30)

    def test_different_seeds_differ(self):
        a = default_rng(1).random(8)
        b = default_rng(2).random(8)
        assert not np.allclose(a, b)

    def test_none_uses_library_default(self):
        assert default_rng().integers(1 << 30) == default_rng(None).integers(1 << 30)


class TestSeedSequenceTree:
    def test_child_reproducible(self):
        tree = SeedSequenceTree(42)
        a = tree.child("pairs", 3).random(4)
        b = SeedSequenceTree(42).child("pairs", 3).random(4)
        assert np.array_equal(a, b)

    def test_children_distinct_by_name_and_index(self):
        tree = SeedSequenceTree(42)
        draws = {
            tree.child("a", 0).integers(1 << 40),
            tree.child("a", 1).integers(1 << 40),
            tree.child("b", 0).integers(1 << 40),
        }
        assert len(draws) == 3

    def test_subtrees_do_not_collide(self):
        tree = SeedSequenceTree(7)
        x = tree.subtree("epoch", 0).child("shuffle", 1).integers(1 << 40)
        y = tree.subtree("epoch", 1).child("shuffle", 1).integers(1 << 40)
        z = tree.child("shuffle", 1).integers(1 << 40)
        assert len({x, y, z}) == 3

    def test_children_list(self):
        tree = SeedSequenceTree(7)
        rngs = tree.children("hosts", 3)
        assert len(rngs) == 3
        assert rngs[1].integers(1 << 40) == tree.child("hosts", 1).integers(1 << 40)


class TestHash64:
    def test_known_fnv_vector(self):
        # FNV-1a 64-bit of empty string is the offset basis.
        assert hash64("") == 0xCBF29CE484222325

    def test_stability(self):
        assert hash64("fox") == hash64("fox")

    def test_distinct_words(self):
        assert hash64("fox") != hash64("dog")

    @given(st.text(max_size=30))
    def test_range(self, text):
        assert 0 <= hash64(text) < 2**64

    @given(st.text(max_size=30), st.text(max_size=30))
    def test_deterministic_property(self, a, b):
        if a == b:
            assert hash64(a) == hash64(b)


def test_domain_members_are_their_int_tags():
    # A member keys the stream of its int value: tags are names, not new
    # streams, so no fault realization or answer hash depends on them.
    for tag in Domain:
        assert np.array_equal(keyed_rng(7, tag).random(4), keyed_rng(7, int(tag)).random(4))
        assert derive_seed(7, tag, 1) == derive_seed(7, int(tag), 1)
