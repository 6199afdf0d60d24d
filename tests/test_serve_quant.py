"""Int8Store: error bounds, persistence, meta validation."""

import json
import mmap

import numpy as np
import pytest

from repro.serve.quant import Int8Store, open_codes
from repro.serve.store import EmbeddingStore, read_meta, write_meta
from repro.util.rng import keyed_rng


def make_store(V=300, d=32, seed=1):
    rng = keyed_rng(seed, 0x51545354, V, d)  # "QTST"
    matrix = rng.normal(size=(V, d)).astype(np.float32)
    return EmbeddingStore(matrix, [f"w{i:04d}" for i in range(V)])


class TestInt8RoundTrip:
    def test_elementwise_error_within_documented_bound(self):
        store = make_store()
        int8 = Int8Store.build(store)
        error = np.abs(int8.decode() - store.normalized())
        assert np.all(error <= int8.max_abs_error()[None, :] + 1e-7)

    def test_row_l2_error_within_reconstruction_bound(self):
        store = make_store()
        int8 = Int8Store.build(store)
        row_errors = np.linalg.norm(int8.decode() - store.normalized(), axis=1)
        assert np.all(row_errors <= int8.reconstruction_bound() + 1e-6)

    def test_nothing_clips_at_build(self):
        store = make_store()
        int8 = Int8Store.build(store)
        peak_rows = np.abs(store.normalized()).argmax(axis=0)
        decoded = int8.decode(peak_rows)
        # The per-dimension peak is representable exactly at |code| = 127.
        assert int8.codes.min() >= -127 and int8.codes.max() <= 127
        assert decoded.shape == (store.dim, store.dim)

    def test_decode_row_subset(self):
        store = make_store(V=50)
        int8 = Int8Store.build(store)
        rows = np.array([3, 17, 3])
        np.testing.assert_array_equal(int8.decode(rows), int8.decode()[rows])

    def test_scoring_protocol_matches_decode(self):
        store = make_store()
        int8 = Int8Store.build(store)
        q = store.normalized()[7]
        ctx = int8.prepare_query(q)
        scores = int8.score(int8.codes[:20], ctx)
        np.testing.assert_allclose(scores, int8.decode()[:20] @ q, atol=1e-4)

    def test_validation(self):
        with pytest.raises(ValueError, match="2-D"):
            Int8Store(np.zeros(3, dtype=np.int8), np.ones(3, dtype=np.float32))
        with pytest.raises(ValueError, match="scales shape"):
            Int8Store(np.zeros((2, 3), dtype=np.int8), np.ones(2, dtype=np.float32))
        with pytest.raises(ValueError, match="strictly positive"):
            Int8Store(np.zeros((2, 3), dtype=np.int8), np.zeros(3, dtype=np.float32))


class TestPersistence:
    def saved_store(self, tmp_path, V=120, d=16):
        store = make_store(V=V, d=d)
        store.save(tmp_path)
        return store

    def test_int8_save_open_round_trip(self, tmp_path):
        store = self.saved_store(tmp_path)
        int8 = Int8Store.build(store)
        int8.save(tmp_path)
        reopened = Int8Store.open(tmp_path)
        np.testing.assert_array_equal(reopened.codes, int8.codes)
        np.testing.assert_array_equal(reopened.scales, int8.scales)

    def test_open_codes_loads_every_variant(self, tmp_path):
        store = self.saved_store(tmp_path)
        Int8Store.build(store).save(tmp_path)
        variants = open_codes(tmp_path, store=store)
        assert sorted(variants) == ["int8"]
        assert isinstance(variants["int8"], Int8Store)

    def test_open_codes_empty_without_section(self, tmp_path):
        self.saved_store(tmp_path)
        assert open_codes(tmp_path) == {}

    def test_store_reopen_keeps_codes_section(self, tmp_path):
        """Saving codes must not break the plain store round-trip."""
        store = self.saved_store(tmp_path)
        Int8Store.build(store).save(tmp_path)
        reopened = EmbeddingStore.open(tmp_path)
        np.testing.assert_array_equal(reopened.matrix, store.matrix)


class TestMetaValidation:
    def corrupt(self, tmp_path, mutate):
        store = make_store(V=40, d=8)
        store.save(tmp_path)
        Int8Store.build(store).save(tmp_path)
        meta = read_meta(tmp_path)
        mutate(meta)
        write_meta(tmp_path, meta)
        return store

    def test_missing_field_named_in_error(self, tmp_path):
        self.corrupt(tmp_path, lambda m: m["codes"]["int8"].pop("vocab_size"))
        with pytest.raises(ValueError, match=r"codes\.int8\.vocab_size"):
            Int8Store.open(tmp_path)

    def test_wrong_type_named_in_error(self, tmp_path):
        def mutate(meta):
            meta["codes"]["int8"]["dim"] = "eight"

        self.corrupt(tmp_path, mutate)
        with pytest.raises(ValueError, match=r"codes\.int8\.dim must be int, got str"):
            Int8Store.open(tmp_path)

    def test_unknown_variant_rejected(self, tmp_path):
        """Also a retired variant: a ``codes.pq`` section no longer loads."""
        for variant in ("opq", "pq"):
            self.corrupt(tmp_path, lambda m, v=variant: m["codes"].update({v: {"file": "x.npz"}}))
            with pytest.raises(ValueError, match=f"unknown\\s+variant '{variant}'"):
                open_codes(tmp_path)

    def test_store_shape_mismatch_named_in_error(self, tmp_path):
        self.corrupt(tmp_path, lambda m: None)
        other = make_store(V=41, d=8)
        with pytest.raises(ValueError, match=r"codes\.int8\.vocab_size is 40"):
            open_codes(tmp_path, store=other)

    def test_shape_mismatch_against_npz(self, tmp_path):
        self.corrupt(tmp_path, lambda m: m["codes"]["int8"].update(vocab_size=99))
        with pytest.raises(ValueError, match="does not match"):
            Int8Store.open(tmp_path)

    def test_missing_codes_section(self, tmp_path):
        store = make_store(V=10, d=8)
        store.save(tmp_path)
        with pytest.raises(ValueError, match="codes"):
            Int8Store.open(tmp_path)


class TestMemmapScale:
    def test_raw_round_trip_at_1e5_vocab(self, tmp_path):
        """Serving-scale store: 10^5 rows saved raw, reopened memory-mapped."""
        V, d = 100_000, 16
        rng = keyed_rng(3, 0x4D4D4150, V)  # "MMAP"
        matrix = rng.normal(size=(V, d)).astype(np.float32)
        width = len(str(V - 1))
        store = EmbeddingStore(matrix, [f"t{i:0{width}d}" for i in range(V)])
        store.save(tmp_path, format="raw")
        reopened = EmbeddingStore.open(tmp_path, mmap=True)
        # The store re-wraps the array (read-only contiguous view), so walk
        # the base chain to the owner: it must still be the file mapping.
        owner = reopened.matrix
        while getattr(owner, "base", None) is not None:
            owner = owner.base
        assert isinstance(owner, (np.memmap, mmap.mmap))
        assert len(reopened) == V and reopened.dim == d
        probe = np.array([0, 12_345, V - 1])
        np.testing.assert_array_equal(reopened.matrix[probe], matrix[probe])
        meta = json.loads((tmp_path / "meta.json").read_text())
        assert meta["vocab_size"] == V
