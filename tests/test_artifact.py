"""The artifact container: layout, schema checks, damage and atomic writes.

``reseal`` re-implements the documented layout from the module docstring
(prefix, digest, header, 64-byte-aligned arrays) independently of the
writer, so the tests can hand the reader well-sealed artifacts whose
header says something the schema forbids.
"""

import hashlib
import json
import mmap
import os
from pathlib import Path
import struct
import subprocess
import sys
import textwrap

from hypothesis import given, settings, strategies as st
import numpy as np
import pytest

from repro.util import artifact

SRC = Path(__file__).resolve().parents[1] / "src"

_MODEL = {
    "embedding": np.arange(6, dtype=np.float32).reshape(3, 2) / 8,
    "training": np.arange(4, dtype=np.float32).reshape(2, 2) / 4,  # HS: V - 1 rows
}

#: A small artifact of every kind, as ``(fields, arrays)``.
SMALL = {
    "model": ({}, _MODEL),
    "checkpoint": (
        {
            "completed_epochs": 1,
            "completed_rounds": 2,
            "partial_pairs": 30,
            "pairs_total": 400,
            "epoch_pairs": [400],
            "fingerprint": "hosts=3|seed=5",
        },
        _MODEL,
    ),
    "store": (
        {"words": ["naïve", "東京", "w"]},
        {"matrix": _MODEL["embedding"], "norms": np.array([0.125, 0.5, 0.875], np.float32)},
    ),
    "int8": (
        {"store_sha256": "ab" * 32},
        {
            "codes": np.array([[1, -2], [127, -127], [0, 5]], np.int8),
            "scales": np.array([0.5, 0.25], np.float32),
        },
    ),
}
KINDS = sorted(SMALL)

#: sha256 of ``encode("store", *SMALL["store"])``: the layout is a pure
#: function of the content, the same at both ends of the numpy range.
PINNED_STORE_SHA256 = "df4ca628bd7fbe1937e38a83c427eca0fb0d5a6c9ca52d50e763af7936c6b048"


def small(kind):
    return artifact.encode(kind, *SMALL[kind])


def reseal(blob, edit=None, version=artifact.VERSION, head=None):
    """``blob`` with its header edited (or replaced by ``head`` bytes) and
    its digest recomputed: a well-sealed artifact saying something else."""
    _, _, length, _ = struct.unpack_from("<8sII32s", blob)
    header = json.loads(blob[48 : 48 + length])
    if edit is not None:
        edit(header)
    if head is None:
        head = json.dumps(header, sort_keys=True, separators=(",", ":"), ensure_ascii=False).encode()
    payload = blob[-(-(48 + length) // 64) * 64 :]
    body = head + bytes(-(48 + len(head)) % 64) + payload
    sha = hashlib.sha256(struct.pack("<II", version, len(head)) + body).digest()
    return struct.pack("<8sII32s", b"REPROART", version, len(head), sha) + body


def flipped(blob, bits):
    damaged = bytearray(blob)
    for bit in bits:
        damaged[bit // 8] ^= 1 << (bit % 8)
    return bytes(damaged)


def owner(array):
    while isinstance(array, np.ndarray) and array.base is not None:
        array = array.base
    return array


class TestRoundTrip:
    @pytest.mark.parametrize("kind", KINDS)
    def test_bytes_round_trip_is_zero_copy_and_read_only(self, kind):
        fields, arrays = SMALL[kind]
        blob = small(kind)
        got_fields, got, sha = artifact.read(blob, kind)
        assert got_fields == fields
        assert sha == artifact.digest(kind, fields, arrays)
        assert sorted(got) == sorted(arrays)
        for name, array in arrays.items():
            np.testing.assert_array_equal(got[name], array)
            assert got[name].dtype == np.dtype(artifact.SCHEMAS[kind][0][name][0])
            assert not got[name].flags.writeable
            assert owner(got[name]) is blob

    @pytest.mark.parametrize("kind", KINDS)
    def test_file_round_trip_is_memory_mapped(self, kind, tmp_path):
        fields, arrays = SMALL[kind]
        path = tmp_path / kind
        sha = artifact.write(path, kind, fields, arrays)
        assert path.read_bytes() == small(kind)
        assert artifact.read(path, kind)[::2] == (fields, sha)
        got = artifact.read(path, kind)[1]
        for name, array in arrays.items():
            np.testing.assert_array_equal(got[name], array)
            assert not got[name].flags.writeable
            assert isinstance(owner(got[name]), mmap.mmap)
        assert [p.name for p in tmp_path.iterdir()] == [kind]  # no stray temp file

    def test_layout_is_the_documented_one(self):
        blob = small("store")
        magic, version, length, sha = struct.unpack_from("<8sII32s", blob)
        assert (magic, version) == (b"REPROART", 1)
        assert reseal(blob) == blob
        header = json.loads(blob[48 : 48 + length])
        assert header["arrays"] == {
            "matrix": {"dtype": "<f4", "shape": [3, 2]},
            "norms": {"dtype": "<f4", "shape": [3]},
        }
        matrix_at = -(-(48 + length) // 64) * 64
        assert blob[matrix_at : matrix_at + 24] == SMALL["store"][1]["matrix"].astype("<f4").tobytes()
        norms_at = matrix_at + 64
        assert blob[norms_at:] == SMALL["store"][1]["norms"].astype("<f4").tobytes()
        assert sha == hashlib.sha256(blob[8:16] + blob[48:]).digest()

    def test_bytes_are_pinned(self):
        assert hashlib.sha256(small("store")).hexdigest() == PINNED_STORE_SHA256

    def test_empty_arrays(self):
        fields = {"words": []}
        arrays = {"matrix": np.zeros((0, 4), np.float32), "norms": np.zeros(0, np.float32)}
        got_fields, got, _ = artifact.read(artifact.encode("store", fields, arrays), "store")
        assert got["matrix"].shape == (0, 4) and got_fields == fields


class TestDamage:
    """No truncation and no single flipped bit of any kind ever opens."""

    @pytest.mark.parametrize("kind", KINDS)
    def test_every_truncation_is_a_named_value_error(self, kind):
        blob = small(kind)
        for cut in range(len(blob)):
            with pytest.raises(ValueError, match=f"{kind} artifact field '(prefix|sha256)'"):
                artifact.read(blob[:cut], kind)

    @pytest.mark.parametrize("kind", KINDS)
    def test_every_bit_flip_is_a_named_value_error(self, kind):
        blob = small(kind)
        for bit in range(8 * len(blob)):
            with pytest.raises(ValueError, match=f"{kind} artifact field '(magic|version|sha256)'"):
                artifact.read(flipped(blob, [bit]), kind)

    @pytest.mark.parametrize("kind", KINDS)
    def test_another_kind_is_refused(self, kind):
        other = KINDS[(KINDS.index(kind) + 1) % len(KINDS)]
        with pytest.raises(ValueError, match=f"{other} artifact field 'kind' is '{kind}'"):
            artifact.read(small(kind), other)

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            artifact.read(tmp_path / "absent", "store")

    def test_file_errors_name_the_path(self, tmp_path):
        path = tmp_path / "store"
        path.write_bytes(small("store")[:-1])
        with pytest.raises(ValueError, match=f"^{path}: store artifact field 'sha256'"):
            artifact.read(path, "store")
        path.write_bytes(b"")
        with pytest.raises(ValueError, match="'prefix' is truncated: 0 of 48"):
            artifact.read(path, "store")


def editing(path, value=None, drop=False):
    """A header edit that sets (or drops) the dotted ``path``."""
    def edit(header):
        *parents, last = path.split(".")
        node = header
        for key in parents:
            node = node[key]
        if drop:
            del node[last]
        else:
            node[last] = value
    return edit


class TestSchema:
    """Well-sealed artifacts the schema forbids: each error names the field."""

    @pytest.mark.parametrize("kind, damage, match", [
        ("store", dict(version=2), r"'version' is 2; this reader knows 1"),
        ("store", dict(head=b"\xff{}"), r"'header' is not UTF-8 JSON"),
        ("store", dict(head=b"[1, 2]"), r"'header' must be an object"),
        ("store", dict(edit=editing("kind", drop=True)), r"'header' must be an object"),
        ("store", dict(edit=editing("kind", "pq")), r"'kind' is 'pq', expected 'store'"),
        ("store", dict(edit=editing("fields", [])), r"'fields' must be an object"),
        ("store", dict(edit=editing("fields.words", drop=True)), r"'fields\.words' is missing"),
        ("store", dict(edit=editing("fields.extra", 1)), r"'fields\.extra' is not in the schema"),
        ("store", dict(edit=editing("arrays.norms", drop=True)), r"'arrays\.norms' is missing"),
        ("store", dict(edit=editing("fields.words", ["a", "b"])), r"'fields\.words' has length 2 where V is 3"),
        ("store", dict(edit=editing("fields.words", ["a", "b", 3])), r"'fields\.words' must be text\[V\]"),
        ("store", dict(edit=editing("arrays.norms.dtype", "<f8")), r"'arrays\.norms' must be \{'dtype': '<f4'"),
        ("store", dict(edit=editing("arrays.norms.offset", 0)), r"'arrays\.norms' must be"),
        ("store", dict(edit=editing("arrays.norms", [3])), r"'arrays\.norms' must be"),
        ("store", dict(edit=editing("arrays.matrix.shape", [6])), r"'arrays\.matrix\.shape' must be 2 counts"),
        ("store", dict(edit=editing("arrays.matrix.shape", [3, -2])), r"'arrays\.matrix\.shape' must be 2 counts"),
        ("store", dict(edit=editing("arrays.norms.shape", [2])), r"'arrays\.norms\.shape' has length 2 where V is 3"),
        ("store", dict(edit=editing("arrays.matrix.shape", [2, 2])), r"'arrays\.norms\.shape' has length 3 where V is 2"),
        ("int8", dict(edit=editing("arrays.scales.shape", [3])), r"'arrays\.scales\.shape' has length 3 where D is 2"),
        ("model", dict(edit=editing("arrays.training.shape", [3, 2])), r"'arrays' describe 280 bytes but the artifact has 272"),
        ("checkpoint", dict(edit=editing("fields.completed_epochs", True)), r"'fields\.completed_epochs' must be count, got bool"),
        ("checkpoint", dict(edit=editing("fields.partial_pairs", -3)), r"'fields\.partial_pairs' must be count, got int"),
        ("checkpoint", dict(edit=editing("fields.epoch_pairs", 400)), r"'fields\.epoch_pairs' must be count\[\], got int"),
        ("checkpoint", dict(edit=editing("fields.fingerprint", None)), r"'fields\.fingerprint' must be text, got NoneType"),
        ("int8", dict(edit=editing("fields.store_sha256", 7)), r"'fields\.store_sha256' must be text, got int"),
    ])
    def test_named_value_error(self, kind, damage, match):
        with pytest.raises(ValueError, match=f"{kind} artifact field {match}"):
            artifact.read(reseal(small(kind), **damage), kind)


#: JSON values a fuzzed header edit may put anywhere.
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 5) | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=2),
    max_leaves=4,
)


def _paths(node, prefix=""):
    if isinstance(node, dict):
        for key, value in node.items():
            yield f"{prefix}{key}"
            yield from _paths(value, f"{prefix}{key}.")


class TestFuzz:
    """Truncations, bit flips, dropped keys and retyped values of every
    kind end in success or a ``ValueError`` naming an artifact field."""

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_damage_ends_in_a_named_value_error(self, data):
        kind = data.draw(st.sampled_from(KINDS))
        blob = small(kind)
        damage = data.draw(st.sampled_from(["truncate", "flip", "drop", "retype"]))
        if damage == "truncate":
            damaged = blob[: data.draw(st.integers(0, len(blob) - 1))]
        elif damage == "flip":
            bits = data.draw(st.lists(st.integers(0, 8 * len(blob) - 1), min_size=1, max_size=4, unique=True))
            damaged = flipped(blob, bits)
        else:
            _, _, length, _ = struct.unpack_from("<8sII32s", blob)
            paths = sorted(_paths(json.loads(blob[48 : 48 + length])))
            path = data.draw(st.sampled_from(paths))
            edit = editing(path, drop=True) if damage == "drop" else editing(path, data.draw(_JSON))
            damaged = reseal(blob, edit)
        try:
            artifact.read(damaged, kind)
        except ValueError as err:
            assert f"{kind} artifact field '" in str(err)


class _Killed(BaseException):
    """Stands in for the process dying in the middle of a write."""


def _dying_after(blob, cut):
    yield blob[:cut]
    raise _Killed


class TestAtomicWrite:
    @pytest.mark.parametrize("kind", KINDS)
    def test_write_killed_at_any_byte_keeps_the_old_artifact(self, kind, tmp_path):
        path = tmp_path / kind
        fields, arrays = SMALL[kind]
        artifact.write(path, kind, fields, arrays)
        _, old, old_sha = artifact.read(path, kind)
        new = artifact.encode(kind, fields, {name: array + 1 for name, array in arrays.items()})
        for cut in range(len(new) + 1):
            with pytest.raises(_Killed):
                artifact.write_atomic(path, _dying_after(new, cut))
            _, reopened, sha = artifact.read(path, kind)
            assert sha == old_sha
            for name in arrays:
                np.testing.assert_array_equal(reopened[name], old[name])
        assert [p.name for p in tmp_path.iterdir()] == [kind]
        artifact.write_atomic(path, [new])
        assert artifact.read(path, kind)[2] != old_sha

    def test_hard_kill_leaves_the_old_file_and_a_stray_temp(self, tmp_path):
        """``os._exit`` mid-write runs no cleanup; the path is still whole."""
        path = tmp_path / "store"
        artifact.write(path, "store", *SMALL["store"])
        before = path.read_bytes()
        code = f"""
            import os
            from repro.util.artifact import write_atomic

            def chunks():
                yield b"REPROART partial"
                os._exit(9)

            write_atomic({str(path)!r}, chunks())
        """
        done = subprocess.run(
            [sys.executable, "-c", textwrap.dedent(code)],
            env={**os.environ, "PYTHONPATH": str(SRC)}, timeout=60,
        )
        assert done.returncode == 9
        assert path.read_bytes() == before
        assert artifact.read(path, "store")[0] == SMALL["store"][0]
        strays = [p.name for p in tmp_path.iterdir() if p.name != "store"]
        assert len(strays) == 1 and strays[0].startswith(".store.")
        artifact.write(path, "store", *SMALL["store"])  # a later write is unaffected
        assert path.read_bytes() == before

    def test_merge_bench_row_replaces_the_file_whole(self, tmp_path):
        from repro.bench import merge_bench_row

        path = tmp_path / "BENCH.json"
        merge_bench_row(path, "b", {"x": 1})
        merge_bench_row(path, "a", [2])
        assert path.read_text() == '{\n  "a": [\n    2\n  ],\n  "b": {\n    "x": 1\n  }\n}\n'
        assert [p.name for p in tmp_path.iterdir()] == ["BENCH.json"]
