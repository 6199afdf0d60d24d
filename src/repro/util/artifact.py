"""The one on-disk format: a validated, atomically written artifact.

Every matrix this package persists (a model, a training checkpoint, a
serving store, int8 codes) is one artifact: a file or ``bytes`` object
laid out as::

    offset  size  content
    0       8     magic b"REPROART"
    8       4     schema version (uint32, little-endian)
    12      4     header length H (uint32, little-endian)
    16      32    sha256 over bytes [8, 16) and [48, end)
    48      H     header: UTF-8 JSON {"kind", "fields", "arrays"}
    then          the arrays in name order, raw little-endian, each on a
                  64-byte boundary (zero padding before each)

``header["arrays"][name]`` is ``{"dtype", "shape"}``; offsets follow from
the shapes.  The header has sorted keys and no spaces, so the bytes are a
pure function of the content and the sha256 names it (:func:`digest`).

:func:`read` checks the prefix, the digest, the header and every field and
array against the expected kind's row of :data:`SCHEMAS`, raising a
``ValueError`` that names the field, and returns the arrays as read-only
zero-copy views (``np.frombuffer`` over ``bytes``, ``np.memmap`` over a
path).  :func:`write` goes through :func:`write_atomic` (temporary file,
``fsync``, ``os.replace``): a write killed at any byte leaves the previous
file whole, which is also why mapping a file is safe.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from pathlib import Path
import struct
import threading
from typing import Iterable

import numpy as np

__all__ = ["SCHEMAS", "digest", "encode", "read", "write", "write_atomic"]

MAGIC = b"REPROART"
VERSION = 1
_PREFIX = struct.Struct("<8sII32s")
_ALIGN = 64

_MODEL_ARRAYS = {"embedding": ("<f4", "V", "D"), "training": ("<f4", "T", "D")}

#: Per kind: ``(arrays, fields)``.  An array's spec is its dtype and one
#: symbol per axis, each symbol binding one length across the artifact
#: (hierarchical softmax trains ``T = V - 1`` output rows).  A field's spec
#: is ``"count"`` (an int >= 0), ``"text"`` (a str), or a list of either:
#: ``"count[]"`` of any length, ``"text[V]"`` of the length ``V`` binds.
SCHEMAS: dict[str, tuple[dict[str, tuple[str, ...]], dict[str, str]]] = {
    "model": (_MODEL_ARRAYS, {}),
    "checkpoint": (
        _MODEL_ARRAYS,
        {
            "completed_epochs": "count",
            "completed_rounds": "count",
            "partial_pairs": "count",
            "pairs_total": "count",
            "epoch_pairs": "count[]",
            "fingerprint": "text",
        },
    ),
    "store": ({"matrix": ("<f4", "V", "D"), "norms": ("<f4", "V")}, {"words": "text[V]"}),
    "int8": ({"codes": ("|i1", "V", "D"), "scales": ("<f4", "D")}, {"store_sha256": "text"}),
}


def _seal(kind: str, fields: dict, arrays: dict) -> tuple[list, str]:
    """The artifact's bytes as a list of chunks, and its sha256."""
    specs = SCHEMAS[kind][0]
    packed = {name: np.ascontiguousarray(arrays[name], specs[name][0]) for name in sorted(specs)}
    table = {name: {"dtype": specs[name][0], "shape": list(map(int, a.shape))} for name, a in packed.items()}
    head = json.dumps(
        {"kind": kind, "fields": fields, "arrays": table},
        sort_keys=True, separators=(",", ":"), ensure_ascii=False,
    ).encode()
    chunks: list = [head]
    end = _PREFIX.size + len(head)
    for array in packed.values():
        chunks += [bytes(-end % _ALIGN), array.reshape(-1).view(np.uint8)]
        end += -end % _ALIGN + array.nbytes
    sha = hashlib.sha256(struct.pack("<II", VERSION, len(head)))
    for chunk in chunks:
        sha.update(chunk)
    return [_PREFIX.pack(MAGIC, VERSION, len(head), sha.digest()), *chunks], sha.hexdigest()


def encode(kind: str, fields: dict, arrays: dict) -> bytes:
    """The bytes of a ``kind`` artifact (arrays cast to the schema dtypes)."""
    return b"".join(_seal(kind, fields, arrays)[0])


def digest(kind: str, fields: dict, arrays: dict) -> str:
    """The sha256 :func:`encode` would record, without joining the bytes."""
    return _seal(kind, fields, arrays)[1]


def write(path: str | Path, kind: str, fields: dict, arrays: dict) -> str:
    """Atomically replace ``path`` with a ``kind`` artifact; returns its sha256."""
    chunks, sha = _seal(kind, fields, arrays)
    write_atomic(path, chunks)
    return sha


def write_atomic(path: str | Path, chunks: Iterable) -> None:
    """Replace ``path`` with the concatenated ``chunks``, all or nothing.

    The bytes go to a temporary file beside ``path``, are fsynced, and the
    file is renamed over ``path`` (then the directory is fsynced).  Readers
    see the old file or the new one; a writer killed part-way leaves at
    most a stray ``.<name>.<pid>.<thread>.tmp``.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.{threading.get_ident()}.tmp")
    try:
        with os.fdopen(os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o666), "wb") as handle:
            for chunk in chunks:
                handle.write(chunk)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    directory = os.open(path.parent, os.O_RDONLY)
    try:
        os.fsync(directory)
    finally:
        os.close(directory)


def _is(kind: str, value) -> bool:
    return type(value) is int and value >= 0 if kind == "count" else isinstance(value, str)


def read(source: bytes | str | Path, kind: str) -> tuple[dict, dict[str, np.ndarray], str]:
    """Validate a ``kind`` artifact; returns ``(fields, arrays, sha256)``.

    ``source`` is ``bytes`` (arrays are read-only views of it) or a path
    (views of a read-only memory map; a missing file is the OS error).
    Anything else wrong raises a ``ValueError`` naming the field.
    """
    where = "" if isinstance(source, (bytes, bytearray)) else f"{source}: "

    def fail(field: str, problem: str) -> ValueError:
        return ValueError(f"{where}{kind} artifact field {field!r} {problem}")

    if not where:
        buf = np.frombuffer(source, dtype=np.uint8)
    elif os.path.getsize(source):  # mmap refuses an empty file
        buf = np.memmap(source, dtype=np.uint8, mode="r").view(np.ndarray)
    else:
        buf = np.empty(0, dtype=np.uint8)
    size = buf.size
    if size < _PREFIX.size:
        raise fail("prefix", f"is truncated: {size} of {_PREFIX.size} bytes")
    magic, version, head_len, recorded = _PREFIX.unpack(bytes(buf[: _PREFIX.size]))
    if magic != MAGIC:
        raise fail("magic", f"is {magic!r}, not {MAGIC!r}: not an artifact")
    if version != VERSION:
        raise fail("version", f"is {version}; this reader knows {VERSION}")
    sha = hashlib.sha256(buf[8:16])
    sha.update(buf[_PREFIX.size :])
    if sha.digest() != recorded:
        raise fail("sha256", "does not match the content: the bytes are torn or damaged")
    end = _PREFIX.size + head_len
    try:
        header = json.loads(bytes(buf[_PREFIX.size : end]).decode())
    except ValueError as err:  # UnicodeDecodeError and JSONDecodeError both
        raise fail("header", f"is not UTF-8 JSON ({err})") from err
    if not isinstance(header, dict) or set(header) != {"kind", "fields", "arrays"}:
        raise fail("header", "must be an object with keys 'arrays', 'fields', 'kind'")
    if header["kind"] != kind:
        raise fail("kind", f"is {header['kind']!r}, expected {kind!r}")
    array_specs, field_specs = SCHEMAS[kind]
    for section, specs in (("fields", field_specs), ("arrays", array_specs)):
        if not isinstance(header[section], dict):
            raise fail(section, "must be an object")
        for name in sorted(set(specs) ^ set(header[section])):
            raise fail(f"{section}.{name}", "is missing" if name in specs else "is not in the schema")

    sizes: dict[str, int] = {}

    def bind(field: str, symbol: str, length: int) -> None:
        if sizes.setdefault(symbol, length) != length:
            raise fail(field, f"has length {length} where {symbol} is {sizes[symbol]}")

    layout = []
    for name, (dtype, *axes) in sorted(array_specs.items()):
        entry, field = header["arrays"][name], f"arrays.{name}"
        if not isinstance(entry, dict) or entry != {"dtype": dtype, "shape": entry.get("shape")}:
            raise fail(field, f"must be {{'dtype': {dtype!r}, 'shape': [...]}}, got {entry!r}")
        shape = entry["shape"]
        if not (isinstance(shape, list) and len(shape) == len(axes) and all(_is("count", n) for n in shape)):
            raise fail(f"{field}.shape", f"must be {len(axes)} counts, got {shape!r}")
        for symbol, length in zip(axes, shape):
            bind(f"{field}.shape", symbol, length)
        end += -end % _ALIGN
        nbytes = math.prod(shape) * np.dtype(dtype).itemsize
        layout.append((name, buf[end : end + nbytes], dtype, shape))
        end += nbytes
    if end != size:
        raise fail("arrays", f"describe {end} bytes but the artifact has {size}")
    fields = header["fields"]
    for name, spec in field_specs.items():
        value, field = fields[name], f"fields.{name}"
        elem, bracket, symbol = spec.rstrip("]").partition("[")
        listed = isinstance(value, list)
        if bool(bracket) != listed or not all(_is(elem, v) for v in (value if listed else [value])):
            raise fail(field, f"must be {spec}, got {type(value).__name__}")
        if symbol:
            bind(field, symbol, len(value))

    arrays = {}
    for name, data, dtype, shape in layout:
        arrays[name] = data.view(dtype).reshape(shape)
        arrays[name].flags.writeable = False
    return fields, arrays, sha.hexdigest()
