"""Quantized store variant: int8 scalar codes.

:class:`Int8Store` compresses the store's *normalized* matrix (search is
cosine, so the unit-sphere representation is what rescoring reads) into
codes kept alongside the float32 snapshot, with a documented
reconstruction-error bound.  It is symmetric per-dimension scalar
quantization: ``codes[r, d] = round(normalized[r, d] / scale[d])``
clipped to ``[-127, 127]`` with ``scale[d] = max_r |normalized[r, d]| / 127``.
Decoding multiplies back.  **Bound**: round-to-nearest means the
element-wise error is at most ``scale[d] / 2`` (exactly
:meth:`Int8Store.max_abs_error`) except where clipping saturates — the
scale is chosen from the data, so nothing clips at build time — and the
per-row L2 error is at most ``sqrt(sum_d (scale[d]/2)^2)``
(:meth:`Int8Store.reconstruction_bound`).  4x smaller than float32.

Scoring support for :class:`~repro.serve.ivf.IVFIndex` is the two-method
protocol ``prepare_query(q) -> ctx`` / ``score(code_rows, ctx)``: int8
folds the scales into the query once (``q * scale``), so scoring a
candidate block is one int8-to-float cast and a matrix-vector product.
The index sees only the protocol, never the code format.

Persistence: ``save(directory)`` drops a ``codes_int8.npz`` next to an
existing store's ``vectors.*`` and records the layout under the
``codes.int8`` key of ``meta.json`` (validated field-by-field on
``open`` — error messages name the offending ``codes.<variant>.<field>``;
a section naming any other variant is rejected).
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from repro.serve.store import EmbeddingStore, meta_field, read_meta, write_meta

__all__ = ["Int8Store", "open_codes"]

_INT8_NPZ = "codes_int8.npz"


def _codes_meta(meta: dict, variant: str, path: Path) -> dict:
    section = meta_field(meta, "codes", dict, where=str(path))
    if variant not in section:
        raise ValueError(f"{path}: meta.json has no codes.{variant} section")
    if not isinstance(section[variant], dict):
        raise ValueError(f"{path}: meta.json field codes.{variant} must be an object")
    return section[variant]


def _variant_field(section: dict, variant: str, name: str, kind, where: str):
    if name not in section:
        raise ValueError(f"{where}: meta.json missing field codes.{variant}.{name}")
    value = section[name]
    if not isinstance(value, kind) or isinstance(value, bool):
        raise ValueError(
            f"{where}: meta.json field codes.{variant}.{name} must be "
            f"{kind.__name__}, got {type(value).__name__}"
        )
    return value


def _check_store_shape(section: dict, variant: str, V: int, dim: int, where: str):
    for name, expected in (("vocab_size", V), ("dim", dim)):
        found = _variant_field(section, variant, name, int, where)
        if found != expected:
            raise ValueError(
                f"{where}: meta.json field codes.{variant}.{name} is {found}, "
                f"store has {expected}"
            )


class Int8Store:
    """Per-dimension symmetric int8 quantization of the normalized matrix."""

    variant = "int8"

    def __init__(self, codes: np.ndarray, scales: np.ndarray):
        codes = np.ascontiguousarray(codes, dtype=np.int8)
        scales = np.ascontiguousarray(scales, dtype=np.float32)
        if codes.ndim != 2:
            raise ValueError(f"codes must be 2-D, got shape {codes.shape}")
        if scales.shape != (codes.shape[1],):
            raise ValueError(
                f"scales shape {scales.shape} does not match dim {codes.shape[1]}"
            )
        if np.any(scales <= 0):
            raise ValueError("scales must be strictly positive")
        self.codes = codes
        self.scales = scales

    @property
    def vocab_size(self) -> int:
        return self.codes.shape[0]

    @property
    def dim(self) -> int:
        return self.codes.shape[1]

    # -- build / round-trip ------------------------------------------------
    @classmethod
    def build(cls, store: EmbeddingStore) -> "Int8Store":
        """Quantize ``store.normalized()``; scales chosen so nothing clips."""
        normalized = store.normalized()
        peak = np.abs(normalized).max(axis=0)
        scales = np.where(peak > 0, peak, 1.0).astype(np.float32) / 127.0
        codes = np.clip(np.rint(normalized / scales), -127, 127).astype(np.int8)
        return cls(codes, scales)

    def decode(self, rows: np.ndarray | None = None) -> np.ndarray:
        """Reconstructed float32 rows (all rows when ``rows`` is None)."""
        codes = self.codes if rows is None else self.codes[rows]
        return codes.astype(np.float32) * self.scales

    def max_abs_error(self) -> np.ndarray:
        """Element-wise reconstruction-error bound per dimension: scale/2."""
        return self.scales / 2.0

    def reconstruction_bound(self) -> float:
        """Per-row L2 reconstruction-error bound: ``||scale/2||_2``."""
        return float(np.linalg.norm(self.max_abs_error()))

    # -- IVF scoring protocol ----------------------------------------------
    def prepare_query(self, q: np.ndarray) -> np.ndarray:
        """Fold the scales into the (normalized) query once per query."""
        return (q * self.scales).astype(np.float32)

    def score(self, code_rows: np.ndarray, ctx: np.ndarray) -> np.ndarray:
        return code_rows.astype(np.float32) @ ctx

    def memory_bytes(self) -> int:
        return int(self.codes.nbytes + self.scales.nbytes)

    # -- persistence -------------------------------------------------------
    def save(self, directory: str | Path) -> Path:
        """Write codes next to the saved store under ``directory``."""
        directory = Path(directory)
        meta = read_meta(directory)
        with open(directory / _INT8_NPZ, "wb") as handle:
            np.savez_compressed(handle, codes=self.codes, scales=self.scales)
        meta.setdefault("codes", {})["int8"] = {
            "file": _INT8_NPZ,
            "vocab_size": self.vocab_size,
            "dim": self.dim,
            "source": "normalized",
        }
        write_meta(directory, meta)
        return directory

    @classmethod
    def open(cls, directory: str | Path) -> "Int8Store":
        directory = Path(directory)
        meta = read_meta(directory)
        where = str(directory)
        section = _codes_meta(meta, "int8", directory)
        V = _variant_field(section, "int8", "vocab_size", int, where)
        dim = _variant_field(section, "int8", "dim", int, where)
        filename = _variant_field(section, "int8", "file", str, where)
        with np.load(directory / filename) as data:
            codes, scales = data["codes"], data["scales"]
        if codes.shape != (V, dim):
            raise ValueError(
                f"{where}: codes_int8 shape {codes.shape} does not match "
                f"meta.json codes.int8 ({V}, {dim})"
            )
        return cls(codes, scales)

    def __repr__(self) -> str:
        return f"Int8Store(vocab={self.vocab_size}, dim={self.dim})"


def open_codes(directory: str | Path, store: EmbeddingStore | None = None):
    """Load every code variant saved under ``directory``.

    Returns ``{variant: codes}``; when ``store`` is given, each variant's
    recorded shape is validated against it (errors name the field).
    """
    directory = Path(directory)
    meta = read_meta(directory)
    out: dict[str, object] = {}
    if "codes" not in meta:
        return out
    section = meta_field(meta, "codes", dict, where=str(directory))
    openers = {"int8": Int8Store.open}
    for variant in sorted(section):
        if variant not in openers:
            raise ValueError(
                f"{directory}: meta.json codes section names unknown "
                f"variant {variant!r} (known: {sorted(openers)})"
            )
        if store is not None:
            _check_store_shape(
                section[variant], variant, len(store), store.dim, str(directory)
            )
        out[variant] = openers[variant](directory)
    return out
