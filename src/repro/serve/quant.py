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

Persistence: ``save(path)`` writes one ``int8`` artifact
(:mod:`repro.util.artifact`) holding the codes, the scales and the content
sha256 of the store they were built from; ``open(path, store=...)`` refuses
codes built from any other store, and every damaged or mismatched file is a
``ValueError`` naming the field.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from repro.serve.store import EmbeddingStore
from repro.util import artifact

__all__ = ["Int8Store"]


class Int8Store:
    """Per-dimension symmetric int8 quantization of the normalized matrix."""

    def __init__(self, codes: np.ndarray, scales: np.ndarray, store_sha256: str):
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
        #: :meth:`EmbeddingStore.content_sha256` of the source store.
        self.store_sha256 = store_sha256

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
        return cls(codes, scales, store.content_sha256())

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
    def save(self, path: str | Path) -> Path:
        """Atomically write the codes to the file ``path``; returns it."""
        artifact.write(
            path,
            "int8",
            {"store_sha256": self.store_sha256},
            {"codes": self.codes, "scales": self.scales},
        )
        return Path(path)

    @classmethod
    def open(cls, path: str | Path, store: EmbeddingStore | None = None) -> "Int8Store":
        """Load saved codes; with ``store``, require they were built from it."""
        fields, arrays, _ = artifact.read(path, "int8")
        recorded = fields["store_sha256"]
        if store is not None and recorded != store.content_sha256():
            raise ValueError(
                f"{path}: int8 artifact field 'fields.store_sha256' is "
                f"{recorded[:16]}..., but the store's content sha256 is "
                f"{store.content_sha256()[:16]}...: the codes were built "
                "from another store"
            )
        return cls(arrays["codes"], arrays["scales"], recorded)

    def __repr__(self) -> str:
        return f"Int8Store(vocab={self.vocab_size}, dim={self.dim})"

