"""Multi-tenant traffic: who is asking, over which vocabulary, how skewed.

A :class:`TenantSpec` describes one tenant's traffic: its share of the
stream (``weight``), its popularity skew (``zipf_exponent``), the slice
of the vocabulary it queries (``vocab_start``/``vocab_stop`` fractions —
tenants in real embedding serving see disjoint or overlapping catalog
subsets), its QoS class, and an optional per-tenant top-``k`` override.

A :class:`TenantMix` interleaves tenants into one query stream:

- tenant **assignment** is a weighted seeded draw per query
  (``keyed_rng(seed, tenant domain)``), so the interleaving is a pure
  function of the seed and the mix — independent of arrival process,
  batching, and executor width;
- each tenant's **query ids** draw from a Zipf distribution over its own
  vocabulary slice through a per-tenant rng stream
  (``keyed_rng(seed, mix domain, tenant index)``), so adding a tenant
  never perturbs another tenant's stream.

Bit-compatibility contract: a single-tenant mix over the full vocabulary
reproduces the PR-4 ``generate_queries`` stream **bit-for-bit** — the
single tenant draws from ``keyed_rng(seed, mix domain)`` (no tenant-index
key), exactly the stream the legacy load generator used.
``repro.serve.loadgen.generate_queries`` now delegates here.
"""

from __future__ import annotations

from dataclasses import dataclass
import hashlib
import math

import numpy as np

from repro.serve.workload.fields import json_fields, json_list
from repro.util.checks import number, positive_finite
from repro.util.rng import Domain, keyed_rng

__all__ = [
    "QOS_CLASSES",
    "TenantSpec",
    "TenantMix",
    "zipf_probabilities",
]

#: QoS classes, strictest first.  The class is carried as metadata on
#: every query and surfaces in per-tenant reporting; SLO rules typically
#: pin ``gold`` tenants to tighter tails than ``batch`` tenants.
QOS_CLASSES = ("gold", "standard", "batch")


def zipf_probabilities(size: int, exponent: float) -> np.ndarray:
    """Zipf probabilities over ``size`` ranks (rank 1 most popular)."""
    if size <= 0:
        raise ValueError(f"size must be positive, got {size}")
    if exponent < 0:
        raise ValueError(f"exponent must be non-negative, got {exponent}")
    ranks = np.arange(1, size + 1, dtype=np.float64)
    weights = ranks**-exponent
    return weights / weights.sum()


@dataclass(frozen=True)
class TenantSpec:
    """One tenant's traffic profile."""

    name: str
    weight: float = 1.0
    zipf_exponent: float = 1.1
    vocab_start: float = 0.0
    vocab_stop: float = 1.0
    qos: str = "standard"
    k: int | None = None

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("tenant name must be non-empty")
        positive_finite(self.weight, "weight")
        if not (self.zipf_exponent >= 0 and math.isfinite(self.zipf_exponent)):
            raise ValueError(
                f"zipf_exponent must be non-negative and finite, got {self.zipf_exponent}"
            )
        if not 0.0 <= self.vocab_start < self.vocab_stop <= 1.0:
            raise ValueError(
                "vocab fractions must satisfy 0 <= start < stop <= 1, got "
                f"[{self.vocab_start}, {self.vocab_stop})"
            )
        if self.qos not in QOS_CLASSES:
            raise ValueError(
                f"qos must be one of {QOS_CLASSES}, got {self.qos!r}"
            )
        if self.k is not None and self.k <= 0:
            raise ValueError(f"k must be positive, got {self.k}")

    def vocab_slice(self, vocab_size: int) -> tuple[int, int]:
        """The ``[lo, hi)`` row range this tenant queries (never empty)."""
        if vocab_size <= 0:
            raise ValueError(f"vocab_size must be positive, got {vocab_size}")
        lo = min(int(math.floor(self.vocab_start * vocab_size)), vocab_size - 1)
        hi = min(int(math.ceil(self.vocab_stop * vocab_size)), vocab_size)
        return lo, max(hi, lo + 1)

    def as_dict(self) -> dict:
        out = {
            "name": self.name,
            "weight": self.weight,
            "zipf_exponent": self.zipf_exponent,
            "vocab": [self.vocab_start, self.vocab_stop],
            "qos": self.qos,
        }
        if self.k is not None:
            out["k"] = self.k
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "TenantSpec":
        spec = json_fields(cls, data, "tenants entry")
        vocab = spec.pop("vocab", None)
        if vocab is not None:
            vocab = json_list(vocab, "tenants entry field 'vocab'")
            if len(vocab) != 2:
                raise ValueError(f"vocab must be [start, stop], got {vocab}")
            spec["vocab_start"], spec["vocab_stop"] = (
                float(number(bound, "tenants entry field 'vocab'")) for bound in vocab
            )
        try:
            return cls(**spec)
        except TypeError as exc:
            raise ValueError(f"bad tenant spec: {exc}") from None


@dataclass(frozen=True)
class TenantMix:
    """A weighted set of tenants sharing one query stream."""

    tenants: tuple[TenantSpec, ...]

    def __post_init__(self) -> None:
        if not self.tenants:
            raise ValueError("TenantMix needs at least one tenant")
        names = [tenant.name for tenant in self.tenants]
        if len(set(names)) != len(names):
            raise ValueError(f"tenant names must be unique, got {names}")

    def __len__(self) -> int:
        return len(self.tenants)

    @property
    def names(self) -> list[str]:
        return [tenant.name for tenant in self.tenants]

    @classmethod
    def single(cls, zipf_exponent: float = 1.1, name: str = "default") -> "TenantMix":
        """The degenerate one-tenant mix (the legacy single-stream load)."""
        return cls((TenantSpec(name, zipf_exponent=zipf_exponent),))

    def assignments(self, n: int, seed: int) -> np.ndarray:
        """Tenant index per query — a weighted seeded draw."""
        if n < 0:
            raise ValueError(f"n must be non-negative, got {n}")
        if len(self.tenants) == 1:
            return np.zeros(n, dtype=np.int64)
        weights = np.asarray([t.weight for t in self.tenants], dtype=np.float64)
        rng = keyed_rng(seed, Domain.TENANT)
        return rng.choice(
            len(self.tenants), size=n, p=weights / weights.sum()
        ).astype(np.int64)

    def query_stream(
        self, vocab_size: int, n: int, seed: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """The interleaved stream: ``(tenant index, query row id)`` per query.

        Per-tenant streams are independent (per-tenant rng keys), and a
        single-tenant full-vocabulary mix reproduces the legacy
        ``generate_queries`` stream bit-for-bit.
        """
        if vocab_size <= 0:
            raise ValueError(f"vocab_size must be positive, got {vocab_size}")
        tenant_idx = self.assignments(n, seed)
        ids = np.zeros(n, dtype=np.int64)
        single = len(self.tenants) == 1
        for index, tenant in enumerate(self.tenants):
            mask = tenant_idx == index
            count = int(mask.sum())
            if count == 0:
                continue
            lo, hi = tenant.vocab_slice(vocab_size)
            rng = (
                keyed_rng(seed, Domain.MIX)
                if single
                else keyed_rng(seed, Domain.MIX, index)
            )
            probabilities = zipf_probabilities(hi - lo, tenant.zipf_exponent)
            ids[mask] = lo + rng.choice(hi - lo, size=count, p=probabilities)
        return tenant_idx, ids

    def stream_sha256(self, tenant_idx: np.ndarray, ids: np.ndarray) -> str:
        """A fingerprint of the interleaved stream (pins the modeled mix)."""
        digest = hashlib.sha256()
        for tenant in self.tenants:
            digest.update(tenant.name.encode())
            digest.update(b"\x00")
        digest.update(np.ascontiguousarray(tenant_idx, dtype=np.int64).tobytes())
        digest.update(np.ascontiguousarray(ids, dtype=np.int64).tobytes())
        return digest.hexdigest()

    def as_dict(self) -> list[dict]:
        return [tenant.as_dict() for tenant in self.tenants]

    @classmethod
    def from_dict(cls, data: list[dict]) -> "TenantMix":
        entries = json_list(data, "tenants")
        if not entries:
            raise ValueError("tenants must list at least one tenant")
        return cls(tuple(TenantSpec.from_dict(entry) for entry in entries))
