"""Deterministic random-number management.

Every stochastic component in the library (corpus generation, negative
sampling, window sampling, model initialization, partitioning) draws from a
:class:`numpy.random.Generator` handed to it explicitly.  Distributed
components need *independent but reproducible* streams per host; we derive
them from a single root seed with ``numpy``'s ``SeedSequence`` spawning, so a
run is a pure function of its root seed regardless of host count or
scheduling order.

Keyed streams (:func:`keyed_rng`, :func:`derive_seed`) name their purpose
with a constant *stream tag* in the key, ``keyed_rng(seed, Domain.TENANT)``.
Every constant tag lives in :class:`Domain`, one ``@enum.unique`` table:
two purposes sharing a tag would draw bit-identical "independent" streams,
and the enum makes that an import-time ``ValueError`` instead of a silent
correlation.  A new constant stream tag is added there, never as a literal
or a module constant at the call site.  Members are ``int``s, so
``keyed_rng(7, Domain.IVF) == keyed_rng(7, 0x495646)`` bit for bit.
"""

from __future__ import annotations

import enum

import numpy as np

__all__ = [
    "Domain",
    "default_rng",
    "derive_seed",
    "keyed_rng",
    "SeedSequenceTree",
    "hash64",
]


@enum.unique
class Domain(enum.IntEnum):
    """The constant stream tags passed to :func:`keyed_rng` / :func:`derive_seed`."""

    FAULT_SCHEDULE = 0xFA017  # crash/straggler realization, message-fault seed
    MESSAGE_FAULTS = 0xD20B  # per-message drop/corrupt draws
    ARRIVAL = 0x415256  # "ARV": workload arrival times
    CLUSTER = 0x434C53  # "CLS": synthetic clustered serving matrix
    TENANT = 0x544E54  # "TNT": tenant interleaving
    MIX = 0x51524D  # "QRM": per-tenant query mix
    IVF = 0x495646  # "IVF": k-means seeding of the IVF index
    RECALL = 0x524340  # "RC@": rows recall is measured on

# Default root seed used across examples/benchmarks so results are stable.
DEFAULT_SEED = 0x5EED_C0DE


def default_rng(seed: int | None = None) -> np.random.Generator:
    """Return a PCG64 generator seeded with ``seed`` (library default if None)."""
    return np.random.default_rng(DEFAULT_SEED if seed is None else seed)


def derive_seed(*key: int) -> int:
    """Mix an integer key tuple into one stable 64-bit seed.

    The derivation is ``SeedSequence`` entropy mixing, so distinct key tuples
    yield statistically independent seeds and the same tuple always yields
    the same seed.  This is the sanctioned way for components outside this
    module to derive sub-seeds (the ``repro.analysis`` linter flags direct
    ``np.random.SeedSequence`` use elsewhere).
    """
    material = np.random.SeedSequence(tuple(int(k) for k in key))
    return int(material.generate_state(1, dtype=np.uint64)[0])


def keyed_rng(*key: int) -> np.random.Generator:
    """A PCG64 generator for an integer key tuple (see :func:`derive_seed`)."""
    return np.random.default_rng(
        np.random.SeedSequence(tuple(int(k) for k in key))
    )


class SeedSequenceTree:
    """Hierarchical, named seed derivation.

    ``tree.child("hosts", 3)`` always yields the same seed material for the
    same (name, index) pair, letting e.g. host 3's negative-sampling stream be
    reproducible independently of how many other streams were created.
    """

    def __init__(self, seed: int):
        self._seed = int(seed)

    @property
    def seed(self) -> int:
        return self._seed

    def child(self, name: str, index: int = 0) -> np.random.Generator:
        """Generator for the ``(name, index)`` slot under this tree."""
        key = (self._seed, hash64(name), int(index))
        return np.random.default_rng(np.random.SeedSequence(key))

    def subtree(self, name: str, index: int = 0) -> "SeedSequenceTree":
        """A derived tree; children of distinct subtrees never collide."""
        mixed = np.random.SeedSequence(
            (self._seed, hash64(name), int(index))
        ).generate_state(1, dtype=np.uint64)[0]
        return SeedSequenceTree(int(mixed))

    def children(self, name: str, n: int) -> list[np.random.Generator]:
        return [self.child(name, i) for i in range(n)]


def hash64(text: str) -> int:
    """Stable 64-bit FNV-1a hash of ``text``.

    Used both for seed derivation and for the word -> node-id hash mapping in
    the vocabulary (the paper hashes vocabulary strings to node ids with the
    same function on all hosts).  Python's built-in ``hash`` is salted per
    process, so it cannot be used for cross-host agreement.
    """
    h = 0xCBF29CE484222325
    for byte in text.encode("utf-8"):
        h ^= byte
        h = (h * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    return h
