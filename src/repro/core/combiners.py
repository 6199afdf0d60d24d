"""Vectorized gradient combiners for Gluon's reduce phase.

During synchronization the master proxy of each node receives one delta per
contributing host and must reduce them to a single update.  Contributions
arrive host by host as ``(rows, deltas)`` pairs — ``rows`` indexes a compact
array of the nodes touched this round, ``deltas`` holds one ``dim``-vector
per row.  A combiner is therefore a small streaming state machine:

    state = combiner.create(num_rows, dim)
    state.accumulate(rows_host0, deltas_host0)
    state.accumulate(rows_host1, deltas_host1)
    combined = state.result()          # (num_rows, dim)

Rows never repeat *within* one contribution (a host reports each node once
per round); they do repeat across contributions — that is exactly the
conflict the combiner resolves.

Combiners provided (paper §3 and §5.3):

- :class:`SumCombiner` — Δ = Σ_h Δ_h (ALLREDUCE-sum; diverges for aligned
  gradients once the effective step exceeds the stable learning rate),
- :class:`AvgCombiner` — Δ = (1/H) Σ Δ_h over the H hosts (mini-batch
  averaging; a host that did not touch a row counts as zero),
- :class:`ModelCombiner` — the paper's combiner: fold each contribution in
  via projection onto the orthogonal complement of the running combination,
- :class:`KeepFirstCombiner` — baseline that drops all but the first
  contribution (what MC degenerates to when gradients are parallel).

The inductive fold is order-dependent: a row sees its contributions in the
order of the ``accumulate`` calls.  The fold kernel
(:meth:`repro.gluon.sync.GluonSynchronizer.fold`) rotates that order by its
``fold_offset`` each round (an ablation benchmark measures the effect).
Every combiner here is *row-wise* — a row's result depends only on that
row's own contributions and their order, never on which other rows share
an ``accumulate`` call — which is what lets the kernel fold all masters'
rows in one state, one call per source host.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Sequence

import numpy as np

__all__ = [
    "GradientCombiner",
    "CombineState",
    "SumCombiner",
    "AvgCombiner",
    "ModelCombiner",
    "KeepFirstCombiner",
    "get_combiner",
]

# Squared-norm threshold below which a running combination is treated as
# zero for projection purposes (see repro.core.projection._EPS_SQ).
_EPS_SQ = 1e-30


class CombineState(ABC):
    """Accumulates per-host contributions for one sync round.

    Contract: one :meth:`accumulate` call per host, in fold order, also for
    a host whose contribution is empty — AVG divides by the number of
    calls, so skipping an empty host would change its mean.
    """

    def __init__(self, num_rows: int, dim: int):
        if num_rows < 0 or dim <= 0:
            raise ValueError(f"invalid state shape ({num_rows}, {dim})")
        self.num_rows = int(num_rows)
        self.dim = int(dim)

    def _validate(self, rows: np.ndarray, deltas: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        rows = np.asarray(rows, dtype=np.int64)
        deltas = np.asarray(deltas, dtype=np.float64)
        if rows.ndim != 1:
            raise ValueError(f"rows must be 1-D, got shape {rows.shape}")
        if deltas.shape != (len(rows), self.dim):
            raise ValueError(
                f"deltas shape {deltas.shape} != ({len(rows)}, {self.dim})"
            )
        if rows.size:
            # Ascending rows (what the fold kernel sends) prove uniqueness
            # in one comparison and hold their extremes at the ends; only
            # unsorted callers pay for the reductions and the sort.
            ascending = bool((rows[1:] > rows[:-1]).all())
            lo, hi = (rows[0], rows[-1]) if ascending else (rows.min(), rows.max())
            if lo < 0 or hi >= self.num_rows:
                raise IndexError("row index out of range")
            if not ascending and len(np.unique(rows)) != len(rows):
                raise ValueError("duplicate rows within a single contribution")
        return rows, deltas

    @abstractmethod
    def accumulate(self, rows: np.ndarray, deltas: np.ndarray) -> None:
        """Fold in one host's contribution."""

    @abstractmethod
    def result(self) -> np.ndarray:
        """Combined update, shape ``(num_rows, dim)`` float64."""


class GradientCombiner(ABC):
    """Factory for :class:`CombineState`; stateless and reusable."""

    name: str = "abstract"

    @abstractmethod
    def create(self, num_rows: int, dim: int) -> CombineState:
        ...

    def combine_dense(self, gradients: Sequence[np.ndarray]) -> np.ndarray:
        """Convenience: combine a list of ``(dim,)`` or ``(n, dim)`` gradients.

        Every gradient contributes to every row (fully dense contributions).
        """
        grads = [np.atleast_2d(np.asarray(g, dtype=np.float64)) for g in gradients]
        if not grads:
            raise ValueError("need at least one gradient")
        n, dim = grads[0].shape
        state = self.create(n, dim)
        rows = np.arange(n, dtype=np.int64)
        for g in grads:
            if g.shape != (n, dim):
                raise ValueError(f"inconsistent gradient shape {g.shape}")
            state.accumulate(rows, g)
        out = state.result()
        return out[0] if n == 1 and np.asarray(gradients[0]).ndim == 1 else out


# --------------------------------------------------------------------------
# SUM
# --------------------------------------------------------------------------
class _SumState(CombineState):
    def __init__(self, num_rows: int, dim: int):
        super().__init__(num_rows, dim)
        self._acc = np.zeros((num_rows, dim), dtype=np.float64)

    def accumulate(self, rows: np.ndarray, deltas: np.ndarray) -> None:
        rows, deltas = self._validate(rows, deltas)
        self._acc[rows] += deltas

    def result(self) -> np.ndarray:
        return self._acc


class SumCombiner(GradientCombiner):
    name = "sum"

    def create(self, num_rows: int, dim: int) -> CombineState:
        return _SumState(num_rows, dim)


# --------------------------------------------------------------------------
# AVG
# --------------------------------------------------------------------------
class _AvgState(_SumState):
    def __init__(self, num_rows: int, dim: int):
        super().__init__(num_rows, dim)
        self._count = 0

    def accumulate(self, rows: np.ndarray, deltas: np.ndarray) -> None:
        super().accumulate(rows, deltas)
        self._count += 1

    def result(self) -> np.ndarray:
        return self._acc / max(self._count, 1)


class AvgCombiner(GradientCombiner):
    name = "avg"

    def create(self, num_rows: int, dim: int) -> CombineState:
        return _AvgState(num_rows, dim)


# --------------------------------------------------------------------------
# Model combiner (paper §3)
# --------------------------------------------------------------------------
class _ModelCombinerState(CombineState):
    def __init__(self, num_rows: int, dim: int):
        super().__init__(num_rows, dim)
        self._combined = np.zeros((num_rows, dim), dtype=np.float64)
        self._seen = np.zeros(num_rows, dtype=bool)
        # Scratch for the projection update, allocated on first use.
        self._buf: np.ndarray | None = None

    def accumulate(self, rows: np.ndarray, deltas: np.ndarray) -> None:
        rows, deltas = self._validate(rows, deltas)
        if rows.size == 0:
            return
        seen = self._seen[rows]
        if not seen.any():  # every row first-seen: no masked copies
            self._combined[rows] = deltas
            self._seen[rows] = True
            return
        lr, d = rows, deltas
        if not seen.all():
            first = ~seen
            fr = rows[first]
            self._combined[fr] = deltas[first]
            self._seen[fr] = True
            lr, d = rows[seen], deltas[seen]
        g = self._combined[lr]
        denom = np.einsum("ij,ij->i", g, g)
        dot = np.einsum("ij,ij->i", g, d)
        # Projection coefficient; zero where the running combination is
        # (numerically) zero so the contribution passes through unchanged.
        nonzero = denom > _EPS_SQ
        coeff = np.where(nonzero, dot / np.where(nonzero, denom, 1.0), 0.0)
        # g + (d - coeff * g), operation by operation through one buffer.
        if self._buf is None:
            self._buf = np.empty((self.num_rows, self.dim))
        buf = self._buf[: len(lr)]
        np.multiply(coeff[:, None], g, out=buf)
        np.subtract(d, buf, out=buf)
        np.add(g, buf, out=buf)
        self._combined[lr] = buf

    def result(self) -> np.ndarray:
        return self._combined


class ModelCombiner(GradientCombiner):
    """Projection-based combination honoring SGD's inter-step dependence."""

    name = "mc"

    def create(self, num_rows: int, dim: int) -> CombineState:
        return _ModelCombinerState(num_rows, dim)


# --------------------------------------------------------------------------
# Keep-first (diagnostic baseline)
# --------------------------------------------------------------------------
class _KeepFirstState(CombineState):
    def __init__(self, num_rows: int, dim: int):
        super().__init__(num_rows, dim)
        self._combined = np.zeros((num_rows, dim), dtype=np.float64)
        self._seen = np.zeros(num_rows, dtype=bool)

    def accumulate(self, rows: np.ndarray, deltas: np.ndarray) -> None:
        rows, deltas = self._validate(rows, deltas)
        first = ~self._seen[rows]
        fr = rows[first]
        self._combined[fr] = deltas[first]
        self._seen[fr] = True

    def result(self) -> np.ndarray:
        return self._combined


class KeepFirstCombiner(GradientCombiner):
    name = "keep_first"

    def create(self, num_rows: int, dim: int) -> CombineState:
        return _KeepFirstState(num_rows, dim)


_REGISTRY: dict[str, GradientCombiner] = {
    c.name: c for c in (SumCombiner(), AvgCombiner(), ModelCombiner(), KeepFirstCombiner())
}


def get_combiner(name: str) -> GradientCombiner:
    """Look up a combiner by its registry name (``sum``/``avg``/``mc``/``keep_first``)."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ValueError(
            f"unknown combiner {name!r}; available: {sorted(_REGISTRY)}"
        ) from None
