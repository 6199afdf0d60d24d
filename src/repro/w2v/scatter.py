"""Duplicate-row gradient accumulation as one sparse-times-dense product.

A Hogwild slice pairs every example vector ``X[b]`` with ``L`` output rows
``targets[b, :]`` and scaled gradients ``g[b, :]``.  With ``u`` the slice's
unique rows and ``G`` the ``(B, U)`` sparse matrix holding ``g[b, l]`` in
the column of ``targets[b, l]``, the output-layer update is

    Out[u] −= Gᵀ · X        (U, D)

so neither the ``(B, L, D)`` outer product nor a ``ufunc.at`` is needed,
and the input-side update ``In[ids[b]] −= grad[b]`` is the same product
with ``L = 1`` and unit weights.  (The input gradient ``g · Out[targets]``
is a dense batched ``matmul`` over the rows the kernel has already gathered
for its scores.)  Every training kernel — :mod:`repro.w2v.sgd`,
:mod:`repro.w2v.cbow`, :mod:`repro.w2v.hs`,
:mod:`repro.baselines.vertical` — accumulates through this module and
nowhere else.

Summation-order contract: a destination row receives ``dest − (r₁ + r₂ +
…)``, the contributions summed in slice order in the destination's dtype,
where ``ufunc.at`` computed ``((dest − r₁) − r₂) − …``.  The two differ in
the last float bits for rows hit more than once and are equal bit for bit
when every id is distinct.  A call is a pure function of its arguments (no
module state; scratch is per call) and rows outside ``ids`` are never
written.
"""

from __future__ import annotations

import numpy as np

# The routine behind ``csc_matrix((data, indices, indptr), shape=(U, B)) @ x``,
# called the way ``scipy.sparse`` calls it.  The public classes cost ~27 us per
# product in validation and dispatch: a fifth of a 256-pair slice and more
# than all of a 5-pair one (the word2vec.c reference trains one center word
# per call), and every argument is built below, so validation finds nothing.
# The routine is private: ``pyproject.toml`` bounds SciPy to releases whose
# ``_mul_multivector`` makes this exact call, and CI holds it to the public
# product's bits (``tests/test_w2v_scatter.py``) at both ends of the range.
# A SciPy that moves it costs the public product's dispatch, not the import.
try:
    from scipy.sparse._sparsetools import csc_matvecs
except ImportError:
    csc_matvecs = None
from scipy.sparse import csc_matrix

__all__ = ["sparse_update", "scatter_sub"]


def _sorted_unique(ids: np.ndarray, num_rows: int) -> np.ndarray:
    """``np.unique(ids)`` for ids in ``[0, num_rows)``: a row mark, O(n + V)."""
    mark = np.zeros(num_rows, dtype=bool)
    mark[ids] = True
    return np.flatnonzero(mark)


def _row_sums(
    num_rows: int, ids: np.ndarray, weights: np.ndarray, x: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Sorted unique ``u`` of ``ids`` (B, L) and ``Gᵀ · x`` (U, D) on them.

    ``ids`` index a destination of ``num_rows`` rows; ``weights`` (B, L) and
    ``x`` (B, D) share one dtype.  Unique rows come from one sort and their
    positions from a ``num_rows`` lookup table — ``np.unique(...,
    return_inverse=True)`` at half its cost.  An id outside ``[0,
    num_rows)`` raises ``IndexError`` here, before anything is written
    (negative ids do not wrap as they would in plain indexing).
    """
    B, L = ids.shape
    flat = ids.ravel()
    if flat.size == 0:
        return np.empty(0, dtype=np.int64), np.empty((0, x.shape[1]), dtype=x.dtype)
    ordered = np.sort(flat)
    if ordered[0] < 0 or ordered[-1] >= num_rows:
        raise IndexError(f"row ids must lie in [0, {num_rows}), got {ordered[0]}..{ordered[-1]}")
    first = np.ones(len(ordered), dtype=bool)
    np.not_equal(ordered[1:], ordered[:-1], out=first[1:])
    u = ordered[first]
    position = np.empty(num_rows, dtype=np.int32)
    position[u] = np.arange(len(u), dtype=np.int32)
    # Gᵀ in CSC form: column b holds weights[b, :] at the rows position[ids[b, :]].
    indptr = np.arange(0, B * L + 1, L, dtype=np.int32)
    if csc_matvecs is None:
        return u, csc_matrix((weights.ravel(), position[flat], indptr), shape=(len(u), B)) @ x
    sums = np.zeros((len(u), x.shape[1]), dtype=x.dtype)
    csc_matvecs(
        len(u), B, x.shape[1], indptr, position[flat], weights.ravel(), x.ravel(), sums.ravel()
    )
    return u, sums


def sparse_update(out: np.ndarray, targets: np.ndarray, g: np.ndarray, x: np.ndarray) -> None:
    """``out[targets[b, l]] -= g[b, l] * x[b]`` where duplicate rows accumulate.

    ``out`` may be a strided view; ``g`` and ``x`` are used in its dtype.
    """
    dtype = out.dtype
    u, sums = _row_sums(len(out), targets, g.astype(dtype, copy=False), x.astype(dtype, copy=False))
    out[u] -= sums


def scatter_sub(dest: np.ndarray, ids: np.ndarray, rows: np.ndarray) -> None:
    """``dest[ids] -= rows`` where duplicate ids accumulate."""
    sparse_update(dest, ids[:, None], np.ones((len(ids), 1), dtype=dest.dtype), rows)
