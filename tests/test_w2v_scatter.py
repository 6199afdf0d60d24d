"""Properties of the one accumulation primitive (``repro.w2v.scatter``).

The reference is the loop it replaced: ``np.add.at`` / ``np.subtract.at`` in
float64.  The tolerance follows from the dtype: float32 sums of up to a few
hundred terms against a float64 reference.
"""

import ast
import importlib
import os
from pathlib import Path
import subprocess
import sys

from hypothesis import given, settings, strategies as st
import numpy as np
import pytest
from scipy.sparse import csc_matrix

import repro
from repro.galois.do_all import ThreadPoolDoAll, do_all
from repro.w2v import scatter
from repro.w2v.scatter import scatter_sub, sparse_update
from repro.w2v.sgd import TrainingBatch, sgns_update

SRC = Path(repro.__file__).resolve().parent


def reference_update(out, targets, g, x):
    """float64 ``out[targets[b, l]] -= g[b, l] * x[b]`` by ``ufunc.at``."""
    expected = out.astype(np.float64)
    outer = g.astype(np.float64)[:, :, None] * x.astype(np.float64)[:, None, :]
    np.subtract.at(expected, targets.ravel(), outer.reshape(-1, out.shape[1]))
    return expected


def close_to(actual, expected, scale):
    # rtol on the row's magnitude: a sum that cancels is only as exact as
    # its largest term.
    return np.allclose(actual, expected, rtol=1e-5, atol=1e-5 * scale)


@st.composite
def slices(draw):
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    V = draw(st.integers(1, 40))
    B = draw(st.integers(0, 48))
    L = draw(st.integers(1, 6))
    D = draw(st.integers(1, 9))
    out = rng.normal(size=(V, D)).astype(np.float32)
    targets = rng.integers(0, V, size=(B, L))
    g = rng.normal(size=(B, L)).astype(np.float32)
    x = rng.normal(size=(B, D)).astype(np.float32)
    return out, targets, g, x


@settings(max_examples=60, deadline=None)
@given(slices())
def test_sparse_update_matches_float64_reference(case):
    out, targets, g, x = case
    expected = reference_update(out, targets, g, x)
    sparse_update(out, targets, g, x)
    assert out.dtype == np.float32
    scale = 1.0 + np.abs(g).sum() * (np.abs(x).max() if x.size else 0.0)
    assert close_to(out, expected, scale)


@settings(max_examples=60, deadline=None)
@given(slices())
def test_scatter_sub_matches_float64_reference(case):
    out, targets, _g, _x = case
    ids = targets[:, 0]
    rows = np.random.default_rng(len(ids)).normal(size=(len(ids), out.shape[1]))
    rows = rows.astype(np.float32)
    expected = out.astype(np.float64)
    np.subtract.at(expected, ids, rows.astype(np.float64))
    scatter_sub(out, ids, rows)
    assert close_to(out, expected, 1.0 + np.abs(rows).sum())


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_unique_ids_are_bit_equal_to_fancy_assignment(seed):
    rng = np.random.default_rng(seed)
    V, B, L, D = 64, 8, 3, 5
    out = rng.normal(size=(V, D)).astype(np.float32)
    targets = rng.permutation(V)[: B * L].reshape(B, L)
    g = rng.normal(size=(B, L)).astype(np.float32)
    x = rng.normal(size=(B, D)).astype(np.float32)
    expected = out.copy()
    expected[targets.ravel()] -= (g[:, :, None] * x[:, None, :]).reshape(-1, D)
    sparse_update(out, targets, g, x)
    assert np.array_equal(out, expected)

    dest = rng.normal(size=(V, D)).astype(np.float32)
    plain = dest.copy()
    plain[targets[:, 0]] -= x
    scatter_sub(dest, targets[:, 0], x)
    assert np.array_equal(dest, plain)


@settings(max_examples=40, deadline=None)
@given(slices())
def test_bit_equal_to_the_public_scipy_product(case):
    """The routine the module calls directly is ``csc_matrix @ dense``."""
    out, targets, g, x = case
    B, L = targets.shape
    u, columns = np.unique(targets.ravel(), return_inverse=True)
    transposed = csc_matrix(
        (g.ravel(), columns.ravel(), np.arange(0, B * L + 1, L)), shape=(len(u), B)
    )
    expected = out.copy()
    expected[u] -= transposed @ x
    sparse_update(out, targets, g, x)
    assert np.array_equal(out, expected)


def test_public_product_fallback_when_the_private_routine_is_gone(monkeypatch):
    """A SciPy without ``_sparsetools.csc_matvecs`` still imports the
    module; ``_row_sums`` then takes the public ``csc_matrix @ dense``
    product, bit-equal to the direct call."""
    rng = np.random.default_rng(5)
    cases = [
        (rng.normal(size=(V, 6)).astype(dtype), rng.integers(0, V, size=(B, L)),
         rng.normal(size=(B, L)), rng.normal(size=(B, 6)))
        for V, B, L, dtype in [(30, 64, 5, np.float32), (7, 200, 3, np.float64), (5, 1, 1, np.float32)]
    ]
    direct = [out.copy() for out, *_ in cases]
    for dest, (_, targets, g, x) in zip(direct, cases):
        scatter.sparse_update(dest, targets, g, x)
    monkeypatch.setitem(sys.modules, "scipy.sparse._sparsetools", None)
    try:
        fallback = importlib.reload(scatter)
        assert fallback.csc_matvecs is None
        for want, (out, targets, g, x) in zip(direct, cases):
            fallback.sparse_update(out, targets, g, x)
            assert out.tobytes() == want.tobytes()
    finally:
        monkeypatch.undo()
        importlib.reload(scatter)
    assert scatter.csc_matvecs is not None


def test_untouched_rows_are_bitwise_untouched():
    rng = np.random.default_rng(0)
    out = rng.normal(size=(30, 4)).astype(np.float32)
    out[7] = [np.nan, np.inf, -0.0, 1e-42]  # bit patterns arithmetic would alter
    before = out.copy()
    targets = rng.integers(10, 20, size=(16, 3))
    sparse_update(out, targets, rng.normal(size=(16, 3)), rng.normal(size=(16, 4)))
    untouched = np.setdiff1d(np.arange(30), targets)
    assert out[untouched].tobytes() == before[untouched].tobytes()
    assert not np.array_equal(out[np.unique(targets)], before[np.unique(targets)])


def test_degenerate_slices():
    out = np.arange(12, dtype=np.float32).reshape(4, 3)
    before = out.copy()
    # Empty slice.
    sparse_update(out, np.empty((0, 2), np.int64), np.empty((0, 2)), np.empty((0, 3)))
    scatter_sub(out, np.empty(0, np.int64), np.empty((0, 3), np.float32))
    # No targets per example (L = 0): a no-op, as ``ufunc.at`` was.
    sparse_update(out, np.empty((5, 0), np.int64), np.empty((5, 0)), np.ones((5, 3)))
    assert np.array_equal(out, before)
    # L = 1 is scatter_sub with weights.
    weighted, plain = before.copy(), before.copy()
    x = np.ones((5, 3), np.float32)
    ids = np.array([1, 1, 3, 1, 0])
    sparse_update(weighted, ids[:, None], np.full((5, 1), 2.0), x)
    scatter_sub(plain, ids, 2.0 * x)
    assert np.array_equal(weighted, plain)
    # Every pair hits one row.
    single = before.copy()
    sparse_update(single, np.full((64, 4), 2), np.full((64, 4), 0.5), np.ones((64, 3)))
    assert np.array_equal(single[2], before[2] - 128.0)
    assert np.array_equal(single[[0, 1, 3]], before[[0, 1, 3]])


def test_k_zero_and_fully_masked_negatives_leave_their_rows_alone():
    rng = np.random.default_rng(3)
    emb = rng.normal(size=(8, 4)).astype(np.float32)
    trn = rng.normal(size=(8, 4)).astype(np.float32)
    inputs, outputs = np.array([0, 1, 0]), np.array([2, 2, 3])
    no_negatives = TrainingBatch(
        inputs, outputs, np.empty((3, 0), np.int64), np.empty((3, 0), bool)
    )
    masked = TrainingBatch(
        inputs, outputs, np.full((3, 2), 5), np.zeros((3, 2), bool)
    )
    results = []
    for batch in (no_negatives, masked):
        e, t = emb.copy(), trn.copy()
        sgns_update(e, t, batch, 0.1)
        assert t[5].tobytes() == trn[5].tobytes()
        results.append((e, t))
    # Masked negatives carry zero gradient: the step equals the K=0 step.
    assert np.array_equal(results[0][0], results[1][0])
    assert np.array_equal(results[0][1], results[1][1])


def test_column_view_destination_and_dtype():
    rng = np.random.default_rng(5)
    full = rng.normal(size=(20, 10)).astype(np.float32)
    before = full.copy()
    view = full[:, 3:7]  # strided: a vertical partition's column slice
    assert not view.flags.c_contiguous
    targets = rng.integers(0, 20, size=(12, 4))
    g = rng.normal(size=(12, 4))  # float64 in, float32 destination
    x = rng.normal(size=(12, 4))
    expected = reference_update(before[:, 3:7], targets, g, x)
    sparse_update(view, targets, g, x)
    assert full.dtype == np.float32
    assert close_to(full[:, 3:7], expected, 1.0 + np.abs(g).sum() * np.abs(x).max())
    assert np.array_equal(full[:, :3], before[:, :3])
    assert np.array_equal(full[:, 7:], before[:, 7:])


def _replay(case):
    out, targets, g, x = case
    dest = out.copy()
    sparse_update(dest, targets, g, x)
    scatter_sub(dest, targets[:, 0], x)
    return dest.tobytes()


def test_equal_inputs_give_identical_bits_serially_and_under_the_pool():
    rng = np.random.default_rng(11)
    cases = []
    for _ in range(8):
        V, B, L, D = 50, 256, 11, 16
        cases.append((
            rng.normal(size=(V, D)).astype(np.float32),
            rng.integers(0, V, size=(B, L)),
            rng.normal(size=(B, L)).astype(np.float32),
            rng.normal(size=(B, D)).astype(np.float32),
        ))
    serial = [_replay(case) for case in cases]
    assert serial == [_replay(case) for case in cases]

    # Each case three times, concurrently: no scratch is shared between calls.
    jobs = [i % len(cases) for i in range(3 * len(cases))]
    pooled: list = [None] * len(jobs)

    def operator(job: int) -> None:
        pooled[job] = _replay(cases[jobs[job]])

    with ThreadPoolDoAll(workers=4, chunk_size=1) as pool:
        do_all(range(len(jobs)), operator, executor=pool)
    assert pooled == [serial[i] for i in jobs]


def _ufunc_at_calls(path: Path) -> list[str]:
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "at"
        ):
            found.append(f"{path.name}:{node.lineno}")
    return found


def test_no_ufunc_at_left_in_the_kernels():
    files = sorted((SRC / "w2v").glob("*.py")) + [SRC / "baselines" / "vertical.py"]
    assert len(files) > 8
    assert [call for path in files for call in _ufunc_at_calls(path)] == []


def test_import_repro_leaves_scipy_stats_unloaded():
    code = (
        "import sys, repro; loaded = lambda: ('scipy.stats' in sys.modules, "
        "'scipy.sparse' in sys.modules); print(*loaded()); "
        "from repro import GraphWord2Vec; print(*loaded())"
    )
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": str(SRC.parent)},
    )
    assert done.returncode == 0, done.stderr
    # ``import repro`` loads no subpackage.  The scatter primitive's one
    # dependency is loaded with the trainer, not in a timed unit; scipy.stats
    # (0.4 s) waits for the two functions that use it.
    assert done.stdout.split() == ["False", "False", "False", "True"]


@pytest.mark.parametrize("bad", [4, -1])
def test_bad_ids_fail_at_the_boundary(bad):
    """Out-of-range ids raise before anything is written; negative ids do
    not alias a row from the end."""
    out = np.zeros((4, 2), np.float32)
    with pytest.raises(IndexError):
        scatter_sub(out, np.array([0, bad]), np.ones((2, 2), np.float32))
    assert not out.any()
