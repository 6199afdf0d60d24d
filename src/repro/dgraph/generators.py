"""Synthetic graph generator for tests, benchmarks, and examples.

:func:`power_law` returns ``(src, dst, num_nodes)`` directed edge arrays
and is deterministic in its seed.
"""

from __future__ import annotations

import numpy as np

from repro.util.rng import default_rng

__all__ = ["power_law"]


def power_law(
    num_nodes: int,
    num_edges: int,
    exponent: float = 1.1,
    seed: int | None = None,
) -> tuple[np.ndarray, np.ndarray, int]:
    """Skewed graph: uniform sources, Zipf-distributed destinations.

    Produces the hub structure that distinguishes partitioning policies
    (vertex cuts bound hub replication; edge cuts do not).
    """
    if num_nodes <= 0 or num_edges < 0:
        raise ValueError("invalid sizes")
    if exponent <= 0:
        raise ValueError(f"exponent must be positive, got {exponent}")
    rng = default_rng(seed)
    ranks = np.arange(1, num_nodes + 1, dtype=np.float64)
    p = ranks**-exponent
    p /= p.sum()
    src = rng.integers(0, num_nodes, num_edges)
    dst = rng.choice(num_nodes, size=num_edges, p=p)
    keep = src != dst
    return src[keep].astype(np.int64), dst[keep].astype(np.int64), num_nodes
