"""Master/mirror proxy helpers.

In Gluon every partition holds *proxies* for the nodes incident to its edges;
exactly one proxy per node (across all hosts) is the master, holding the
canonical value.  Master assignment here is the contiguous block distribution
the paper uses for GraphWord2Vec ("P1 has the master proxies for the first
contiguous chunk of the nodes, P2 the second, ...", Fig. 4).
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "block_boundaries",
    "block_owner_array",
    "master_block_slice",
]


def block_boundaries(num_nodes: int, num_hosts: int) -> np.ndarray:
    """Start offsets of each host's contiguous master block; length H+1.

    The first ``num_nodes % num_hosts`` blocks get one extra node, so blocks
    differ in size by at most one.
    """
    if num_hosts <= 0:
        raise ValueError(f"num_hosts must be positive, got {num_hosts}")
    if num_nodes < 0:
        raise ValueError(f"num_nodes must be non-negative, got {num_nodes}")
    base, extra = divmod(num_nodes, num_hosts)
    sizes = np.full(num_hosts, base, dtype=np.int64)
    sizes[:extra] += 1
    bounds = np.zeros(num_hosts + 1, dtype=np.int64)
    np.cumsum(sizes, out=bounds[1:])
    return bounds


def block_owner_array(nodes: np.ndarray, bounds: np.ndarray) -> np.ndarray:
    """Host whose master block contains each global node id of ``nodes``."""
    nodes = np.asarray(nodes, dtype=np.int64)
    if nodes.size and (nodes.min() < 0 or nodes.max() >= bounds[-1]):
        raise IndexError("node id out of range")
    return (np.searchsorted(bounds, nodes, side="right") - 1).astype(np.int64)


def master_block_slice(bounds: np.ndarray, host: int) -> slice:
    """Global-id slice of ``host``'s contiguous master block."""
    if not 0 <= host < len(bounds) - 1:
        raise ValueError(f"host {host} out of range [0, {len(bounds) - 1})")
    return slice(int(bounds[host]), int(bounds[host + 1]))
