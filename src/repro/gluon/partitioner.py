"""CuSP-style graph partitioning (Hoang et al., IPDPS'19).

Distributed graph systems first partition the *edges* among hosts; each host
then materializes proxies for the endpoints of its edges.  CuSP expresses
partitioning policies as two assignments: master-of-node and owner-of-edge.
We implement the three classic policies evaluated in the D-Galois papers plus
the customized policy GraphWord2Vec uses:

- ``oec`` (outgoing edge cut): edge owned by its source's master host,
- ``iec`` (incoming edge cut): edge owned by its destination's master host,
- ``cvc`` (Cartesian vertex cut): hosts in a pr x pc grid; edge (u, v) goes
  to the host at (row of u's master, column of v's master),
- :func:`replicate_all_partitions`: every host has a proxy for every node
  (the paper modified Gluon this way because Word2Vec generates edges on the
  fly between arbitrary node pairs — §4.2).

Masters are always the contiguous block distribution of
:mod:`repro.gluon.proxies`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
import numpy as np

from repro.gluon.proxies import block_boundaries, block_owner_array

__all__ = [
    "Partition",
    "contiguous_partitions",
    "partition_edges",
    "replicate_all_partitions",
]


@dataclass
class Partition:
    """One host's share of a distributed graph.

    ``local_to_global`` enumerates the proxies present on this host (masters
    first, then mirrors, each sorted by global id).  ``edges_local`` holds
    this host's edges in local ids; label arrays in :mod:`repro.dgraph` are
    indexed by local id.
    """

    host: int
    num_hosts: int
    num_global_nodes: int
    local_to_global: np.ndarray
    master_bounds: np.ndarray  # shared block boundaries, length H+1
    edges_local: tuple[np.ndarray, np.ndarray]  # (src, dst) local ids
    edge_data: np.ndarray | None = None
    _global_to_local: dict[int, int] = field(default_factory=dict, repr=False)

    def __post_init__(self) -> None:
        self.local_to_global = np.asarray(self.local_to_global, dtype=np.int64)
        if len(np.unique(self.local_to_global)) != len(self.local_to_global):
            raise ValueError("duplicate proxies in partition")
        self._global_to_local = {
            int(g): i for i, g in enumerate(self.local_to_global)
        }

    # -- proxy queries ------------------------------------------------------
    @property
    def num_local(self) -> int:
        return len(self.local_to_global)

    def master_host_of(self, global_ids: np.ndarray) -> np.ndarray:
        return block_owner_array(global_ids, self.master_bounds)

    def to_local(self, global_id: int) -> int:
        try:
            return self._global_to_local[int(global_id)]
        except KeyError:
            raise KeyError(
                f"global node {global_id} has no proxy on host {self.host}"
            ) from None

    def to_local_array(self, global_ids: np.ndarray) -> np.ndarray:
        return np.fromiter(
            (self._global_to_local[int(g)] for g in np.asarray(global_ids)),
            dtype=np.int64,
            count=len(global_ids),
        )

    def has_proxy(self, global_id: int) -> bool:
        return int(global_id) in self._global_to_local

    def is_master_local(self) -> np.ndarray:
        """Boolean mask over local ids: proxy is the master."""
        owners = self.master_host_of(self.local_to_global)
        return owners == self.host

    def masters_local(self) -> np.ndarray:
        return np.nonzero(self.is_master_local())[0].astype(np.int64)

    def mirrors_local(self) -> np.ndarray:
        return np.nonzero(~self.is_master_local())[0].astype(np.int64)

    def master_block_global(self) -> np.ndarray:
        """Global ids whose master lives on this host."""
        lo, hi = self.master_bounds[self.host], self.master_bounds[self.host + 1]
        return np.arange(lo, hi, dtype=np.int64)


def _grid_shape(num_hosts: int) -> tuple[int, int]:
    """Most-square pr x pc factorization with pr <= pc (CVC convention)."""
    pr = int(np.sqrt(num_hosts))
    while num_hosts % pr != 0:
        pr -= 1
    return pr, num_hosts // pr


def partition_edges(
    src: np.ndarray,
    dst: np.ndarray,
    num_nodes: int,
    num_hosts: int,
    policy: str = "oec",
    edge_data: np.ndarray | None = None,
) -> list[Partition]:
    """Partition the edge list among ``num_hosts`` hosts under ``policy``.

    Every edge is assigned to exactly one host; every endpoint of a host's
    edges gets a proxy there; masters additionally get a proxy on their block
    owner even if no local edge touches them (so label state always has a
    canonical home).
    """
    src = np.asarray(src, dtype=np.int64)
    dst = np.asarray(dst, dtype=np.int64)
    if src.shape != dst.shape:
        raise ValueError(f"src/dst shape mismatch: {src.shape} vs {dst.shape}")
    if src.size and (min(src.min(), dst.min()) < 0 or max(src.max(), dst.max()) >= num_nodes):
        raise ValueError("edge endpoint out of range")
    bounds = block_boundaries(num_nodes, num_hosts)

    if policy == "oec":
        owner = block_owner_array(src, bounds)
    elif policy == "iec":
        owner = block_owner_array(dst, bounds)
    elif policy == "cvc":
        pr, pc = _grid_shape(num_hosts)
        row = block_owner_array(src, bounds) % pr
        col = block_owner_array(dst, bounds) % pc
        owner = row * pc + col
    else:
        raise ValueError(f"unknown partition policy {policy!r}")

    partitions: list[Partition] = []
    for host in range(num_hosts):
        mask = owner == host
        h_src, h_dst = src[mask], dst[mask]
        h_data = edge_data[mask] if edge_data is not None else None
        masters = np.arange(bounds[host], bounds[host + 1], dtype=np.int64)
        endpoints = np.unique(np.concatenate([h_src, h_dst, masters]))
        is_master = block_owner_array(endpoints, bounds) == host
        # masters first, then mirrors — both already sorted by global id
        local_order = np.concatenate([endpoints[is_master], endpoints[~is_master]])
        part = Partition(
            host=host,
            num_hosts=num_hosts,
            num_global_nodes=num_nodes,
            local_to_global=local_order,
            master_bounds=bounds,
            edges_local=(np.empty(0, np.int64), np.empty(0, np.int64)),
            edge_data=h_data,
        )
        part.edges_local = (
            part.to_local_array(h_src),
            part.to_local_array(h_dst),
        )
        partitions.append(part)
    return partitions


def contiguous_partitions(
    master_bounds: np.ndarray, replicas: int = 1
) -> list[Partition]:
    """Edge-free partitions over explicit contiguous master blocks.

    ``master_bounds`` (length ``B + 1``, starting at 0, non-decreasing)
    gives each of ``B`` blocks the node range
    ``[master_bounds[b], master_bounds[b + 1])``.  With ``replicas == 1``
    each block is one host holding exactly its own rows — the sharded
    embedding-store layout of :mod:`repro.serve.shard`.

    With ``replicas > 1`` every block is served by ``replicas`` hosts:
    host ``b * replicas`` is the master of the block, and hosts
    ``b * replicas + 1 ..`` hold the same rows as mirrors (their master
    blocks are zero-width).  The expanded boundary array keeps
    :func:`~repro.gluon.proxies.block_owner_array`'s invariant — a node's
    owner is always the first host of its block group — so
    :func:`~repro.gluon.partition_stats.analyze_partitions` sees masters
    covering the nodes exactly once and a replication factor equal to
    ``replicas``.
    """
    bounds = np.asarray(master_bounds, dtype=np.int64)
    if bounds.ndim != 1 or len(bounds) < 2:
        raise ValueError(f"master_bounds needs at least 2 entries, got {bounds.shape}")
    if bounds[0] != 0:
        raise ValueError(f"master_bounds must start at 0, got {bounds[0]}")
    if np.any(np.diff(bounds) < 0):
        raise ValueError("master_bounds must be non-decreasing")
    if replicas < 1:
        raise ValueError(f"replicas must be at least 1, got {replicas}")
    num_blocks = len(bounds) - 1
    num_nodes = int(bounds[-1])
    num_hosts = num_blocks * replicas

    expanded = np.empty(num_hosts + 1, dtype=np.int64)
    for b in range(num_blocks):
        expanded[b * replicas] = bounds[b]
        expanded[b * replicas + 1 : (b + 1) * replicas] = bounds[b + 1]
    expanded[-1] = bounds[-1]

    empty = (np.empty(0, np.int64), np.empty(0, np.int64))
    partitions: list[Partition] = []
    for b in range(num_blocks):
        rows = np.arange(bounds[b], bounds[b + 1], dtype=np.int64)
        for r in range(replicas):
            partitions.append(
                Partition(
                    host=b * replicas + r,
                    num_hosts=num_hosts,
                    num_global_nodes=num_nodes,
                    local_to_global=rows,
                    master_bounds=expanded,
                    edges_local=empty,
                )
            )
    return partitions


def replicate_all_partitions(num_nodes: int, num_hosts: int) -> list[Partition]:
    """GraphWord2Vec's policy: every host holds a proxy for every node.

    Local id == global id on every host; masters are the contiguous block
    distribution.  Edges are generated on the fly by the application, so the
    partitions carry no edge lists.
    """
    bounds = block_boundaries(num_nodes, num_hosts)
    all_nodes = np.arange(num_nodes, dtype=np.int64)
    empty = (np.empty(0, np.int64), np.empty(0, np.int64))
    return [
        Partition(
            host=h,
            num_hosts=num_hosts,
            num_global_nodes=num_nodes,
            local_to_global=all_nodes,
            master_bounds=bounds,
            edges_local=empty,
        )
        for h in range(num_hosts)
    ]
