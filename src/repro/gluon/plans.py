"""Communication plans for model synchronization (paper §4.4).

All three plans compute *bitwise-identical models* — they feed exactly the
same contributions to the reduction operator — and differ only in which
bytes cross the wire (and, for PullModel, in an extra inspection/request
phase and a reduced per-host memory footprint):

- :class:`RepModelNaive` — fully replicated model, dense communication:
  every sync ships every mirror to its master and every master to every
  mirror, like a dense-matrix collective.  No ids on the wire.
- :class:`RepModelOpt` — fully replicated model, sparse communication: a
  bit-vector tracks updated nodes; reduce sends only updated mirrors,
  broadcast sends only nodes updated on at least one host.  Ids accompany
  values.  This is the paper's default.
- :class:`PullModel` — an inspection phase generates the next round's edges
  to find the nodes each host will *access*; the broadcast pulls exactly
  those masters (updated or not), so hosts only need storage for accessed
  nodes.  Costs an id-only request message per (host, master) pair.

Wire-size conventions come from :mod:`repro.gluon.comm`.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np

from repro.gluon.comm import ID_BYTES, VALUE_BYTES

__all__ = ["CommPlan", "RepModelNaive", "RepModelOpt", "PullModel", "get_plan"]


class CommPlan(ABC):
    """Byte-accounting and target-selection strategy for one sync round.

    The wire formulas (:meth:`reduce_wire_bytes`,
    :meth:`request_wire_bytes`) must be *elementwise* over int arrays: the
    fold kernel prices a whole phase in one call, handing them the
    ``(source, master)`` matrix of row counts (and the master block sizes
    along the last axis), and broadcasts the result to that shape.  Written
    with arithmetic and ``np.where`` / ``np.minimum``, a formula serves
    plain ints and arrays alike.
    """

    name: str = "abstract"
    #: Plan needs per-host next-round access sets (inspection phase output).
    requires_access_sets: bool = False

    @abstractmethod
    def reduce_wire_bytes(self, num_updated, dim: int, block_size):
        """Payload bytes for one mirror->master message; 0 suppresses it.
        Elementwise over int arrays ``num_updated`` / ``block_size``."""

    @abstractmethod
    def broadcast_selection(
        self,
        changed_ids: np.ndarray,
        block_size: int,
        accessed_ids: np.ndarray | None,
        dim: int,
    ) -> tuple[np.ndarray, int]:
        """Ids to ship master->mirror and the payload bytes charged.

        ``changed_ids`` are the global ids in the master's block whose
        canonical value changed this round; ``accessed_ids`` is the
        destination host's next-round access set restricted to the block
        (``None`` unless :attr:`requires_access_sets`).  Returns the ids
        whose values are written at the destination plus the wire size.
        """

    def request_wire_bytes(self, num_accessed):
        """Payload bytes of the pull-request (id-only) message; 0 = none.
        Elementwise over an int array ``num_accessed``."""
        return 0


class RepModelNaive(CommPlan):
    """Dense reduce and broadcast; pays for the full block every round."""

    name = "RepModel-Naive"

    def reduce_wire_bytes(self, num_updated, dim: int, block_size):
        # Dense: the whole master block's vectors, ids implicit.
        return block_size * dim * VALUE_BYTES

    def broadcast_selection(
        self,
        changed_ids: np.ndarray,
        block_size: int,
        accessed_ids: np.ndarray | None,
        dim: int,
    ) -> tuple[np.ndarray, int]:
        # Pays dense; only changed rows carry new data (unchanged rows are
        # already equal on every replica), so writing changed_ids suffices.
        return changed_ids, block_size * dim * VALUE_BYTES


def _membership_bytes(num_ids, universe):
    """Wire cost of naming ``num_ids`` nodes out of ``universe``.

    Gluon adaptively encodes the update set as either an explicit id list
    or a bit vector over the block, whichever is smaller (dense rounds make
    the bit vector win), plus one tag byte selecting the encoding.
    """
    id_list = num_ids * ID_BYTES
    bit_vector = ((universe + 63) // 64) * 8
    return 1 + np.minimum(id_list, bit_vector)


class RepModelOpt(CommPlan):
    """Sparse reduce/broadcast of updated nodes only (paper default).

    Update-set membership uses Gluon's adaptive encoding (id list or block
    bit vector, whichever is smaller).
    """

    name = "RepModel-Opt"

    def reduce_wire_bytes(self, num_updated, dim: int, block_size):
        wire = _membership_bytes(num_updated, block_size) + num_updated * dim * VALUE_BYTES
        return np.where(num_updated == 0, 0, wire)

    def broadcast_selection(
        self,
        changed_ids: np.ndarray,
        block_size: int,
        accessed_ids: np.ndarray | None,
        dim: int,
    ) -> tuple[np.ndarray, int]:
        if changed_ids.size == 0:
            return changed_ids, 0
        wire = _membership_bytes(int(changed_ids.size), block_size)
        return changed_ids, wire + int(changed_ids.size) * dim * VALUE_BYTES


class PullModel(CommPlan):
    """Broadcast pulls exactly the next round's accessed masters."""

    name = "PullModel"
    requires_access_sets = True

    def reduce_wire_bytes(self, num_updated, dim: int, block_size):
        return num_updated * (ID_BYTES + dim * VALUE_BYTES)

    def broadcast_selection(
        self,
        changed_ids: np.ndarray,
        block_size: int,
        accessed_ids: np.ndarray | None,
        dim: int,
    ) -> tuple[np.ndarray, int]:
        if accessed_ids is None:
            raise ValueError("PullModel broadcast requires the access set")
        if accessed_ids.size == 0:
            return accessed_ids, 0
        # Ids were carried by the request message, so only values go back.
        return accessed_ids, int(accessed_ids.size) * dim * VALUE_BYTES

    def request_wire_bytes(self, num_accessed):
        return num_accessed * ID_BYTES


_REGISTRY: dict[str, type[CommPlan]] = {
    "naive": RepModelNaive,
    "opt": RepModelOpt,
    "pull": PullModel,
    RepModelNaive.name: RepModelNaive,
    RepModelOpt.name: RepModelOpt,
    PullModel.name: PullModel,
}


def get_plan(name: str) -> CommPlan:
    """Instantiate a plan by short (``naive``/``opt``/``pull``) or full name."""
    try:
        return _REGISTRY[name]()
    except KeyError:
        raise ValueError(
            f"unknown communication plan {name!r}; available: naive, opt, pull"
        ) from None
