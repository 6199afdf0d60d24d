"""The Gluon reduce/broadcast synchronization engine.

Two synchronization modes cover the library's needs:

- :meth:`GluonSynchronizer.fold` — the GraphWord2Vec mode.  The model (one
  or more ``(N, dim)`` label arrays) is replicated on all hosts; each sync
  round, mirrors ship their accumulated *deltas* to the node's master, the
  master folds them with a :class:`~repro.core.combiners.GradientCombiner`
  (model combiner, averaging, sum, ...) on top of the canonical value, and
  new canonical values are broadcast back according to a
  :class:`~repro.gluon.plans.CommPlan`.  This one kernel serves every
  caller: each hands it the contributions and the *destination* (where
  canonical rows live, how they land on a replica).
  The training engine (:mod:`repro.dgraph.async_engine`) folds deltas it
  buffered at capture time into its canonical store.
- :meth:`GluonSynchronizer.sync_value` — the classic graph-analytics mode
  used by the apps in :mod:`repro.dgraph.apps`.  Mirrors send their label
  *values*; masters reduce them with an elementwise operator (min for sssp,
  add for pagerank residuals, ...); changed canonical values are broadcast to
  every host holding a proxy.

All payloads flow through the :class:`~repro.gluon.comm.SimulatedNetwork` —
masters really consume what mirrors sent — so the byte accounting and the
data movement cannot drift apart.  The fold sends each phase as one
message batch whose payloads are row ranges of arrays the senders already
hold (:class:`~repro.gluon.comm.Slices`): a 32-host phase costs a few
dozen NumPy calls, not a Python tuple, inbox append and regrouping step
per message.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from repro.core.combiners import GradientCombiner
from repro.gluon.bitvector import BitVector
from repro.gluon.comm import ID_BYTES, VALUE_BYTES, PhaseRecord, SimulatedNetwork, Slices
from repro.gluon.partitioner import Partition
from repro.gluon.plans import CommPlan
from repro.gluon.proxies import master_block_slice

__all__ = [
    "RECOVERY_PHASE",
    "FieldSync",
    "GluonSynchronizer",
    "ReplicatedSyncResult",
    "ValueSyncResult",
]

#: Phase-name prefix of crash-restore traffic (``recovery:{field}``); the
#: run report prices these records into recovery time, not communication.
RECOVERY_PHASE = "recovery"


@dataclass
class FieldSync:
    """A replicated model field registered for synchronization.

    ``arrays[h]`` is host ``h``'s replica, shape ``(N, dim)``, updated in
    place by the synchronizer.
    """

    name: str
    arrays: list[np.ndarray]

    def __post_init__(self) -> None:
        shapes = {a.shape for a in self.arrays}
        if len(shapes) != 1:
            raise ValueError(f"field {self.name!r}: inconsistent replica shapes {shapes}")
        if self.arrays[0].ndim != 2:
            raise ValueError(f"field {self.name!r}: replicas must be 2-D (N, dim)")

    @property
    def dim(self) -> int:
        return self.arrays[0].shape[1]

    @property
    def num_nodes(self) -> int:
        return self.arrays[0].shape[0]

    def land(self, host: int, ids: np.ndarray | slice, vals: np.ndarray) -> np.ndarray:
        """Overwrite rows of ``host``'s replica with canonical ``vals``: the
        rows hold no unreduced work afterwards.  Returns what it stored."""
        self.arrays[host][ids] = vals
        return vals


@dataclass
class ReplicatedSyncResult:
    """What one fold changed: per master the rows it folded, per host the
    rows the broadcast landed (phase records are in the network's)."""

    changed_per_master: list[np.ndarray]
    received_per_host: list[np.ndarray]


@dataclass
class ValueSyncResult:
    """Accounting for one value-mode sync round."""

    field: str
    #: Per host: local ids whose value changed during this sync (master
    #: reductions and received broadcasts), for worklist-driven algorithms.
    changed_local: list[np.ndarray]
    reduce_record: PhaseRecord
    broadcast_record: PhaseRecord

    @property
    def any_changed(self) -> bool:
        return any(len(c) for c in self.changed_local)


def _joined(parts: list[np.ndarray], empty: np.ndarray) -> np.ndarray:
    """``parts`` concatenated, without a copy when there is at most one."""
    if len(parts) <= 1:
        return parts[0] if parts else empty
    return np.concatenate(parts)


class GluonSynchronizer:
    """Reduce/broadcast engine over a set of partitions and a network."""

    def __init__(self, partitions: Sequence[Partition], network: SimulatedNetwork):
        if not partitions:
            raise ValueError("need at least one partition")
        if len(partitions) != network.num_hosts:
            raise ValueError(
                f"{len(partitions)} partitions but network has {network.num_hosts} hosts"
            )
        hosts = sorted(p.host for p in partitions)
        if hosts != list(range(len(partitions))):
            raise ValueError(f"partition hosts must be 0..H-1, got {hosts}")
        self.partitions = sorted(partitions, key=lambda p: p.host)
        self.network = network
        self.num_hosts = len(partitions)
        self.bounds = self.partitions[0].master_bounds
        self._blocks = np.diff(self.bounds).astype(np.int64)  # master block sizes
        self._offdiag = ~np.eye(self.num_hosts, dtype=bool)
        self._others = [[h for h in range(self.num_hosts) if h != m] for m in range(self.num_hosts)]
        self._others_of = np.array(self._others, dtype=np.int64).reshape(self.num_hosts, -1)
        # The node count of a foldable field: the fold needs every host to
        # hold every node (-1: the partitions are not replicate-all).
        counts = {p.num_local for p in self.partitions}
        self._replicated_rows = counts.pop() if len(counts) == 1 else -1
        # Per node count N: a cleared membership mark and a position table
        # (the fold's union of touched ids and each id's slot in it).
        self._scratch: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        #: Optional :class:`~repro.analysis.runtime.GluonSyncChecker`; when
        #: set, every fold, broadcast and crash restore of a field it
        #: watches is observed (never perturbed) for protocol violations.
        self.checker = None
        # Mirror location map for value-mode sync: (master_host, mirror_host)
        # -> sorted global ids in master_host's block proxied on mirror_host.
        self._mirror_ids: dict[tuple[int, int], np.ndarray] = {}
        for part in self.partitions:
            owners = part.master_host_of(part.local_to_global)
            for m in range(self.num_hosts):
                if m == part.host:
                    continue
                ids = np.sort(part.local_to_global[owners == m])
                self._mirror_ids[(m, part.host)] = ids

    # ------------------------------------------------------------------
    # Replicated-model synchronization (GraphWord2Vec)
    # ------------------------------------------------------------------
    def fold(
        self,
        field: FieldSync,
        touched: Sequence[np.ndarray],
        deltas: Sequence[np.ndarray],
        combiner: GradientCombiner,
        plan: CommPlan,
        canonical: Sequence[np.ndarray],
        land: Callable[[int, np.ndarray, np.ndarray], np.ndarray],
        accessed_next: Sequence[np.ndarray] | None = None,
        fold_offset: int = 0,
    ) -> ReplicatedSyncResult:
        """The fold kernel: reduce → combine → (pull-request) → broadcast.

        Host ``h`` contributes float64 ``deltas[h]`` on the global ids
        ``touched[h]``.  The *destination* is the caller's:
        ``canonical[m]`` is the array master ``m``'s canonical rows are
        read from and written to (only rows of block ``m`` are touched; the
        entries may be H arrays or one shared store), and
        ``land(h, ids, vals)`` puts canonical values on host ``h``'s
        replica — a master's freshly folded rows and everything a mirror
        received alike, one call each — and returns the values it stored
        (what a sync checker's shadow is rebased to).  ``accessed_next[h]`` is required by
        plans with :attr:`~repro.gluon.plans.CommPlan.requires_access_sets`.
        Ownership is routed by slice, so sortedness is a checked
        precondition: ``touched[h]`` / ``accessed_next[h]`` strictly
        ascending ids in ``[0, num_nodes)``, ``deltas[h]`` of shape
        ``(len(touched[h]), dim)``, one entry per host — else a
        ``ValueError`` naming field and host, before any phase opens; so
        are partitions that are not replicate-all and, with a checker
        attached, an unwatched field.
        Each phase is one :meth:`~repro.gluon.comm.SimulatedNetwork.exchange`
        of one message batch: the reduce's payloads are row ranges of the
        sources' own arrays (:class:`~repro.gluon.comm.Slices`), and the
        masters confirm what arrived per source with one ``bincount``.

        ``fold_offset`` rotates the (order-dependent) inductive fold of
        contributions: host ``fold_offset % H`` is folded first this round.
        The paper leaves the induction order open; rotating it round-robin
        avoids permanently privileging one host's shard (an ablation
        benchmark quantifies the effect).
        """
        H = self.num_hosts
        dim = field.dim
        if field.num_nodes != self._replicated_rows:
            part = next(p for p in self.partitions if p.num_local != field.num_nodes)
            raise ValueError(
                f"field {field.name!r}: the fold requires fully replicated partitions "
                f"(host {part.host} has {part.num_local} of {field.num_nodes} nodes)"
            )
        touched = self._sorted_ids(field, "touched", touched)
        if len(deltas) != H:
            raise ValueError(f"field {field.name!r}: deltas needs one array per host, got {len(deltas)}")
        for h, (t, d) in enumerate(zip(touched, deltas)):
            if np.shape(d) != (len(t), dim):
                raise ValueError(
                    f"field {field.name!r}: deltas[{h}] has shape {np.shape(d)}, expected ({len(t)}, {dim})"
                )
        if plan.requires_access_sets:
            if accessed_next is None:
                raise ValueError(f"plan {plan.name} requires access sets")
            accessed_next = self._sorted_ids(field, "accessed_next", accessed_next)
        if self.checker is not None:
            # Validate writes-vs-touched while replicas are still untouched.
            self.checker.before_fold(field, touched, fold_offset)
        dtype = canonical[0].dtype

        with self.network.phase(f"reduce:{field.name}"):
            # Ids are sorted and master blocks contiguous, so host h's
            # contribution to master m is the slice cuts[h, m]:cuts[h, m + 1]
            # of its arrays: one message per nonzero wire, in (h, m) order.
            # The master's own part participates exactly like a mirror's;
            # it just never crosses the wire.
            cuts = self._cuts(touched)
            counts = np.diff(cuts, axis=1)
            wire = self._wire_matrix(plan.reduce_wire_bytes(counts, dim, self._blocks))
            src, dst = np.nonzero(wire > 0)
            self.network.exchange(src, dst, wire[src, dst], Slices(
                list(zip(touched, deltas)), src, cuts[src, dst], cuts[src, dst + 1],
            ))

            # Masters consume what mirrors sent.  Combiners are row-wise (a
            # row's result depends only on its own contributions, in fold
            # order), so all masters share one state and combine by
            # *source*: whatever host h sent, to whichever masters, is one
            # wave — unique rows, ``touched[h]`` being strictly ascending —
            # and the waves run in rotated source order.  Exactly H
            # ``accumulate`` calls (empty waves too), not one per (master,
            # source).  One bincount over every delivery confirms what
            # arrived per source; a source whose every part arrived (the
            # master's own part never travels) is its arrays whole.
            got = [d for m in range(H) for d in self.network.receive(m)]
            arrived = counts.diagonal().copy()
            if got:
                arrived += np.bincount(
                    np.concatenate([d.src for d in got]),
                    weights=np.concatenate([d.hi - d.lo for d in got]),
                    minlength=H,
                ).astype(np.int64)
            waves = [
                (touched[s], deltas[s]) if arrived[s] == len(touched[s])
                else self._arrived_wave(touched[s], deltas[s], s, cuts[s], got)
                for s in range(H)
            ]
            mark, pos = self._mark_and_positions(field.num_nodes)
            for ids, _ in waves:
                mark[ids] = True
            union = np.flatnonzero(mark)
            mark[union] = False
            pos[union] = np.arange(len(union))
            state = combiner.create(len(union), dim)
            for s in ((fold_offset + k) % H for k in range(H)):
                ids, vals = waves[s]
                state.accumulate(pos[ids], vals)
            combined = state.result()

            changed_per_master: list[np.ndarray] = []
            # What each landing stored, kept only for a checker's shadow.
            own_landed: list[np.ndarray | None] | None = None if self.checker is None else []
            cut = np.searchsorted(union, self.bounds).tolist()
            for m in range(H):
                rows = union[cut[m]:cut[m + 1]]
                landed = None
                if len(rows):
                    folded = canonical[m][rows].astype(np.float64) + combined[cut[m]:cut[m + 1]]
                    new_vals = folded.astype(dtype)
                    canonical[m][rows] = new_vals
                    landed = land(m, rows, new_vals)
                changed_per_master.append(rows)
                if own_landed is not None:
                    own_landed.append(landed)

        received_per_host = self.broadcast(
            field, plan, changed_per_master, accessed_next, canonical, land,
            request_phase=f"request:{field.name}",
            broadcast_phase=f"broadcast:{field.name}",
        )
        result = ReplicatedSyncResult(changed_per_master, received_per_host)
        if self.checker is not None:
            self.checker.after_fold(field, result, own_landed, fold_offset)
        return result

    @staticmethod
    def _arrived_wave(
        ids: np.ndarray, vals: np.ndarray, source: int, cuts: np.ndarray, got: list
    ) -> tuple[np.ndarray, np.ndarray]:
        """The rows of ``source``'s arrays that reached their masters —
        its own part and every delivered slice — in row order."""
        parts = [(int(cuts[source]), int(cuts[source + 1]))]
        for d in got:
            mine = d.src == source
            parts += zip(d.lo[mine].tolist(), d.hi[mine].tolist())
        parts.sort()
        return (
            np.concatenate([ids[a:b] for a, b in parts]),
            np.concatenate([vals[a:b] for a, b in parts]),
        )

    def _sorted_ids(
        self, field: FieldSync, what: str, ids_per_host: Sequence[np.ndarray]
    ) -> list[np.ndarray]:
        """Boundary check of a per-host id-list argument — slices silently
        mis-route what is not strictly ascending and in range."""
        if len(ids_per_host) != self.num_hosts:
            raise ValueError(
                f"field {field.name!r}: {what} needs one id array per host "
                f"({self.num_hosts}), got {len(ids_per_host)}"
            )
        out = [np.asarray(ids, dtype=np.int64) for ids in ids_per_host]
        for h, ids in enumerate(out):
            if ids.ndim != 1 or not (ids[1:] > ids[:-1]).all():
                problem = "must be a strictly ascending 1-D id array (sorted, no duplicate)"
            elif ids.size and not 0 <= ids[0] <= ids[-1] < field.num_nodes:
                problem = f"has ids outside [0, {field.num_nodes})"
            else:
                continue
            raise ValueError(f"field {field.name!r}: {what}[{h}] {problem}")
        return out

    def _cuts(self, ids_per_host: Sequence[np.ndarray]) -> np.ndarray:
        """``(H, H+1)`` matrix: row ``h`` cuts host ``h``'s ascending ids at
        the master block bounds, so ``[h, m]:[h, m+1]`` is the slice master
        ``m`` owns."""
        return np.array([np.searchsorted(ids, self.bounds) for ids in ids_per_host])

    def _wire_matrix(self, wire) -> np.ndarray:
        """A plan formula's result as the ``(H, H)`` source × master matrix,
        zero on the diagonal (a host's own part never crosses the wire)."""
        return np.where(self._offdiag, np.asarray(wire, dtype=np.int64), 0)

    def _mark_and_positions(self, num_nodes: int) -> tuple[np.ndarray, np.ndarray]:
        """The cleared ``num_nodes`` membership mark (callers clear what they
        set) and position table of this size, allocated once."""
        scratch = self._scratch.get(num_nodes)
        if scratch is None:
            scratch = self._scratch[num_nodes] = (
                np.zeros(num_nodes, dtype=bool),
                np.empty(num_nodes, dtype=np.int64),
            )
        return scratch

    def broadcast(
        self,
        field: FieldSync,
        plan: CommPlan,
        changed_per_master: Sequence[np.ndarray],
        accessed: Sequence[np.ndarray] | None,
        canonical: Sequence[np.ndarray],
        land: Callable[[int, np.ndarray, np.ndarray], np.ndarray],
        request_phase: str,
        broadcast_phase: str,
    ) -> list[np.ndarray]:
        """The kernel's second half: (pull-request) → broadcast.

        Under an access-set plan every host first routes the ids it wants
        (``accessed[h]``, strictly ascending) to their owning masters; then
        each master ships the rows ``plan`` selects — out of
        ``changed_per_master[m]`` and the requests it received — from
        ``canonical[m]``, and each receiver ``land``s everything it got in
        one call.  Each phase is one exchange, messages in (h, m) order for
        requests and (m, h) order for the broadcast; the broadcast's
        payloads are row ranges of one gather, so under the RepModel plans
        a master's changed rows are gathered once and a receiver reads its
        masters' ranges as one or two slices.  Returns per host the
        sorted global ids that landed.  With a checker attached the field
        must be watched (``ValueError`` naming it, before any phase opens).
        """
        H = self.num_hosts
        dim = field.dim
        if self.checker is not None:
            self.checker.require_watched(field)
        # requested[m]: source host -> the rows of master m's block it asked for.
        requested: list[dict[int, np.ndarray]] | None = None
        if plan.requires_access_sets:
            accessed = self._sorted_ids(field, "accessed", accessed)  # type: ignore[arg-type]
            with self.network.phase(request_phase):
                cuts = self._cuts(accessed)
                wire = self._wire_matrix(plan.request_wire_bytes(np.diff(cuts, axis=1)))
                src, dst = np.nonzero(wire > 0)
                self.network.exchange(src, dst, wire[src, dst], [
                    accessed[h][lo:hi]
                    for h, lo, hi in zip(src.tolist(), cuts[src, dst].tolist(), cuts[src, dst + 1].tolist())
                ])
                # Masters consume the requests.
                requested = [dict(self.network.drain(m)) for m in range(H)]

        empty = np.empty(0, dtype=np.int64)
        with self.network.phase(broadcast_phase):
            empty_vals = np.empty((0, dim), dtype=canonical[0].dtype)
            if requested is None:
                # No access set is an input: one selection per master, its
                # rows gathered once into one read-only flat buffer, and its
                # H - 1 messages the same range of it — a receiver's ranges
                # (ascending masters, its own skipped) read as two slices.
                picks = [
                    plan.broadcast_selection(changed_per_master[m], self._blocks[m], None, dim)
                    for m in range(H)
                ]
                cuts = np.cumsum([0] + [len(ids) for ids, _w in picks])
                flat = (
                    np.concatenate([empty] + [ids for ids, _w in picks]),
                    np.concatenate([empty_vals] + [canonical[m][ids] for m, (ids, _w) in enumerate(picks)]),
                )
                flat[1].flags.writeable = False
                wires = np.array([w for _ids, w in picks], dtype=np.int64)
                senders = np.flatnonzero(wires > 0)
                src = np.repeat(senders, H - 1)
                dst = self._others_of[senders].ravel()
                wire = wires[src]
                payloads = Slices([flat], np.zeros(len(src), dtype=np.int64), cuts[src], cuts[src + 1])
            else:
                # Per request: each message its own selection and gather.
                src, dst, wire, bases = [], [], [], []
                for m in range(H):
                    for h in self._others[m]:
                        ids, w = plan.broadcast_selection(
                            changed_per_master[m], self._blocks[m], requested[m].get(h, empty), dim
                        )
                        if w > 0:
                            src.append(m)
                            dst.append(h)
                            wire.append(w)
                            bases.append((ids, canonical[m][ids]))
                payloads = Slices(
                    bases, np.arange(len(bases)), np.zeros(len(bases), dtype=np.int64),
                    [len(ids) for ids, _vals in bases],
                )
            self.network.exchange(src, dst, wire, payloads)
            # A receiver's deliveries come from ascending masters over
            # disjoint ascending blocks: its concatenated ids are sorted.
            received_per_host: list[np.ndarray] = []
            landed_per_host: list[np.ndarray] | None = None if self.checker is None else []
            for h in range(H):
                got = self.network.receive(h)
                ids = _joined([d.rows(0) for d in got], empty)
                vals = _joined([d.rows(1) for d in got], empty_vals)
                if ids.size:
                    vals = land(h, ids, vals)
                received_per_host.append(ids)
                if landed_per_host is not None:
                    landed_per_host.append(vals)
        if self.checker is not None:
            self.checker.after_broadcast(
                field, self.bounds, plan, changed_per_master, accessed,
                received_per_host, landed_per_host,
            )
        return received_per_host

    # ------------------------------------------------------------------
    # Crash recovery (fault injection)
    # ------------------------------------------------------------------
    def restore_host(
        self, field: FieldSync, host: int, canonical: Sequence[np.ndarray]
    ) -> int:
        """Rebuild ``host``'s replica of ``field`` after a fail-stop crash.

        Every surviving master ``m`` streams its full block of
        ``canonical[m]`` — the same canonical view :meth:`fold` takes, so
        the values are those of the last completed fold even while
        survivors are mid-round — to the recovering host.  Blocks are
        contiguous, so ids stay implicit on the wire.  The recovering
        host's own master block is not touched — the caller restores it
        from stable storage, which is the only surviving copy.

        Returns the wire bytes charged to the ``recovery:{field}`` record.
        With a checker attached the field must be watched, and the host's
        shadow takes the streamed canonical blocks.
        """
        if not 0 <= host < self.num_hosts:
            raise ValueError(f"host {host} out of range [0, {self.num_hosts})")
        if self.checker is not None:
            self.checker.require_watched(field)
        with self.network.phase(f"{RECOVERY_PHASE}:{field.name}") as record:
            masters = [m for m in self._others[host] if self._blocks[m]]
            blocks = [master_block_slice(self.bounds, m) for m in masters]
            self.network.exchange(
                masters,
                [host] * len(masters),
                [(b.stop - b.start) * field.dim * VALUE_BYTES for b in blocks],
                [
                    (np.arange(b.start, b.stop, dtype=np.int64), canonical[m][b].copy())
                    for m, b in zip(masters, blocks)
                ],
            )
            for _src, (ids, vals) in self.network.drain(host):
                field.land(host, ids, vals)
        if self.checker is not None:
            for m, block in zip(masters, blocks):
                self.checker.after_restore(field, host, block, canonical[m][block])
        return record.total_bytes

    # ------------------------------------------------------------------
    # Value-mode synchronization (classic graph analytics)
    # ------------------------------------------------------------------
    def sync_value(
        self,
        name: str,
        arrays: Sequence[np.ndarray],
        updated: Sequence[BitVector],
        reduce_op: Callable[[np.ndarray, np.ndarray], np.ndarray],
    ) -> ValueSyncResult:
        """Reduce updated mirror *values* into masters, broadcast changes.

        ``arrays[h]`` is host ``h``'s label array indexed by local id (1-D or
        2-D); ``updated[h]`` flags locally-written nodes.  ``reduce_op`` must
        be idempotent-safe elementwise (min, max, add-on-residue-semantics is
        the caller's responsibility).  Returns per-host local ids whose value
        changed so data-driven algorithms can refill worklists.  Bit vectors
        are cleared.
        """
        H = self.num_hosts
        width = 1 if arrays[0].ndim == 1 else int(arrays[0].shape[1])
        changed_local: list[list[int]] = [[] for _ in range(H)]

        with self.network.phase(f"reduce:{name}") as reduce_record:
            for part in self.partitions:
                h = part.host
                idx = updated[h].indices()
                if idx.size == 0:
                    continue
                gids = part.local_to_global[idx]
                owners = part.master_host_of(gids)
                for m in range(H):
                    if m == h:
                        continue
                    sel = owners == m
                    if not sel.any():
                        continue
                    ids = gids[sel]
                    vals = arrays[h][idx[sel]].copy()
                    wire = len(ids) * (ID_BYTES + width * VALUE_BYTES)
                    self.network.send(h, m, wire, payload=(ids, vals))
            master_changed: list[np.ndarray] = []
            for part in self.partitions:
                m = part.host
                changed_ids: set[int] = set()
                # The master's own local updates are already in its array but
                # still count as changes to propagate.
                own = updated[m].indices()
                if own.size:
                    own_g = part.local_to_global[own]
                    own_masters = own_g[part.master_host_of(own_g) == m]
                    changed_ids.update(int(g) for g in own_masters)
                for _src, (ids, vals) in self.network.drain(m):
                    rows = part.to_local_array(ids)
                    before = arrays[m][rows].copy()
                    arrays[m][rows] = reduce_op(arrays[m][rows], vals)
                    delta = arrays[m][rows] != before
                    if delta.ndim > 1:
                        delta = delta.any(axis=1)
                    changed_ids.update(int(g) for g in ids[delta])
                    changed_local[m].extend(int(r) for r in rows[delta])
                master_changed.append(
                    np.array(sorted(changed_ids), dtype=np.int64)
                )

        with self.network.phase(f"broadcast:{name}") as broadcast_record:
            for part in self.partitions:
                m = part.host
                changed = master_changed[m]
                if changed.size == 0:
                    continue
                local_rows = part.to_local_array(changed)
                values = arrays[m][local_rows]
                for h in range(H):
                    if h == m:
                        continue
                    on_h = self._mirror_ids[(m, h)]
                    sel = np.isin(changed, on_h, assume_unique=True)
                    if not sel.any():
                        continue
                    ids = changed[sel]
                    wire = len(ids) * (ID_BYTES + width * VALUE_BYTES)
                    self.network.send(m, h, wire, payload=(ids, values[sel].copy()))
            for part in self.partitions:
                h = part.host
                for _src, (ids, vals) in self.network.drain(h):
                    rows = part.to_local_array(ids)
                    before = arrays[h][rows].copy()
                    arrays[h][rows] = vals
                    delta = arrays[h][rows] != before
                    if delta.ndim > 1:
                        delta = delta.any(axis=1)
                    changed_local[h].extend(int(r) for r in rows[delta])

        for bv in updated:
            bv.reset()
        return ValueSyncResult(
            field=name,
            changed_local=[np.array(sorted(set(c)), dtype=np.int64) for c in changed_local],
            reduce_record=reduce_record,
            broadcast_record=broadcast_record,
        )
