"""Simulated message transport with exact byte accounting.

The reproduction replaces the MPI/LCI transport under Gluon with an
in-process network: messages are delivered immediately (the engine is bulk
synchronous, so delivery order within a phase does not matter), and the
network records, per communication phase, how many bytes each host sent and
received.  Those records are both the paper's *communication volume* numbers
(Figure 9 prints total volume) and the input to the α–β timing model in
:mod:`repro.cluster.network` (Figures 8/9 time breakdowns).

Wire-size conventions (documented so volumes are reproducible):

- node ids: 4 bytes (uint32 — vocabularies here are < 2^32),
- float payloads: 4 bytes per element (float32, as in the paper's vectors),
- bit vectors: their word storage (``BitVector.nbytes``),
- metadata header per message: 16 bytes.

Delivery is per batch: :meth:`SimulatedNetwork.exchange` stores each
destination's messages as one :class:`Delivery` — the message indices of
the batch bound for it, in message order — so a phase of ``n`` messages
among ``H`` hosts costs O(H) Python work, not O(n).  A batch's payloads
are either one object per message or :class:`Slices`, row ranges of
arrays the senders already hold; receivers read a delivery whole
(:meth:`Delivery.rows`, its ``src`` / ``lo`` / ``hi`` arrays) or message
by message (:meth:`SimulatedNetwork.drain`).  :meth:`~SimulatedNetwork.send`
is a batch of one, so every message takes the one delivery path.

Fault injection: the network optionally consults a
:class:`~repro.cluster.faults.TransientFaultInjector` once per message.
Transient faults (drops, corruptions) are recovered by retransmission
inside the BSP phase barrier, so the payload is always delivered — the
fault surfaces as extra bytes charged to the phase (and to
``MessageStats.resent_bytes``) plus backoff time the injector accumulates.
Without an injector the send path is exactly the fault-free one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Sequence

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (cluster -> gluon)
    from repro.cluster.faults import TransientFaultInjector

__all__ = [
    "Delivery",
    "MessageStats",
    "PhaseRecord",
    "SimulatedNetwork",
    "Slices",
    "HEADER_BYTES",
    "ID_BYTES",
    "VALUE_BYTES",
]

HEADER_BYTES = 16
ID_BYTES = 4
VALUE_BYTES = 4


@dataclass
class PhaseRecord:
    """Per-host sent/received byte totals for one communication phase."""

    name: str
    num_hosts: int
    sent: np.ndarray = field(default=None)  # type: ignore[assignment]
    recv: np.ndarray = field(default=None)  # type: ignore[assignment]
    messages: int = 0
    #: Bytes of ``sent``/``recv`` that are fault retransmissions (and NACKs).
    resent_bytes: int = 0

    def __post_init__(self) -> None:
        if self.sent is None:
            self.sent = np.zeros(self.num_hosts, dtype=np.int64)
        if self.recv is None:
            self.recv = np.zeros(self.num_hosts, dtype=np.int64)

    @property
    def total_bytes(self) -> int:
        return int(self.sent.sum())

    def max_host_bytes(self) -> int:
        """Busiest endpoint's traffic — the bandwidth-bound term."""
        return int(np.maximum(self.sent, self.recv).max()) if self.num_hosts else 0


@dataclass
class MessageStats:
    """Aggregated transport statistics."""

    total_messages: int = 0
    total_bytes: int = 0
    resent_bytes: int = 0
    retransmissions: int = 0
    bytes_by_phase: dict[str, int] = field(default_factory=dict)
    messages_by_phase: dict[str, int] = field(default_factory=dict)

    def record(self, phase: str, nbytes: int, messages: int = 1) -> None:
        """Charge ``messages`` logical messages totalling ``nbytes``."""
        self.total_messages += messages
        self.total_bytes += nbytes
        self.bytes_by_phase[phase] = self.bytes_by_phase.get(phase, 0) + nbytes
        self.messages_by_phase[phase] = self.messages_by_phase.get(phase, 0) + messages

    def record_resend(self, phase: str, nbytes: int, messages: int = 1) -> None:
        """Charge fault-retransmission bytes of ``messages`` messages (no
        new logical message)."""
        self.total_bytes += nbytes
        self.resent_bytes += nbytes
        self.retransmissions += messages
        self.bytes_by_phase[phase] = self.bytes_by_phase.get(phase, 0) + nbytes


@dataclass(frozen=True)
class Slices:
    """A batch's payloads as row ranges: message ``i`` carries rows
    ``lo[i]:hi[i]`` of every array in ``bases[base[i]]``.

    Senders hand the network views of arrays they already hold — a
    source's id and delta arrays, or one gather every receiver shares —
    instead of one payload tuple per message.
    """

    bases: Sequence[tuple[np.ndarray, ...]]
    base: np.ndarray
    lo: np.ndarray
    hi: np.ndarray


class Delivery:
    """The messages of one exchange bound for one destination, in message
    order: ``src`` are their senders, and ``index`` their positions in the
    batch.  Under :class:`Slices`, ``base``, ``lo`` and ``hi`` are their
    row ranges."""

    def __init__(self, src: np.ndarray, index: np.ndarray, payloads, ranges=None):
        self.src = src
        self.index = index
        self._payloads = payloads
        if ranges is not None:
            self.base, self.lo, self.hi = ranges

    def __len__(self) -> int:
        return len(self.index)

    def payload(self, j: int) -> Any:
        """Message ``j``'s payload (a tuple of row slices under :class:`Slices`)."""
        p = self._payloads
        if p is None:
            return None
        if isinstance(p, Slices):
            lo, hi = int(self.lo[j]), int(self.hi[j])
            return tuple(a[lo:hi] for a in p.bases[int(self.base[j])])
        return p[int(self.index[j])]

    def rows(self, k: int) -> np.ndarray:
        """Array ``k`` of every message's :class:`Slices` payload,
        concatenated in message order.  A message that continues the
        previous one's range of the same base extends that slice, so a
        receiver of shared per-master ranges reads one or two slices."""
        runs: list[list[int]] = []
        for b, lo, hi in zip(self.base.tolist(), self.lo.tolist(), self.hi.tolist()):
            if runs and runs[-1][0] == b and runs[-1][2] == lo:
                runs[-1][2] = hi
            else:
                runs.append([b, lo, hi])
        bases = self._payloads.bases
        parts = [bases[b][k][lo:hi] for b, lo, hi in runs]
        return parts[0] if len(parts) == 1 else np.concatenate(parts)


class SimulatedNetwork:
    """Point-to-point transport among ``num_hosts`` simulated hosts.

    Usage::

        net = SimulatedNetwork(4)
        with net.phase("reduce") as record:
            net.exchange(src=[1, 2], dst=[0, 0], nbytes=[..., ...], payloads=[..., ...])
        msgs = net.drain(dst=0)

    Messages outside a :meth:`phase` block are charged to the ``"default"``
    phase.  ``receive`` returns and clears a host's inbox as one
    :class:`Delivery` per exchange, ``drain`` as ``(src, payload)`` pairs,
    both in arrival order.
    """

    def __init__(self, num_hosts: int, fault_injector: "TransientFaultInjector | None" = None):
        if num_hosts <= 0:
            raise ValueError(f"num_hosts must be positive, got {num_hosts}")
        self.num_hosts = int(num_hosts)
        self.fault_injector = fault_injector
        self.stats = MessageStats()
        self.phase_records: list[PhaseRecord] = []
        self._active: PhaseRecord | None = None
        self._default: PhaseRecord | None = None
        self._inboxes: list[list[Delivery]] = [[] for _ in range(num_hosts)]

    # -- phases -------------------------------------------------------------
    def phase(self, name: str) -> "_PhaseContext":
        return _PhaseContext(self, name)

    def _begin_phase(self, name: str) -> PhaseRecord:
        if self._active is not None:
            raise RuntimeError(
                f"phase {self._active.name!r} still active; phases do not nest"
            )
        self._active = PhaseRecord(name=name, num_hosts=self.num_hosts)
        return self._active

    def _end_phase(self) -> PhaseRecord:
        if self._active is None:
            raise RuntimeError("no active phase")
        record, self._active = self._active, None
        self.phase_records.append(record)
        return record

    # -- messaging ------------------------------------------------------------
    def exchange(
        self,
        src: Sequence[int] | np.ndarray,
        dst: Sequence[int] | np.ndarray,
        nbytes: Sequence[int] | np.ndarray,
        payloads: Sequence[Any] | Slices | None = None,
    ) -> None:
        """Deliver a batch of messages, charging the whole batch at once.

        Message ``i`` goes from ``src[i]`` to ``dst[i]`` with ``nbytes[i]``
        payload bytes (the modeled wire size *excluding* the fixed
        per-message header, which is added here) and ``payloads[i]`` — or
        its row ranges, when ``payloads`` is a :class:`Slices` (``None``
        for all when ``payloads`` is ``None``).  The result is
        exactly that of sending the messages one by one in the given order:
        the same per-host byte totals, statistics and fault-injector draws
        (one per message, in order), and the same inbox order.  Every entry
        is validated before anything is charged or delivered; a bad one
        raises a ``ValueError`` naming the argument and the message index.
        """
        H = self.num_hosts
        src = np.asarray(src, dtype=np.int64)
        dst = np.asarray(dst, dtype=np.int64)
        nbytes = np.asarray(nbytes, dtype=np.int64)
        for name, arr in (("src", src), ("dst", dst), ("nbytes", nbytes)):
            if arr.ndim != 1:
                raise ValueError(f"exchange: {name} must be 1-D, got shape {arr.shape}")
        n = len(src)
        lengths = {"src": n, "dst": len(dst), "nbytes": len(nbytes)}
        if isinstance(payloads, Slices):
            payloads = Slices(
                payloads.bases,
                *(np.asarray(a, dtype=np.int64) for a in (payloads.base, payloads.lo, payloads.hi)),
            )
            lengths.update(
                {f"payloads.{name}": len(getattr(payloads, name)) for name in ("base", "lo", "hi")}
            )
        elif payloads is not None:
            lengths["payloads"] = len(payloads)
        if len(set(lengths.values())) != 1:
            raise ValueError(f"exchange: argument lengths differ: {lengths}")
        for name, arr in (("src", src), ("dst", dst)):
            bad = np.flatnonzero((arr < 0) | (arr >= H))
            if bad.size:
                i = int(bad[0])
                raise ValueError(f"exchange: {name}[{i}] = {arr[i]} out of range [0, {H})")
        bad = np.flatnonzero(src == dst)
        if bad.size:
            i = int(bad[0])
            raise ValueError(
                f"exchange: message {i} is a loopback ({src[i]} -> {dst[i]}); "
                "loopback messages are local copies, not sends"
            )
        bad = np.flatnonzero(nbytes < 0)
        if bad.size:
            i = int(bad[0])
            raise ValueError(f"exchange: nbytes[{i}] = {nbytes[i]} is a negative payload size")
        if isinstance(payloads, Slices):
            bad = np.flatnonzero(
                (payloads.base < 0) | (payloads.base >= len(payloads.bases))
                | (payloads.lo < 0) | (payloads.hi < payloads.lo)
            )
            if bad.size:
                i = int(bad[0])
                raise ValueError(
                    f"exchange: payloads[{i}] names rows {payloads.lo[i]}:{payloads.hi[i]} "
                    f"of base {payloads.base[i]} (of {len(payloads.bases)})"
                )
        if n == 0:
            return
        wire = nbytes + HEADER_BYTES
        # Transient faults: one injector draw per message, in order.  The
        # retransmissions traverse the same endpoints; the barrier absorbs
        # the backoff delay (accumulated by the injector).
        if self.fault_injector is None:
            resent = np.zeros(n, dtype=np.int64)
        else:
            on_send = self.fault_injector.on_send
            resent = np.array([on_send(w)[0] for w in wire.tolist()], dtype=np.int64)
        record = self._record()
        # Integer byte counts are exact in bincount's float64 weights
        # (phase totals stay far below 2**53).
        charged = wire + resent
        record.sent += np.bincount(src, weights=charged, minlength=H).astype(np.int64)
        record.recv += np.bincount(dst, weights=charged, minlength=H).astype(np.int64)
        record.messages += n
        self.stats.record(record.name, int(wire.sum()), messages=n)
        retransmitted = int(np.count_nonzero(resent))
        if retransmitted:
            record.resent_bytes += int(resent.sum())
            self.stats.record_resend(record.name, int(resent.sum()), messages=retransmitted)
        # One delivery per destination: its messages, in message order —
        # the batch sorted stably by destination, cut where it changes.
        order = np.argsort(dst, kind="stable")
        ordered = dst[order]
        first = np.flatnonzero(np.diff(ordered, prepend=-1))
        cuts = np.append(first, n).tolist()
        columns = [src[order], order]
        if isinstance(payloads, Slices):
            columns += [payloads.base[order], payloads.lo[order], payloads.hi[order]]
        for d, a, b in zip(ordered[first].tolist(), cuts[:-1], cuts[1:]):
            got = [column[a:b] for column in columns]
            self._inboxes[d].append(Delivery(got[0], got[1], payloads, got[2:] or None))

    def send(self, src: int, dst: int, nbytes: int, payload: Any = None) -> None:
        """Deliver one message: :meth:`exchange` of a batch of one."""
        self.exchange([src], [dst], [nbytes], [payload])

    def _record(self) -> PhaseRecord:
        """The record messages are charged to: the active phase's, else the
        shared ``"default"`` one (created on first use)."""
        if self._active is not None:
            return self._active
        if self._default is None:
            self._default = PhaseRecord(name="default", num_hosts=self.num_hosts)
            self.phase_records.append(self._default)
        return self._default

    def receive(self, dst: int) -> list[Delivery]:
        """Return and clear ``dst``'s inbox, one :class:`Delivery` per exchange."""
        if not 0 <= dst < self.num_hosts:
            raise ValueError(f"host {dst} out of range")
        got, self._inboxes[dst] = self._inboxes[dst], []
        return got

    def drain(self, dst: int) -> list[tuple[int, Any]]:
        """Return and clear ``dst``'s inbox as ``(src, payload)`` pairs."""
        return [
            (s, got.payload(j))
            for got in self.receive(dst)
            for j, s in enumerate(got.src.tolist())
        ]

    def pending(self, dst: int) -> int:
        return sum(len(got) for got in self._inboxes[dst])

    # -- accounting ------------------------------------------------------------
    @property
    def total_bytes(self) -> int:
        return self.stats.total_bytes

    @property
    def total_messages(self) -> int:
        return self.stats.total_messages


class _PhaseContext:
    def __init__(self, net: SimulatedNetwork, name: str):
        self._net = net
        self._name = name
        self.record: PhaseRecord | None = None

    def __enter__(self) -> PhaseRecord:
        self.record = self._net._begin_phase(self._name)
        return self.record

    def __exit__(self, *exc) -> None:
        self._net._end_phase()
