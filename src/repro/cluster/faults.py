"""Deterministic fault injection for the simulated cluster.

The paper's BSP formulation assumes every host survives every
synchronization round; this module adds the failure modes a production
deployment must survive, while keeping the reproduction's core contract —
*a run is a pure function of its seed* — intact:

- **Host crashes** (fail-stop): a host dies during a round's compute phase
  and its in-memory state is lost.  Recovery restores the replica from the
  last per-round checkpoint and replays the lost worklist chunk; because
  work generation is a pure function of the seed tree and replicas hold
  canonical values at round boundaries, the replayed updates are
  bit-identical to the lost ones — crashes cost time and bytes, never
  model quality.
- **Transient message faults** (drop / corruption): a message fails to
  arrive (or arrives corrupted and fails its checksum) and is retransmitted
  with exponential backoff inside the BSP phase barrier.  Payload delivery
  is therefore unaffected; the fault surfaces as re-sent bytes and backoff
  time.
- **Stragglers**: a host runs slower than its peers for one round,
  stretching the round's barrier.  Stragglers scale the *modeled* wall
  clock only; a schedule built with explicit ``stragglers`` on every slot
  of a host is a heterogeneous cluster, the one slow-host model the
  trainer has.

Determinism contract.  A :class:`FaultSchedule` is generated by
:meth:`FaultSchedule.generate` from ``(config, seed, topology)`` alone:
crashes and stragglers are materialized per ``(epoch, round, host)`` slot
up front, and per-message fault decisions come from a dedicated stream
consumed in the simulation's (deterministic) send order.  Two runs with the
same seed see exactly the same faults; an all-zero config yields a
fault-free schedule whose presence is unobservable (zero overhead: no extra
bytes, no extra modeled time, bit-identical model).
"""

from __future__ import annotations

from dataclasses import dataclass, fields
import math

from repro.gluon.comm import HEADER_BYTES
from repro.util.rng import Domain, derive_seed, keyed_rng

__all__ = [
    "FaultConfig",
    "CrashEvent",
    "FaultSchedule",
    "TransientFaultInjector",
    "FaultReport",
    "UnrecoverableFaultError",
    "parse_fault_spec",
]


class UnrecoverableFaultError(RuntimeError):
    """A fault the configured recovery policy cannot mask."""


def _check_probability(name: str, p: float) -> None:
    if not 0.0 <= p <= 1.0:  # NaN fails the comparison too
        raise ValueError(f"{name} must be a probability in [0, 1], got {p}")


@dataclass(frozen=True)
class FaultConfig:
    """Fault rates and recovery-cost parameters.

    Probabilities are per *opportunity*: ``crash_prob`` and
    ``straggler_prob`` per (host, round) slot, ``drop_prob`` and
    ``corrupt_prob`` per message.  Recovery costs parameterize the timing
    model only — they never influence what the model computes.
    """

    crash_prob: float = 0.0
    max_crashes: int | None = None
    drop_prob: float = 0.0
    corrupt_prob: float = 0.0
    straggler_prob: float = 0.0
    #: Uniform range a straggling host's slowdown factor is drawn from.
    straggler_factor: tuple[float, float] = (2.0, 6.0)
    #: Barrier timeout before a missing host is declared dead.
    detect_timeout_s: float = 0.25
    #: Stable-storage read bandwidth for the crashed host's own checkpoint block.
    restore_bandwidth_Bps: float = 2.0e8
    #: First retransmission backoff; doubles per retry.
    retry_backoff_s: float = 1e-3
    #: Retries before escalating to a link-level reroute (counted, still delivered).
    max_retries: int = 8

    def __post_init__(self) -> None:
        for name in ("crash_prob", "drop_prob", "corrupt_prob", "straggler_prob"):
            _check_probability(name, getattr(self, name))
        if self.drop_prob + self.corrupt_prob > 1.0:
            raise ValueError("drop_prob + corrupt_prob must not exceed 1")
        lo, hi = self.straggler_factor
        if not (math.isfinite(hi) and 1.0 <= lo <= hi):
            raise ValueError(
                f"straggler_factor range must satisfy 1 <= lo <= hi < inf, got {lo, hi}"
            )
        # Recovery costs enter the timing model: a NaN or infinity here
        # would silently poison every recovery's modeled time.
        for name in ("detect_timeout_s", "retry_backoff_s"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0):
                raise ValueError(f"{name} must be finite and non-negative, got {value}")
        if not (math.isfinite(self.restore_bandwidth_Bps) and self.restore_bandwidth_Bps > 0):
            raise ValueError(
                f"restore_bandwidth_Bps must be finite and positive, got {self.restore_bandwidth_Bps}"
            )
        if self.max_retries < 1:
            raise ValueError(f"max_retries must be at least 1, got {self.max_retries}")
        if self.max_crashes is not None and self.max_crashes < 0:
            raise ValueError(f"max_crashes must be non-negative, got {self.max_crashes}")

    @property
    def has_transient(self) -> bool:
        return self.drop_prob > 0.0 or self.corrupt_prob > 0.0


@dataclass(frozen=True)
class CrashEvent:
    """One fail-stop failure: ``host`` dies during round (``epoch``, ``round_index``).

    ``loss_fraction`` is how far through its chunk the host got before dying
    — that compute time was burned and is charged to the round, but its
    updates are lost and replayed during recovery.
    """

    epoch: int
    round_index: int
    host: int
    loss_fraction: float


class FaultSchedule:
    """All faults of one run, materialized up front from a seed.

    Use :meth:`generate` (or :meth:`empty` for the explicit fault-free
    schedule), or construct one with explicit ``crashes`` and
    ``stragglers`` — ``(epoch, round, host)`` -> slowdown factor, finite
    and >= 1, like :attr:`FaultConfig.straggler_factor`.  Instances are
    immutable in practice and safe to share across the components that
    consult them.
    """

    def __init__(
        self,
        config: FaultConfig,
        num_hosts: int,
        epochs: int,
        rounds_per_epoch: int,
        crashes: dict[tuple[int, int], tuple[CrashEvent, ...]],
        stragglers: dict[tuple[int, int, int], float],
        message_seed: int,
    ):
        if num_hosts <= 0:
            raise ValueError(f"num_hosts must be positive, got {num_hosts}")
        for (_epoch, _round, host), factor in sorted(stragglers.items()):
            if not 0 <= host < num_hosts:
                raise ValueError(f"straggler host {host} out of range [0, {num_hosts})")
            if not (math.isfinite(factor) and factor >= 1.0):
                raise ValueError(
                    f"straggler factor of host {host} must be finite and >= 1, got {factor}"
                )
        self.config = config
        self.num_hosts = int(num_hosts)
        self.epochs = int(epochs)
        self.rounds_per_epoch = int(rounds_per_epoch)
        self._crashes = dict(crashes)
        self._stragglers = dict(stragglers)
        self._message_seed = int(message_seed)

    # -- construction -------------------------------------------------------
    @classmethod
    def generate(
        cls,
        config: FaultConfig,
        *,
        seed: int,
        num_hosts: int,
        epochs: int,
        rounds_per_epoch: int,
    ) -> "FaultSchedule":
        """Materialize a schedule — a pure function of the arguments.

        Crash and straggler decisions are drawn slot by slot in a fixed
        ``(epoch, round, host)`` order so the realization does not depend
        on anything the run computes.  At most one crash is scheduled per
        round (simultaneous failures of the paper's scale are vanishingly
        rare; the recovery path itself supports any number).
        """
        if num_hosts <= 0:
            raise ValueError(f"num_hosts must be positive, got {num_hosts}")
        if epochs < 0 or rounds_per_epoch < 0:
            raise ValueError("epochs and rounds_per_epoch must be non-negative")
        rng = keyed_rng(int(seed), Domain.FAULT_SCHEDULE)
        crashes: dict[tuple[int, int], tuple[CrashEvent, ...]] = {}
        stragglers: dict[tuple[int, int, int], float] = {}
        lo, hi = config.straggler_factor
        crash_budget = (
            config.max_crashes if config.max_crashes is not None else epochs * rounds_per_epoch
        )
        for epoch in range(epochs):
            for s in range(rounds_per_epoch):
                round_events: list[CrashEvent] = []
                for host in range(num_hosts):
                    if config.crash_prob > 0.0:
                        u = float(rng.random())
                        if (
                            u < config.crash_prob
                            and crash_budget > 0
                            and not round_events
                        ):
                            round_events.append(
                                CrashEvent(
                                    epoch=epoch,
                                    round_index=s,
                                    host=host,
                                    loss_fraction=float(rng.random()),
                                )
                            )
                            crash_budget -= 1
                    if config.straggler_prob > 0.0:
                        if float(rng.random()) < config.straggler_prob:
                            stragglers[(epoch, s, host)] = float(rng.uniform(lo, hi))
                if round_events:
                    crashes[(epoch, s)] = tuple(round_events)
        message_seed = derive_seed(int(seed), Domain.FAULT_SCHEDULE, 1)
        return cls(
            config,
            num_hosts,
            epochs,
            rounds_per_epoch,
            crashes,
            stragglers,
            message_seed,
        )

    @classmethod
    def empty(cls, num_hosts: int, epochs: int = 0, rounds_per_epoch: int = 0) -> "FaultSchedule":
        """The explicit fault-free schedule (zero overhead when attached)."""
        return cls.generate(
            FaultConfig(),
            seed=0,
            num_hosts=num_hosts,
            epochs=epochs,
            rounds_per_epoch=rounds_per_epoch,
        )

    # -- queries ------------------------------------------------------------
    def crashes_at(self, epoch: int, round_index: int) -> tuple[CrashEvent, ...]:
        return self._crashes.get((epoch, round_index), ())

    def straggler_factor(self, epoch: int, round_index: int, host: int) -> float:
        return self._stragglers.get((epoch, round_index, host), 1.0)

    @property
    def has_crashes(self) -> bool:
        return bool(self._crashes)

    @property
    def has_message_faults(self) -> bool:
        return self.config.has_transient

    def all_crashes(self) -> list[CrashEvent]:
        return [ev for key in sorted(self._crashes) for ev in self._crashes[key]]

    def message_injector(self) -> "TransientFaultInjector | None":
        """A fresh per-run injector, or None when message faults are off.

        Returning None (rather than an inert injector) keeps the no-fault
        hot path in :class:`~repro.gluon.comm.SimulatedNetwork` branch-free.
        """
        if not self.has_message_faults:
            return None
        return TransientFaultInjector(
            drop_prob=self.config.drop_prob,
            corrupt_prob=self.config.corrupt_prob,
            max_retries=self.config.max_retries,
            backoff_s=self.config.retry_backoff_s,
            seed=self._message_seed,
        )

    def __repr__(self) -> str:
        return (
            f"FaultSchedule(hosts={self.num_hosts}, epochs={self.epochs}, "
            f"rounds={self.rounds_per_epoch}, crashes={len(self.all_crashes())}, "
            f"stragglers={len(self._stragglers)}, "
            f"message_faults={self.has_message_faults})"
        )


class TransientFaultInjector:
    """Per-message drop/corruption decisions with retransmit accounting.

    Consulted by :meth:`repro.gluon.comm.SimulatedNetwork.send` once per
    message.  A dropped message is retransmitted after an exponential
    backoff; a corrupted one is detected by its checksum, NACKed (one
    header-sized control message) and retransmitted.  Retransmission
    repeats until delivery succeeds or ``max_retries`` is exhausted, at
    which point the transport escalates to a link-level reroute (counted in
    ``escalations``) and delivers anyway — transient faults never lose
    payloads, they only cost bytes and time.

    Decisions come from a private stream; because the simulation sends
    messages in a deterministic order, the fault realization is a pure
    function of the injector seed.
    """

    def __init__(
        self,
        drop_prob: float,
        corrupt_prob: float,
        max_retries: int = 8,
        backoff_s: float = 1e-3,
        seed: int = 0,
    ):
        _check_probability("drop_prob", drop_prob)
        _check_probability("corrupt_prob", corrupt_prob)
        if drop_prob + corrupt_prob > 1.0:
            raise ValueError("drop_prob + corrupt_prob must not exceed 1")
        if max_retries < 1:
            raise ValueError(f"max_retries must be at least 1, got {max_retries}")
        self.drop_prob = float(drop_prob)
        self.corrupt_prob = float(corrupt_prob)
        self.max_retries = int(max_retries)
        self.backoff_s = float(backoff_s)
        self._rng = keyed_rng(int(seed), Domain.MESSAGE_FAULTS)
        # Cumulative counters (read via snapshot()).
        self.messages_seen = 0
        self.messages_dropped = 0
        self.messages_corrupted = 0
        self.retransmissions = 0
        self.escalations = 0
        self.resent_bytes = 0
        self.nack_bytes = 0
        self.backoff_total_s = 0.0

    def on_send(self, wire_bytes: int) -> tuple[int, float]:
        """Fault outcome for one message of ``wire_bytes`` on the wire.

        Returns ``(extra_bytes, delay_s)``: retransmitted payload bytes plus
        NACK control bytes, and the total backoff the phase barrier absorbs.
        """
        self.messages_seen += 1
        p_fail = self.drop_prob + self.corrupt_prob
        extra = 0
        delay = 0.0
        attempt = 0
        while attempt < self.max_retries:
            u = float(self._rng.random())
            if u >= p_fail:
                break  # delivered intact
            if u < self.drop_prob:
                self.messages_dropped += 1
            else:
                self.messages_corrupted += 1
                extra += HEADER_BYTES  # the NACK going back
                self.nack_bytes += HEADER_BYTES
            extra += wire_bytes  # the retransmission
            self.resent_bytes += wire_bytes
            self.retransmissions += 1
            delay += self.backoff_s * (2.0**attempt)
            attempt += 1
        else:
            self.escalations += 1
        self.backoff_total_s += delay
        return extra, delay

    def snapshot(self) -> dict[str, float]:
        return {
            "messages_seen": self.messages_seen,
            "messages_dropped": self.messages_dropped,
            "messages_corrupted": self.messages_corrupted,
            "retransmissions": self.retransmissions,
            "escalations": self.escalations,
            "resent_bytes": self.resent_bytes,
            "nack_bytes": self.nack_bytes,
            "backoff_s": self.backoff_total_s,
        }


@dataclass
class FaultReport:
    """Itemized cost of every fault a run absorbed.

    Attached to :class:`~repro.cluster.simulator.DistributedRunReport` when
    fault injection is enabled.  Time fields decompose
    :attr:`recovery_time_s`; byte fields decompose the traffic that exists
    only because faults happened.
    """

    # -- crash recovery -----------------------------------------------------
    crashes: int = 0
    detect_s: float = 0.0
    restore_s: float = 0.0
    replay_s: float = 0.0
    #: Bytes streamed from surviving masters to rebuild the dead host's replicas.
    recovery_bytes: int = 0
    #: Bytes read from stable storage (the dead host's own checkpoint block).
    checkpoint_restore_bytes: int = 0
    # -- transient message faults ------------------------------------------
    messages_dropped: int = 0
    messages_corrupted: int = 0
    retransmissions: int = 0
    escalations: int = 0
    resent_bytes: int = 0
    nack_bytes: int = 0
    backoff_s: float = 0.0
    # -- stragglers ---------------------------------------------------------
    straggler_rounds: int = 0
    straggler_extra_s: float = 0.0

    @property
    def recovery_time_s(self) -> float:
        """Modeled wall clock that exists only because faults happened."""
        return self.detect_s + self.restore_s + self.replay_s + self.backoff_s

    @property
    def fault_bytes(self) -> int:
        """Network bytes that exist only because faults happened."""
        return self.recovery_bytes + self.resent_bytes + self.nack_bytes

    @property
    def total_faults(self) -> int:
        return (
            self.crashes
            + self.messages_dropped
            + self.messages_corrupted
            + self.straggler_rounds
        )

    def absorb_injector(self, injector: TransientFaultInjector | None) -> None:
        """Copy the injector's cumulative counters (idempotent)."""
        if injector is None:
            return
        snap = injector.snapshot()
        self.messages_dropped = int(snap["messages_dropped"])
        self.messages_corrupted = int(snap["messages_corrupted"])
        self.retransmissions = int(snap["retransmissions"])
        self.escalations = int(snap["escalations"])
        self.resent_bytes = int(snap["resent_bytes"])
        self.nack_bytes = int(snap["nack_bytes"])
        self.backoff_s = float(snap["backoff_s"])

    def as_dict(self) -> dict:
        """Every counter plus the derived totals, JSON-ready."""
        out = {f.name: getattr(self, f.name) for f in fields(self)}
        out["recovery_time_s"] = self.recovery_time_s
        out["fault_bytes"] = self.fault_bytes
        out["total_faults"] = self.total_faults
        return out

    def summary(self) -> str:
        if self.total_faults == 0:
            return "no faults injected"
        return (
            f"{self.crashes} crash(es), {self.messages_dropped} drop(s), "
            f"{self.messages_corrupted} corruption(s), "
            f"{self.straggler_rounds} straggler round(s); "
            f"recovery {self.recovery_time_s:.3f}s, "
            f"{self.fault_bytes:,} fault bytes "
            f"({self.retransmissions} retransmissions)"
        )


def parse_fault_spec(spec: str) -> FaultConfig:
    """Parse the CLI's ``--faults`` value into a :class:`FaultConfig`.

    The spec is a comma-separated ``key=value`` list, e.g.
    ``"crash=0.02,drop=0.01,corrupt=0.005,straggler=0.1"``.  Short keys map
    to the config's rate fields; any full :class:`FaultConfig` field name is
    also accepted (``detect_timeout_s=0.5``).  An empty spec enables the
    subsystem with an all-zero (fault-free) configuration.  Every bad
    spec raises a ``ValueError`` that names the item or key at fault.
    """
    aliases = {
        "crash": "crash_prob",
        "drop": "drop_prob",
        "corrupt": "corrupt_prob",
        "straggler": "straggler_prob",
    }
    valid = {f.name for f in fields(FaultConfig)}
    kwargs: dict[str, object] = {}
    for item in filter(None, (part.strip() for part in spec.split(","))):
        if "=" not in item:
            raise ValueError(f"malformed fault spec item {item!r}; expected key=value")
        name, _, value = item.partition("=")
        key = aliases.get(name.strip(), name.strip())
        if key not in valid:
            raise ValueError(
                f"unknown fault spec key {key!r}; known: "
                f"{sorted(aliases)} or any FaultConfig field"
            )
        try:
            if key in ("max_crashes", "max_retries"):
                kwargs[key] = int(value)
            elif key == "straggler_factor":
                lo, _, hi = value.partition(":")
                kwargs[key] = (float(lo), float(hi or lo))
            else:
                kwargs[key] = float(value)
        except ValueError as exc:
            raise ValueError(
                f"fault spec key {name.strip()!r} ({key}): bad value {value!r} ({exc})"
            ) from None
    return FaultConfig(**kwargs)
