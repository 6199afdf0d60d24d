"""Per-run metric collection for the simulated cluster."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["TimeBreakdown", "ClusterMetrics"]


@dataclass
class TimeBreakdown:
    """Modeled wall-clock split the way Figure 9 reports it.

    ``compute_s`` is *busy* compute — the mean over hosts, summed over
    rounds — and ``wait_s`` is the slack between that and the execution's
    makespan: under BSP (``staleness=0``) it is exactly the time hosts
    idle at round barriers waiting for the slowest host (straggler time),
    at ``staleness>0`` whatever blocking the staleness bound still forces.
    ``compute_s + wait_s`` therefore equals the compute-phase critical
    path (for BSP: the sum over rounds of the per-round max), keeping
    ``total_s`` identical to the pre-wait-bucket breakdown.

    ``recovery_s`` is the time that exists only because faults happened
    (crash detection, checkpoint restore, chunk replay, retransmission
    backoff); it is 0.0 for fault-free runs, keeping their totals
    identical to the pre-fault-model breakdown.
    """

    compute_s: float = 0.0
    communication_s: float = 0.0
    inspection_s: float = 0.0
    recovery_s: float = 0.0
    wait_s: float = 0.0

    @property
    def total_s(self) -> float:
        return (
            self.compute_s
            + self.communication_s
            + self.inspection_s
            + self.recovery_s
            + self.wait_s
        )

    def __add__(self, other: "TimeBreakdown") -> "TimeBreakdown":
        return TimeBreakdown(
            compute_s=self.compute_s + other.compute_s,
            communication_s=self.communication_s + other.communication_s,
            inspection_s=self.inspection_s + other.inspection_s,
            recovery_s=self.recovery_s + other.recovery_s,
            wait_s=self.wait_s + other.wait_s,
        )


class ClusterMetrics:
    """Collects per-round per-host compute measurements.

    A real cluster runs hosts concurrently, so each BSP round's compute
    contributes its *maximum* per-host time to the modeled wall clock.  The
    trainer feeds this with per-thread CPU time (``time.thread_time``), not
    wall time: whether the simulator executes hosts serially or overlaps
    them on real cores (``GraphWord2Vec(workers=...)``), the recorded
    per-host seconds — and hence every modeled figure derived here — stay
    contention-independent and comparable across executors.
    """

    def __init__(self, num_hosts: int):
        if num_hosts <= 0:
            raise ValueError(f"num_hosts must be positive, got {num_hosts}")
        self.num_hosts = num_hosts
        self._rounds: list[np.ndarray] = []
        self._inspection_rounds: list[np.ndarray] = []
        self._recovery_rounds: list[np.ndarray] = []
        self._current: np.ndarray | None = None
        self._current_inspection: np.ndarray | None = None
        self._current_recovery: np.ndarray | None = None

    # -- round lifecycle ----------------------------------------------------
    def begin_round(self) -> None:
        if self._current is not None:
            raise RuntimeError("previous round not ended")
        self._current = np.zeros(self.num_hosts)
        self._current_inspection = np.zeros(self.num_hosts)
        self._current_recovery = np.zeros(self.num_hosts)

    def record_compute(self, host: int, seconds: float) -> None:
        if self._current is None:
            raise RuntimeError("no active round")
        if seconds < 0:
            raise ValueError(f"negative time {seconds}")
        self._current[host] += seconds

    def record_inspection(self, host: int, seconds: float) -> None:
        if self._current_inspection is None:
            raise RuntimeError("no active round")
        if seconds < 0:
            raise ValueError(f"negative time {seconds}")
        self._current_inspection[host] += seconds

    def record_recovery(self, host: int, seconds: float) -> None:
        """Time ``host`` spent recovering from a fault this round.

        Recovery stalls the round barrier, so like compute it contributes
        its per-round maximum to the modeled wall clock (concurrent
        recoveries of distinct hosts overlap).
        """
        if self._current_recovery is None:
            raise RuntimeError("no active round")
        if seconds < 0:
            raise ValueError(f"negative time {seconds}")
        self._current_recovery[host] += seconds

    def end_round(self) -> None:
        if self._current is None:
            raise RuntimeError("no active round")
        self._rounds.append(self._current)
        self._inspection_rounds.append(self._current_inspection)
        self._recovery_rounds.append(self._current_recovery)
        self._current = None
        self._current_inspection = None
        self._current_recovery = None

    # -- aggregation -----------------------------------------------------------
    @property
    def num_rounds(self) -> int:
        return len(self._rounds)

    @staticmethod
    def _readonly(rounds: list[np.ndarray]) -> tuple[np.ndarray, ...]:
        views = []
        for r in rounds:
            v = r.view()
            v.flags.writeable = False
            views.append(v)
        return tuple(views)

    @property
    def compute_rounds(self) -> tuple[np.ndarray, ...]:
        """Per-round measured compute seconds, one ``(num_hosts,)`` array each.

        Read-only views over completed rounds — the public contract for
        anything reading a run's per-round history.
        """
        return self._readonly(self._rounds)

    @property
    def inspection_rounds(self) -> tuple[np.ndarray, ...]:
        """Per-round measured inspection seconds (read-only views)."""
        return self._readonly(self._inspection_rounds)

    @property
    def recovery_rounds(self) -> tuple[np.ndarray, ...]:
        """Per-round modeled fault-recovery seconds (read-only views)."""
        return self._readonly(self._recovery_rounds)

    def modeled_compute_s(self) -> float:
        """Sum over rounds of the slowest host's compute time."""
        return float(sum(r.max() for r in self._rounds))

    def modeled_busy_s(self) -> float:
        """Sum over rounds of the *mean* per-host compute time.

        The busy fraction of the compute critical path: what hosts spend
        actually computing rather than idling at the round barrier.  The
        difference ``modeled_compute_s() - modeled_busy_s()`` is the BSP
        barrier wait (straggler slack) the report's ``wait_s`` bucket
        carries.
        """
        return float(sum(r.mean() for r in self._rounds))

    def modeled_inspection_s(self) -> float:
        return float(sum(r.max() for r in self._inspection_rounds))

    def modeled_recovery_s(self) -> float:
        """Sum over rounds of the slowest host's recovery stall."""
        return float(sum(r.max() for r in self._recovery_rounds))

    def sequential_compute_s(self) -> float:
        """Total measured compute across all hosts (1-host equivalent work)."""
        return float(sum(r.sum() for r in self._rounds))

    def per_host_compute_s(self) -> np.ndarray:
        if not self._rounds:
            return np.zeros(self.num_hosts)
        return np.sum(self._rounds, axis=0)
