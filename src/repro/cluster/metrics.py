"""Per-run time accounting for the simulated cluster: the step ledger."""

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


class ClusterMetrics:
    """The ledger of a run's step seconds, per (global round, host).

    Each step a host executes books one entry, once, of four kinds
    (:attr:`KINDS`): ``compute`` — the modeled compute seconds, the
    ``measured`` ones times the slow-host factor the fault schedule gives
    that (round, host) slot (1.0 at full speed) — ``measured`` itself,
    ``inspection`` (PullModel's generation of the next slot) and
    ``recovery`` (a crashed step's detect, restore and replay stall).  The
    engine's measured replay, the Chrome trace timeline, the straggler
    accounting and :meth:`repro.cluster.simulator.DistributedRunReport.build`
    all read these entries; nothing else holds a step's seconds.

    Measurements are per-thread CPU time (``time.thread_time``), not wall
    time: whether the simulator executes hosts serially or overlaps them
    on real cores (``GraphWord2Vec(workers=...)``), the booked seconds —
    and every modeled figure derived from them — stay
    contention-independent and comparable across executors.

    Rows are keyed by global round, so training a round again (a
    checkpoint of an earlier round loaded into the same trainer)
    overwrites its entries.  :attr:`num_rounds` counts folds, which the
    engine advances; every round in the ledger has folded once ``train()``
    returns.
    """

    KINDS = ("compute", "measured", "inspection", "recovery")

    def __init__(self, num_hosts: int):
        if num_hosts <= 0:
            raise ValueError(f"num_hosts must be positive, got {num_hosts}")
        self.num_hosts = num_hosts
        #: Rounds folded so far, the one that raised a sanitizer finding
        #: included.
        self.num_rounds = 0
        self._rows: dict[int, np.ndarray] = {}  # round -> (len(KINDS), num_hosts)

    def record(
        self,
        round_index: int,
        host: int,
        *,
        compute: float,
        measured: float,
        inspection: float = 0.0,
        recovery: float = 0.0,
    ) -> None:
        """Book ``host``'s step of global round ``round_index``."""
        values = (compute, measured, inspection, recovery)
        if min(values) < 0:
            raise ValueError(f"negative time in {dict(zip(self.KINDS, values))}")
        row = self._rows.get(round_index)
        if row is None:
            row = self._rows[round_index] = np.zeros((len(self.KINDS), self.num_hosts))
        row[:, host] = values

    def seconds(self, round_index: int, kind: str) -> np.ndarray:
        """One round's ``kind`` seconds per host (a read-only view)."""
        view = self._rows[round_index][self.KINDS.index(kind)]
        view.flags.writeable = False
        return view

    def table(self, kind: str) -> np.ndarray:
        """``(rounds, num_hosts)`` ``kind`` seconds, rounds ascending
        (read-only)."""
        k = self.KINDS.index(kind)
        out = np.array([self._rows[g][k] for g in sorted(self._rows)]).reshape(
            -1, self.num_hosts
        )
        out.flags.writeable = False
        return out
