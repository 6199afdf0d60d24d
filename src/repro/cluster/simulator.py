"""Run reports combining measured compute with modeled communication."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.cluster.faults import FaultReport
from repro.cluster.metrics import ClusterMetrics, TimeBreakdown
from repro.cluster.network import NetworkModel
from repro.gluon.comm import SimulatedNetwork
from repro.gluon.sync import RECOVERY_PHASE

__all__ = ["DistributedRunReport"]


@dataclass
class DistributedRunReport:
    """Everything the benchmark harness prints about one distributed run."""

    num_hosts: int
    sync_rounds_per_epoch: int
    epochs: int
    plan: str
    combiner: str
    breakdown: TimeBreakdown
    comm_bytes: int
    comm_messages: int
    bytes_by_phase: dict[str, int] = field(default_factory=dict)
    sequential_compute_s: float = 0.0
    pairs_processed: int = 0
    peak_replica_rows: int = 0  # PullModel memory footprint (rows resident)
    #: Itemized fault costs; None when fault injection was not enabled.
    faults: FaultReport | None = None

    @property
    def total_time_s(self) -> float:
        return self.breakdown.total_s

    @classmethod
    def build(
        cls,
        *,
        num_hosts: int,
        sync_rounds_per_epoch: int,
        epochs: int,
        plan: str,
        combiner: str,
        metrics: ClusterMetrics,
        network: SimulatedNetwork,
        model: NetworkModel,
        pairs_processed: int = 0,
        peak_replica_rows: int = 0,
        fault_report: FaultReport | None = None,
        makespan_s: float,
    ) -> "DistributedRunReport":
        """``makespan_s`` is the compute-phase critical path: the engine's
        replayed event-order makespan.  Under the lock-step schedule it is
        the sum over rounds of the slowest host; under bounded staleness
        the slack it buys shows up as a smaller ``wait_s`` rather than
        being invisible inside per-round maxima.
        """
        # Restore traffic (phases named "recovery:*") is a fault cost, not
        # steady-state communication — price it into the recovery bucket so
        # a fault-free run's communication_s is unchanged by this split.
        regular = [r for r in network.phase_records if not r.name.startswith(RECOVERY_PHASE)]
        restore = [r for r in network.phase_records if r.name.startswith(RECOVERY_PHASE)]
        comm_s = model.total_time(regular)
        # Concurrent hosts overlap: a round's inspection and recovery stalls
        # cost their slowest host.  Recovery adds restore traffic and
        # retransmission backoff to the ledger's stalls.
        compute = metrics.table("compute")
        recovery_s = float(sum(r.max() for r in metrics.table("recovery")))
        recovery_s += model.total_time(restore)
        if fault_report is not None:
            recovery_s += fault_report.backoff_s
        # Split the compute critical path into busy time (mean over hosts)
        # and barrier/staleness wait, so straggler slack is attributable.
        busy_s = float(sum(r.mean() for r in compute))
        breakdown = TimeBreakdown(
            compute_s=busy_s,
            communication_s=comm_s,
            inspection_s=float(sum(r.max() for r in metrics.table("inspection"))),
            recovery_s=recovery_s,
            wait_s=max(0.0, makespan_s - busy_s),
        )
        # Group phase bytes by kind (reduce/broadcast/request), dropping the
        # per-field suffix for readability.
        by_phase: dict[str, int] = {}
        for name, nbytes in sorted(network.stats.bytes_by_phase.items()):
            kind = name.split(":", 1)[0]
            by_phase[kind] = by_phase.get(kind, 0) + nbytes
        return cls(
            num_hosts=num_hosts,
            sync_rounds_per_epoch=sync_rounds_per_epoch,
            epochs=epochs,
            plan=plan,
            combiner=combiner,
            breakdown=breakdown,
            comm_bytes=network.total_bytes,
            comm_messages=network.total_messages,
            bytes_by_phase=by_phase,
            sequential_compute_s=float(sum(r.sum() for r in compute)),
            pairs_processed=pairs_processed,
            peak_replica_rows=peak_replica_rows,
            faults=fault_report,
        )
