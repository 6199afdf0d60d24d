"""Bulk-synchronous-parallel execution driver.

Distributed graph analytics in D-Galois runs in rounds: every host applies
the operator to its partition (computation), then all hosts synchronize
labels through Gluon (communication), until global quiescence.  The
:class:`BSPEngine` encodes that loop once so applications only provide the
per-host compute function and the sync call.

Transient message faults (drops/corruption) are retried with backoff
*inside* the synchronization phase; attach
``schedule.message_injector()`` to the application's
:class:`~repro.gluon.comm.SimulatedNetwork` to enable them.

Under ``REPRO_SANITIZE=1`` (:func:`~repro.analysis.runtime.sanitize_from_env`)
an engine built without a ``sync_checker`` audits its rounds with a
:class:`~repro.analysis.runtime.GluonSyncChecker`, so the applications on
the loop (sssp, cc) are checked whenever the sanitizers are on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.analysis.runtime import GluonSyncChecker, SanitizeError, sanitize_from_env
from repro.gluon.sync import ValueSyncResult

__all__ = ["BSPEngine", "RoundStats"]


@dataclass
class RoundStats:
    """One BSP round's outcome."""

    round_index: int
    local_work: int  # items processed across hosts this round
    sync_changed: bool


class BSPEngine:
    """Round loop with global quiescence detection.

    ``compute(host, round_index) -> int`` performs host-local work and
    returns the number of items it processed; ``sync() -> ValueSyncResult``
    performs the Gluon synchronization.  The loop terminates when a round
    does no local work anywhere *and* synchronization changes nothing
    (the distributed termination condition of topology/data-driven
    algorithms), or when ``max_rounds`` is hit.
    """

    def __init__(
        self,
        num_hosts: int,
        max_rounds: int = 10_000,
        sync_checker: GluonSyncChecker | None = None,
    ):
        """``sync_checker`` observes each round's outcome for protocol
        violations — e.g. a synchronization that changes labels in a round
        where no host did local work — and :meth:`run` raises
        :class:`~repro.analysis.runtime.SanitizeError` at quiescence if it
        collected any.  ``None`` attaches a fresh checker when
        ``REPRO_SANITIZE`` is set."""
        if num_hosts <= 0:
            raise ValueError(f"num_hosts must be positive, got {num_hosts}")
        if max_rounds <= 0:
            raise ValueError(f"max_rounds must be positive, got {max_rounds}")
        self.num_hosts = num_hosts
        self.max_rounds = max_rounds
        if sync_checker is None and sanitize_from_env():
            sync_checker = GluonSyncChecker()
        self.sync_checker = sync_checker
        self.history: list[RoundStats] = []

    def run(
        self,
        compute: Callable[[int, int], int],
        sync: Callable[[], ValueSyncResult],
        work_pending: Callable[[int], bool] | None = None,
    ) -> int:
        """Execute rounds to quiescence; returns the number of rounds run."""
        self.history.clear()
        for round_index in range(self.max_rounds):
            local_work = 0
            for host in range(self.num_hosts):
                local_work += int(compute(host, round_index))

            result = sync()
            if self.sync_checker is not None:
                self.sync_checker.observe_bsp_round(round_index, local_work, result)
            stats = RoundStats(
                round_index=round_index,
                local_work=local_work,
                sync_changed=result.any_changed,
            )
            self.history.append(stats)
            pending = (
                any(work_pending(h) for h in range(self.num_hosts))
                if work_pending is not None
                else False
            )
            if local_work == 0 and not result.any_changed and not pending:
                if self.sync_checker is not None and self.sync_checker.findings:
                    raise SanitizeError(
                        self.sync_checker.findings, context=f"BSP round {round_index}"
                    )
                return round_index + 1
        raise RuntimeError(
            f"BSP loop did not quiesce within {self.max_rounds} rounds"
        )
