"""Chrome-trace export of a simulated run's timeline.

Serializes the modeled execution — per-step per-host compute intervals and
the priced communication phases — in the Chrome tracing JSON format, so a
distributed run can be inspected visually in ``chrome://tracing`` /
Perfetto.  Rows ("threads") are hosts; communication appears on a dedicated
row since a fold's phases are global.
"""

from __future__ import annotations

import json
from typing import TYPE_CHECKING

from repro.cluster.network import NetworkModel
from repro.gluon.comm import PhaseRecord

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.dgraph.async_engine import AsyncTimeline

__all__ = ["build_chrome_trace", "trace_json"]

_US = 1e6  # trace timestamps are microseconds

#: Below this, a slack interval is measurement noise, not a wait slice.
_WAIT_EPS_S = 1e-12


def _row_label(tid: int, name: str) -> dict:
    return {
        "name": "thread_name",
        "ph": "M",
        "pid": 0,
        "tid": tid,
        "args": {"name": name},
    }


def build_chrome_trace(
    timeline: "AsyncTimeline",
    phase_records: list[PhaseRecord],
    network_model: NetworkModel,
) -> list[dict]:
    """Trace events for one run (complete 'X' events).

    ``timeline`` is the :class:`~repro.dgraph.async_engine.AsyncTimeline`
    a trained ``GraphWord2Vec`` exposes: per-step ``(host, round, start_s,
    dur_s)`` compute intervals from the measured replay, the PullModel
    inspection that follows a step, recovery stalls, and fold times with
    their phase-record ranges.  Under the lock-step schedule every host's
    round starts at the previous fold; with ``staleness > 0`` compute
    slices of different rounds overlap across hosts.  Either way the slack
    a host spends blocked — on the barrier or the staleness bound — shows
    as ``wait`` slices between its steps (the breakdown's ``wait_s``
    bucket, made visible per host).
    """
    events: list[dict] = []

    def span(name: str, cat: str, tid: int, start_s: float, dur_s: float, **extra) -> None:
        if dur_s > 0:
            events.append(
                {
                    "name": name,
                    "ph": "X",
                    "pid": 0,
                    "tid": tid,
                    "ts": start_s * _US,
                    "dur": dur_s * _US,
                    "cat": cat,
                    **extra,
                }
            )

    inspect_s = {}
    for host, round_index, start_s, dur_s in timeline.inspections:
        span(f"inspect r{round_index}", "inspection", host, start_s, dur_s)
        inspect_s[(host, round_index)] = dur_s

    # A host is busy from a step's start to the end of the inspection that
    # follows it; from there to its next step (or the end of the run) it
    # waits.
    by_host: list[list[tuple]] = [[] for _ in range(timeline.num_hosts)]
    for step in timeline.steps:
        by_host[step[0]].append(step)
    for host, steps in enumerate(by_host):
        resumes = [step[2] for step in steps[1:]] + [timeline.makespan_s]
        for (_, round_index, start_s, dur_s), resume_s in zip(steps, resumes):
            span(f"compute r{round_index}", "compute", host, start_s, dur_s)
            busy_end = start_s + dur_s + inspect_s.get((host, round_index), 0.0)
            if resume_s - busy_end > _WAIT_EPS_S:
                span(f"wait r{round_index}", "wait", host, busy_end, resume_s - busy_end)

    # Crashed hosts restore and replay while survivors wait, so a crash
    # round's communication starts after its slowest recovery.
    recovered_by: dict[int, float] = {}
    for host, round_index, start_s, dur_s in timeline.recoveries:
        span(f"recover r{round_index}", "recovery", host, start_s, dur_s)
        recovered_by[round_index] = max(
            recovered_by.get(round_index, 0.0), start_s + dur_s
        )

    # The network row: each fold's phase records (its wave's refresh and
    # recovery phases included) play back-to-back starting no earlier than
    # the fold time (folds can outpace the modeled network, which then
    # queues).
    clock = 0.0
    for round_index, fold_s, rec_lo, rec_hi in timeline.folds:
        clock = max(clock, fold_s, recovered_by.get(round_index, 0.0))
        for record in phase_records[rec_lo:rec_hi]:
            duration = network_model.phase_time(record)
            span(
                f"{record.name} (fold r{round_index})",
                "communication",
                timeline.num_hosts,
                clock,
                duration,
                args={
                    "bytes": int(record.total_bytes),
                    "messages": int(record.messages),
                },
            )
            clock += duration

    events.extend(_row_label(host, f"host {host}") for host in range(timeline.num_hosts))
    events.append(_row_label(timeline.num_hosts, "network"))
    return events


def trace_json(
    timeline: "AsyncTimeline",
    phase_records: list[PhaseRecord],
    network_model: NetworkModel,
) -> str:
    """The trace as a JSON string ready for chrome://tracing."""
    return json.dumps(
        {"traceEvents": build_chrome_trace(timeline, phase_records, network_model)}
    )
