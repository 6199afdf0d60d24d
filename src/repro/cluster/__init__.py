"""Simulated-cluster timing: network cost model and per-run reports.

The simulated hosts execute one after another on a single core; their
*algorithmic* behaviour (what each host computes and communicates) is exactly
the paper's BSP semantics, and the wall-clock a real cluster would see is
reconstructed from (a) measured per-host compute seconds, taking the maximum
across hosts per round, and (b) an α–β model over the exact per-phase byte
counts recorded by :class:`repro.gluon.comm.SimulatedNetwork`.  See DESIGN.md
§3 for why this substitution preserves the paper's claims.
"""

from repro._exports import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "faults": (
            "CrashEvent",
            "FaultConfig",
            "FaultReport",
            "FaultSchedule",
            "TransientFaultInjector",
            "UnrecoverableFaultError",
            "parse_fault_spec",
        ),
        "metrics": ("ClusterMetrics", "TimeBreakdown"),
        "network": ("NetworkModel",),
        "simulator": ("DistributedRunReport",),
        "trace": ("build_chrome_trace", "trace_json"),
    },
)
