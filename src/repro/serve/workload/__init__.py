"""The serving tier's one load harness: workload specs, one report, SLO verdicts.

Every load run goes through :func:`run_workload` and yields a
:class:`WorkloadReport` (the llm-load-test shape: plugin backends,
simulated users, SLO-oriented reporting); ``repro.serve.loadgen.run_load``
is the single-tenant Poisson special case, spelled as a spec:

- :mod:`~repro.serve.workload.plugins` — named backend builders over the
  one ``search(queries, k)`` surface: ``exact``, ``ivf``, ``ivf-int8``,
  ``sharded`` (each clears a recall@10 floor against ``exact``);
  :func:`register_backend` adds more,
- :mod:`~repro.serve.workload.arrivals` — seed-deterministic arrival
  processes (Poisson, burst trains) and closed-loop concurrency
  :class:`RampStage` ramps,
- :mod:`~repro.serve.workload.tenants` — weighted tenant mixes with
  per-tenant Zipf skew, vocabulary subsets, and QoS classes,
- :mod:`~repro.serve.workload.slo` — SLO rules (``p99 < X ms at Y
  QPS``, per-tenant and aggregate) evaluating to pass/fail verdicts,
- :mod:`~repro.serve.workload.spec` — the JSON workload document
  (:class:`WorkloadSpec`) the CLI consumes, and the synthetic clustered
  store (:class:`StoreSpec`, :func:`clustered_matrix`) it serves over;
  its loaders read JSON through :mod:`~repro.serve.workload.fields`, so
  a mistyped field is a ``ValueError`` naming it,
- :mod:`~repro.serve.workload.runner` — :func:`run_workload`, driving a
  backend in open- or closed-loop mode with warm-up vs measurement
  windows and emitting a :class:`WorkloadReport` (the answers
  fingerprint, percentiles, JSON and Chrome-trace export live here and
  nowhere else).

The determinism contract is the serving tier's: everything modeled
(query stream, batch composition, cache accounting, answers) is a pure
function of the spec and bit-stable across executor widths; only
measured wall-clock stats — what SLO verdicts judge — vary run to run.
"""

from repro._exports import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "arrivals": (
            "ArrivalProcess",
            "BurstArrivals",
            "PoissonArrivals",
            "RampStage",
            "arrival_times_us",
            "arrivals_from_dict",
        ),
        "plugins": ("available_backends", "build_backend", "register_backend"),
        "runner": ("WorkloadReport", "format_reports", "run_workload"),
        "slo": (
            "SLORule",
            "SLOVerdict",
            "all_pass",
            "evaluate_slos",
            "format_verdicts",
        ),
        "spec": ("StoreSpec", "WorkloadSpec", "clustered_matrix"),
        "tenants": ("QOS_CLASSES", "TenantMix", "TenantSpec"),
    },
)
