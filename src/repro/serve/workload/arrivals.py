"""Seed-deterministic arrival processes and concurrency ramps.

Every process answers one question — *when does the i-th query arrive?* —
as a pure function of ``(process parameters, seed)``.  Arrival times are
**modeled** microseconds: they stamp Chrome traces and drive the
open-loop batching decisions of :mod:`repro.serve.workload.runner`, and
because they never read the wall clock, the batch composition they
induce is bit-stable run to run and invariant to executor width.

Two processes cover the traffic shapes the serving tier has to survive:

- :class:`PoissonArrivals` — memoryless traffic at a constant offered
  rate (exponential inter-arrival gaps).  This is the process the PR-4
  load generator hard-coded; :func:`arrival_times_us` reproduces that
  stream bit-for-bit for the same seed.
- :class:`BurstArrivals` — periodic burst trains: a quiet base rate
  interrupted every period by a short high-rate window (thundering
  herds, cache-stampede shapes).

Bursts are generated by time-warping: draw the partial sums of a
unit-rate Poisson process, then invert the piecewise-linear cumulative
intensity ``Λ(t)`` exactly.  One rng draw per query, so streams of
different lengths share a prefix.

:class:`RampStage` describes closed-loop *concurrency* ramps — how many
simulated users issue queries simultaneously — consumed by the runner's
closed-loop mode.
"""

from __future__ import annotations

from dataclasses import dataclass
import math
from typing import Protocol, runtime_checkable

import numpy as np

from repro.serve.workload.fields import json_fields, json_object
from repro.util.checks import positive_finite
from repro.util.rng import Domain, keyed_rng

__all__ = [
    "ArrivalProcess",
    "PoissonArrivals",
    "BurstArrivals",
    "RampStage",
    "arrival_times_us",
    "arrivals_from_dict",
]

_US = 1e6


@runtime_checkable
class ArrivalProcess(Protocol):
    """The arrival-process contract.

    ``times_us(n, rng)`` returns ``n`` non-decreasing modeled arrival
    timestamps in microseconds, consuming only ``rng`` for randomness;
    ``as_dict()`` returns the JSON form ``{"kind": ..., ...}`` that
    :func:`arrivals_from_dict` parses back.
    """

    def times_us(self, n: int, rng: np.random.Generator) -> np.ndarray: ...

    def as_dict(self) -> dict: ...


def _check_n(n: int) -> int:
    if n < 0:
        raise ValueError(f"n must be non-negative, got {n}")
    return int(n)


def _unit_poisson_sums(n: int, rng: np.random.Generator) -> np.ndarray:
    """Partial sums of a unit-rate Poisson process (the warp input)."""
    return np.cumsum(rng.exponential(1.0, size=n))


@dataclass(frozen=True)
class PoissonArrivals:
    """Constant-rate memoryless arrivals at ``qps`` queries per second."""

    qps: float = 2000.0

    def __post_init__(self) -> None:
        positive_finite(self.qps, "qps")

    def times_us(self, n: int, rng: np.random.Generator) -> np.ndarray:
        # Exactly the PR-4 formulation (gaps, then cumsum, then scale):
        # the legacy single-stream schedule must stay bit-identical.
        gaps = rng.exponential(1.0 / self.qps, size=_check_n(n))
        return np.cumsum(gaps) * _US

    def as_dict(self) -> dict:
        return {"kind": "poisson", "qps": self.qps}


def _invert_piecewise(
    sums: np.ndarray, knots_t: np.ndarray, knots_intensity: np.ndarray
) -> np.ndarray:
    """Invert a piecewise-linear cumulative intensity exactly.

    ``np.interp`` on the (intensity, time) knot arrays is the exact
    inverse of a piecewise-constant rate, provided the knots extend past
    ``sums[-1]`` (callers guarantee coverage).
    """
    return np.interp(sums, knots_intensity, knots_t) * _US


@dataclass(frozen=True)
class BurstArrivals:
    """Periodic burst trains over a quiet base rate.

    Each ``period_s`` opens with a ``burst_s``-long window at
    ``burst_qps``; the remainder of the period runs at ``base_qps``.
    """

    base_qps: float = 500.0
    burst_qps: float = 5000.0
    period_s: float = 1.0
    burst_s: float = 0.1

    def __post_init__(self) -> None:
        for name in ("base_qps", "burst_qps", "period_s", "burst_s"):
            positive_finite(getattr(self, name), name)
        if self.burst_s >= self.period_s:
            raise ValueError(
                f"burst_s ({self.burst_s}) must be shorter than period_s "
                f"({self.period_s})"
            )

    def times_us(self, n: int, rng: np.random.Generator) -> np.ndarray:
        sums = _unit_poisson_sums(_check_n(n), rng)
        if sums.size == 0:
            return sums * _US
        per_period = (
            self.burst_qps * self.burst_s
            + self.base_qps * (self.period_s - self.burst_s)
        )
        periods = int(math.ceil(sums[-1] / per_period)) + 1
        knots_t = np.empty(2 * periods + 1)
        knots_i = np.empty(2 * periods + 1)
        knots_t[0] = knots_i[0] = 0.0
        for p in range(periods):
            start = p * self.period_s
            knots_t[2 * p + 1] = start + self.burst_s
            knots_i[2 * p + 1] = knots_i[2 * p] + self.burst_qps * self.burst_s
            knots_t[2 * p + 2] = start + self.period_s
            knots_i[2 * p + 2] = knots_i[2 * p + 1] + self.base_qps * (
                self.period_s - self.burst_s
            )
        return _invert_piecewise(sums, knots_t, knots_i)

    def as_dict(self) -> dict:
        return {
            "kind": "burst",
            "base_qps": self.base_qps,
            "burst_qps": self.burst_qps,
            "period_s": self.period_s,
            "burst_s": self.burst_s,
        }


@dataclass(frozen=True)
class RampStage:
    """One closed-loop concurrency stage: ``concurrency`` simulated users
    issue ``queries`` queries in lock-step waves; ``queries == 0`` means
    "until the stream is exhausted" (only meaningful for the last stage).
    """

    concurrency: int
    queries: int = 0

    def __post_init__(self) -> None:
        if self.concurrency <= 0:
            raise ValueError(
                f"concurrency must be positive, got {self.concurrency}"
            )
        if self.queries < 0:
            raise ValueError(f"queries must be non-negative, got {self.queries}")

    def as_dict(self) -> dict:
        return {"concurrency": self.concurrency, "queries": self.queries}


def arrival_times_us(process: ArrivalProcess, n: int, seed: int) -> np.ndarray:
    """The modeled arrival timestamps of ``process`` for ``n`` queries.

    The rng derives from ``(seed, arrival domain)`` — the same stream the
    PR-4 load generator used — so a :class:`PoissonArrivals` schedule is
    bit-identical to the legacy fixed schedule for the same seed.
    """
    return process.times_us(n, keyed_rng(seed, Domain.ARRIVAL))


def arrivals_from_dict(data: dict) -> ArrivalProcess:
    """Parse an arrival process from its ``as_dict`` JSON form."""
    spec = dict(json_object(data, "arrivals"))
    kind = spec.pop("kind", None)
    builders = {"poisson": PoissonArrivals, "burst": BurstArrivals}
    try:
        if kind in builders:
            return builders[kind](**json_fields(builders[kind], spec, "arrivals"))
    except TypeError as exc:
        raise ValueError(f"bad arrival spec for kind {kind!r}: {exc}") from None
    raise ValueError(
        f"unknown arrival kind {kind!r}; expected one of {sorted(builders)}"
    )
