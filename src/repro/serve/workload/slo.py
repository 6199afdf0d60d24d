"""Service-level objectives and their verdicts.

An :class:`SLORule` pins one metric in one scope to a threshold —
``p99 latency <= 50 ms for tenant gold``, ``aggregate qps >= 500`` — and
:func:`evaluate_slos` turns rules plus a measured stats mapping into
:class:`SLOVerdict` pass/fail records.  Verdicts are what lands in
``BENCH_serve.json`` and what the CI serve job gates on: any failed
verdict makes ``repro serve-bench --workload`` exit 1.

Latency metrics default to upper bounds (``<=``); throughput and
hit-rate metrics default to lower bounds (``>=``).  A rule whose scope
is missing from the stats (an SLO for a tenant that received no
measurement-window queries) **fails** — a silent vacuous pass would hide
a misconfigured workload.
"""

from __future__ import annotations

from dataclasses import dataclass
import math

from repro.serve.workload.fields import json_fields
from repro.util.checks import number

__all__ = [
    "SLO_METRICS",
    "SLORule",
    "SLOVerdict",
    "evaluate_slos",
    "all_pass",
    "format_verdicts",
]

#: Every metric a rule may pin, with its default comparison direction.
SLO_METRICS = {
    "p50_ms": "<=",
    "p95_ms": "<=",
    "p99_ms": "<=",
    "qps": ">=",
    "cache_hit_rate": ">=",
    "queries": ">=",
}

AGGREGATE_SCOPE = "aggregate"


@dataclass(frozen=True)
class SLORule:
    """One objective: ``scope.metric op threshold``."""

    metric: str
    threshold: float
    scope: str = AGGREGATE_SCOPE
    op: str | None = None  # "<=" / ">="; None picks the metric's default

    def __post_init__(self) -> None:
        if self.metric not in SLO_METRICS:
            raise ValueError(
                f"unknown metric {self.metric!r}; expected one of "
                f"{sorted(SLO_METRICS)}"
            )
        if self.op is None:
            object.__setattr__(self, "op", SLO_METRICS[self.metric])
        elif self.op not in ("<=", ">="):
            raise ValueError(f"op must be '<=' or '>=', got {self.op!r}")
        if not self.scope:
            raise ValueError("scope must be non-empty")
        if not math.isfinite(self.threshold):
            raise ValueError(f"threshold must be finite, got {self.threshold}")

    def check(self, observed: float) -> bool:
        return observed <= self.threshold if self.op == "<=" else observed >= self.threshold

    def describe(self) -> str:
        return f"{self.scope}: {self.metric} {self.op} {self.threshold:g}"

    def as_dict(self) -> dict:
        return {
            "scope": self.scope,
            "metric": self.metric,
            "op": self.op,
            "threshold": self.threshold,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "SLORule":
        """Parse ``{"scope", "metric", "max" | "min" | ("threshold", "op")}``.

        ``max`` is sugar for an upper bound, ``min`` for a lower bound;
        exactly one of ``max``/``min``/``threshold`` must be present.
        """
        spec = json_fields(cls, data, "slos entry")
        bounds = [key for key in ("max", "min", "threshold") if key in spec]
        if len(bounds) != 1:
            raise ValueError(
                f"SLO rule needs exactly one of max/min/threshold, got {spec}"
            )
        bound = bounds[0]
        value = float(number(spec.pop(bound), f"slos entry field {bound!r}"))
        op = spec.pop("op", None)
        if bound == "max":
            op = "<="
        elif bound == "min":
            op = ">="
        try:
            return cls(threshold=value, op=op, **spec)
        except TypeError as exc:
            raise ValueError(f"bad SLO rule: {exc}") from None


@dataclass(frozen=True)
class SLOVerdict:
    """One rule's outcome against one run's measured stats."""

    rule: SLORule
    observed: float | None
    passed: bool
    detail: str = ""

    def as_dict(self) -> dict:
        return {
            **self.rule.as_dict(),
            "observed": self.observed,
            "passed": self.passed,
            "detail": self.detail,
        }

    def summary(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        observed = "n/a" if self.observed is None else f"{self.observed:g}"
        note = f" ({self.detail})" if self.detail else ""
        return f"{status}  {self.rule.describe()}  observed {observed}{note}"


def evaluate_slos(rules, stats: dict) -> list[SLOVerdict]:
    """Evaluate ``rules`` against a ``{scope: {metric: value}}`` mapping.

    ``stats`` carries one ``"aggregate"`` scope plus one scope per tenant
    (measurement-window values).  A missing scope or metric fails the
    rule with a diagnostic detail rather than passing vacuously.
    """
    verdicts: list[SLOVerdict] = []
    for rule in rules:
        scope_stats = stats.get(rule.scope)
        if scope_stats is None:
            verdicts.append(
                SLOVerdict(
                    rule,
                    None,
                    False,
                    f"scope {rule.scope!r} has no measured stats "
                    f"(known scopes: {sorted(stats)})",
                )
            )
            continue
        observed = scope_stats.get(rule.metric)
        if observed is None:
            verdicts.append(
                SLOVerdict(rule, None, False, f"metric {rule.metric!r} not measured")
            )
            continue
        verdicts.append(SLOVerdict(rule, float(observed), rule.check(float(observed))))
    return verdicts


def all_pass(verdicts) -> bool:
    """True when every verdict passed (vacuously true for no rules)."""
    return all(verdict.passed for verdict in verdicts)


def format_verdicts(verdicts) -> str:
    """One line per verdict, FAIL lines first (they gate CI)."""
    ordered = sorted(verdicts, key=lambda verdict: verdict.passed)
    return "\n".join(verdict.summary() for verdict in ordered)
