"""Multi-seed repetition statistics for experiments.

Single-seed results can mislead at small scale; this utility repeats any
seed-parameterized measurement and reports mean, standard deviation, and a
Student-t 95% confidence interval — the minimal statistical hygiene for
reporting stochastic training results.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

__all__ = ["RunStatistics", "repeat_runs"]


@dataclass(frozen=True)
class RunStatistics:
    """Summary of repeated measurements."""

    values: tuple[float, ...]
    mean: float
    std: float  # sample standard deviation (ddof=1)
    stderr: float
    ci95_low: float
    ci95_high: float

    @property
    def n(self) -> int:
        return len(self.values)

    def __str__(self) -> str:
        return (
            f"{self.mean:.4f} ± {self.stderr:.4f} "
            f"(95% CI [{self.ci95_low:.4f}, {self.ci95_high:.4f}], n={self.n})"
        )


def repeat_runs(
    measure: Callable[[int], float],
    seeds: Sequence[int],
) -> RunStatistics:
    """Evaluate ``measure(seed)`` for each seed and summarize.

    At least two seeds are required (a confidence interval needs variance);
    for a single observation report the raw value instead.
    """
    if len(seeds) < 2:
        raise ValueError(f"need >= 2 seeds for statistics, got {len(seeds)}")
    values = np.array([float(measure(int(s))) for s in seeds], dtype=np.float64)
    n = len(values)
    mean = float(values.mean())
    std = float(values.std(ddof=1))
    stderr = std / np.sqrt(n)
    # scipy.stats costs 0.4 s to import; only this call needs it.
    from scipy.stats import t as student_t

    half_width = float(student_t.ppf(0.975, df=n - 1) * stderr)
    return RunStatistics(
        values=tuple(float(v) for v in values),
        mean=mean,
        std=std,
        stderr=float(stderr),
        ci95_low=mean - half_width,
        ci95_high=mean + half_width,
    )
