"""Benchmark-harness experiments reproducing every table and figure (§5).

Each module exposes ``run(...)`` returning structured rows and a
``format_result(...)`` printer that emits the same rows/series the paper
reports.  ``benchmarks/`` wraps these in pytest-benchmark entry points; the
modules are also directly runnable (``python -m repro.experiments.table2``).

Scale deviations from the paper (documented in EXPERIMENTS.md): synthetic
corpora ~10^3-10^4 x smaller, dim 200 -> 64, negatives 15 -> 10, epochs
16 -> 8 (figures) so the full suite completes on one laptop core.
"""

from repro._exports import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {},
    submodules=("datasets", "fig6", "fig7", "fig8", "fig9", "stats", "table1", "table23"),
)
