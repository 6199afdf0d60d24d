"""Static analysis and runtime sanitizers for determinism & race checking.

The simulator's headline invariants — bit-identical models across
communication plans, executors, and fault schedules — only hold if every
stochastic choice flows through the seed tree, no operator races on shared
state, and every mirror/master exchange follows the Gluon
reduce-then-broadcast protocol.  This package *checks* those disciplines
instead of trusting them:

- :mod:`repro.analysis.lint` — an AST-based linter with project-specific
  rules (unseeded RNG use, wall-clock in compute paths, nondeterministic
  set/dict iteration in sync code, closure mutation inside ``do_all``
  operators).  Run it as ``python -m repro.analysis [paths]``.
- :mod:`repro.analysis.dataflow` — interprocedural passes over a
  whole-package call graph (:mod:`repro.analysis.callgraph`) and
  per-function effect summaries (:mod:`repro.analysis.summaries`):
  statically-possible cross-chunk ``do_all`` overlaps (``REPRO111/112``).
  Run with ``python -m repro.analysis --dataflow [paths]``; numeric
  kernels opt out of body analysis with
  :func:`repro.analysis.effects.declare_effects`.
- :mod:`repro.analysis.runtime` — runtime sanitizers: a ``do_all`` data-race
  detector that shadow-records per-chunk NumPy access sets, and a
  :class:`~repro.analysis.runtime.GluonSyncChecker` that tracks per-field
  dirty/stale state across synchronization rounds.  Both observe and never
  perturb: a sanitized run is bit-identical to an unsanitized one.  Enable
  via ``GraphWord2Vec(sanitize=True)``, ``repro train --sanitize``, or
  ``REPRO_SANITIZE=1``.
"""

from repro._exports import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "dataflow": ("DATAFLOW_RULE_IDS",),
        "effects": ("declare_effects",),
        "lint": (
            "Finding",
            "Rule",
            "RULES",
            "lint_source",
            "main",
            "render_json",
            "render_text",
        ),
        "runtime": (
            "SANITIZE_ENV_VAR",
            "DoAllRaceSanitizer",
            "GluonSyncChecker",
            "SanitizedExecutor",
            "SanitizeError",
            "SanitizeFinding",
            "note_read",
            "note_write",
            "sanitize_from_env",
        ),
    },
)
