"""Small shared utilities: seeded RNG management, table rendering, and the
one on-disk artifact format (:mod:`repro.util.artifact`)."""

from repro._exports import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "rng": ("SeedSequenceTree", "default_rng", "spawn_rngs"),
        "tables": ("format_table", "format_row"),
    },
)
