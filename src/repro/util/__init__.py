"""Small shared utilities: seeded RNG management, table rendering."""

from repro.util.rng import SeedSequenceTree, default_rng, spawn_rngs
from repro.util.tables import format_table, format_row

__all__ = [
    "SeedSequenceTree",
    "default_rng",
    "spawn_rngs",
    "format_table",
    "format_row",
]
