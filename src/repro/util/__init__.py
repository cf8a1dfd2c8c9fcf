"""Small shared utilities: seeded RNG handling, math helpers, tables."""

from repro.util.mathx import geometric_mean, percent_improvement, safe_div
from repro.util.rng import ensure_rng, spawn_rng, spawn_seeds
from repro.util.tables import format_table

__all__ = [
    "ensure_rng",
    "spawn_rng",
    "spawn_seeds",
    "geometric_mean",
    "percent_improvement",
    "safe_div",
    "format_table",
]
