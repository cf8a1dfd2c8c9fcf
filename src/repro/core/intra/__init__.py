"""Intra-DBC placement heuristics (single-offset-assignment style).

Every heuristic shares one signature::

    order = heuristic(sequence, variables)

where ``sequence`` is the *full* access sequence and ``variables`` the
subset assigned to one DBC; the return value is those variables in their
intra-DBC location order. Heuristics see only the DBC-local subsequence,
exactly as the paper's two-stage decomposition prescribes (Sec. II-B).
"""

from repro.core.intra.ofu import ofu_order
from repro.core.intra.chen import chen_order
from repro.core.intra.shifts_reduce import shifts_reduce_order
from repro.core.intra.tsp import tsp_order
from repro.core.intra.optimal import optimal_order, optimal_intra_cost
from repro.core.intra.random_intra import random_order
from repro.core.intra.annealing import annealed_order
from repro.core.intra.pyramid import pyramid_order


def _default_annealed(sequence, variables):
    """Annealing with a fixed budget/seed, registry-signature compatible."""
    return annealed_order(sequence, variables, iterations=800, rng=0)


#: Registry of intra-DBC heuristics by the names used in policy strings.
INTRA_HEURISTICS = {
    "OFU": ofu_order,
    "Chen": chen_order,
    "SR": shifts_reduce_order,
    "TSP": tsp_order,
    "SA": _default_annealed,
    "Pyramid": pyramid_order,
    "Optimal": optimal_order,
}

__all__ = [
    "ofu_order",
    "chen_order",
    "shifts_reduce_order",
    "tsp_order",
    "optimal_order",
    "optimal_intra_cost",
    "random_order",
    "annealed_order",
    "pyramid_order",
    "INTRA_HEURISTICS",
]

