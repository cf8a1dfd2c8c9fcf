"""Lower bounds on the intra-DBC shift cost.

The exact DP (:mod:`repro.core.intra.optimal`) certifies heuristic
quality only up to ~16 variables. These bounds hold for any size and let
the evaluation report provable optimality gaps on the real suite:

* **edge bound** — every access-graph edge costs at least its weight
  (adjacent placement is the best case, distance 1);
* **degree bound** — a vertex with ``d`` weighted neighbour slots must
  place its edges at distances 1, 1, 2, 2, 3, 3, ...; summing the
  cheapest assignment of each vertex's incident weight to those slots
  and halving (each edge counted at both ends) tightens the edge bound.

Both are classic minimum-linear-arrangement bounds, valid here because
single-port intra-DBC cost *is* a weighted linear arrangement
(docs/substitution.md). :func:`sampled_intra_upper_bound` closes the bracket
from above: it scores a whole population of random intra orders in one
batched engine pass, so the reported ``[LB, UB]`` interval is cheap even
on DBCs far beyond the exact DP's reach.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.engine import evaluate_batch
from repro.trace.graph import AccessGraph
from repro.trace.sequence import AccessSequence
from repro.util.rng import ensure_rng


def edge_lower_bound(sequence: AccessSequence, variables: Sequence[str]) -> int:
    """Sum of edge weights: every consecutive distinct pair shifts >= 1."""
    variables = list(variables)
    if len(variables) <= 1:
        return 0
    local = sequence.restricted_to(variables)
    return AccessGraph(local).total_weight()


def degree_lower_bound(sequence: AccessSequence, variables: Sequence[str]) -> int:
    """The degree (1,1,2,2,3,3,...) bound, at least as tight as the edge bound."""
    variables = list(variables)
    if len(variables) <= 1:
        return 0
    local = sequence.restricted_to(variables)
    graph = AccessGraph(local)
    total = 0.0
    for v in variables:
        weights = sorted(graph.neighbors(v).values(), reverse=True)
        # heaviest edges get the closest slots: distances 1,1,2,2,3,3,...
        for rank, w in enumerate(weights):
            distance = rank // 2 + 1
            total += w * distance
    return int(-(-total // 2))  # ceil of half (each edge counted twice)


def intra_lower_bound(sequence: AccessSequence, variables: Sequence[str]) -> int:
    """The best available lower bound for one DBC's shift cost."""
    return max(
        edge_lower_bound(sequence, variables),
        degree_lower_bound(sequence, variables),
    )


def sampled_intra_upper_bound(
    sequence: AccessSequence,
    variables: Sequence[str],
    samples: int = 128,
    rng: int | np.random.Generator | None = None,
) -> int:
    """Best shift cost among ``samples`` random intra orders of one DBC.

    An *upper* bound on the DBC's optimal intra cost, complementing the
    lower bounds above. The candidate permutations are enumerated as a
    ``(samples, |vars|)`` position matrix and scored in one batched
    engine pass — per-sample cost is one row of a gather, not a trace
    replay.
    """
    variables = list(variables)
    if len(variables) <= 1:
        return 0
    if samples < 1:
        samples = 1
    gen = ensure_rng(rng)
    local = sequence.restricted_to(variables)
    n = local.num_variables
    pos_of = np.empty((samples, n), dtype=np.int64)
    for k in range(samples):
        pos_of[k] = gen.permutation(n)
    costs = evaluate_batch(
        local.codes, np.zeros_like(pos_of), pos_of, num_dbcs=1
    )
    return int(costs.min())


def placement_lower_bound(sequence: AccessSequence, dbc_lists) -> int:
    """Lower bound for a *fixed partition*: sum of per-DBC bounds.

    Note this bounds the best intra order for the given inter split, not
    the globally optimal placement (a different split may do better or
    worse); it is the right yardstick for intra-heuristic quality.
    """
    total = 0
    for dbc in dbc_lists:
        if len(dbc) > 1:
            total += intra_lower_bound(sequence, list(dbc))
    return total
