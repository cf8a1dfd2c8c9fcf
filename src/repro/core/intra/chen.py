"""Chen et al.'s single-DBC placement heuristic [2] (reimplementation).

Chen's TVLSI'16 heuristic greedily grows an arrangement over the access
graph: starting from the vertex with the highest weighted degree (the
most consecutive-access traffic), it repeatedly takes the unplaced
variable with the highest total affinity to the variables placed so far
and appends it at whichever end of the arrangement it is more strongly
connected to. ShiftsReduce [7] differs by selecting the candidate *and*
the side jointly from end-specific weights (see
:mod:`repro.core.intra.shifts_reduce`); that distinction — affinity to
the whole set vs to the growth fronts — is the documented design gap
between the two heuristics that the paper's DMA-Chen / DMA-SR pairings
exercise. Reimplemented from the published descriptions
(docs/substitution.md).
"""

from __future__ import annotations

from collections import deque
from collections.abc import Sequence

from repro.trace.graph import AccessGraph
from repro.trace.sequence import AccessSequence


def chen_order(sequence: AccessSequence, variables: Sequence[str]) -> list[str]:
    """Set-affinity greedy growth over the DBC-local access graph."""
    variables = list(variables)
    if len(variables) <= 1:
        return variables
    local = sequence.restricted_to(variables)
    graph = AccessGraph(local)
    freq = {v: local.frequency(v) for v in variables}
    decl = {v: i for i, v in enumerate(variables)}

    unplaced = set(variables)
    seed = min(
        unplaced,
        key=lambda v: (-graph.weighted_degree(v), -freq[v], decl[v]),
    )
    arrangement: deque[str] = deque([seed])
    unplaced.remove(seed)
    affinity = {v: graph.weight(v, seed) for v in unplaced}
    while unplaced:
        best = min(unplaced, key=lambda v: (-affinity[v], -freq[v], decl[v]))
        w_left = graph.weight(best, arrangement[0])
        w_right = graph.weight(best, arrangement[-1])
        if w_left > w_right:
            arrangement.appendleft(best)
        else:
            arrangement.append(best)
        unplaced.remove(best)
        for v in unplaced:
            affinity[v] += graph.weight(v, best)
    return list(arrangement)
