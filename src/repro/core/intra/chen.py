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

Each step is one argmax over a score vector of the DBC's variables,
plus updates over the placed vertex's row of the
:class:`~repro.trace.graph.LocalGraph`.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Sequence

import numpy as np

from repro.trace.graph import local_graph
from repro.trace.sequence import AccessSequence

#: Score of a placed vertex: below every unplaced score, whatever
#: weights are added to it later.
PLACED = -(1 << 62)


def chen_order(sequence: AccessSequence, variables: Sequence[str]) -> list[str]:
    """Set-affinity greedy growth over the DBC-local access graph."""
    variables = list(variables)
    n = len(variables)
    if n <= 1:
        return variables
    graph = local_graph(sequence, variables)
    ptr = graph.indptr.tolist()
    cols, weights = graph.cols, graph.weights
    scaled = weights * n
    # An unplaced vertex scores affinity * n + tie: affinity to the placed
    # set, then frequency, then list position. The seed has the largest
    # weighted degree.
    v = int((graph.degree * n + graph.tie).argmax())
    score = graph.tie.copy()
    # Edge weights of every vertex to the arrangement's first and last one.
    to_first = np.zeros(n, dtype=np.int64)
    to_last = np.zeros(n, dtype=np.int64)
    arrangement = deque([v])
    first = last = v
    for _ in range(n - 1):
        score[v] = PLACED
        lo, hi = ptr[v], ptr[v + 1]
        nbrs = cols[lo:hi]
        score[nbrs] += scaled[lo:hi]
        if v == first:
            to_first.fill(0)
            to_first[nbrs] = weights[lo:hi]
        if v == last:
            to_last.fill(0)
            to_last[nbrs] = weights[lo:hi]
        v = int(score.argmax())
        if to_first[v] > to_last[v]:
            arrangement.appendleft(v)
            first = v
        else:
            arrangement.append(v)
            last = v
    return [variables[i] for i in arrangement]
