"""ShiftsReduce [7] single-DBC placement (reimplementation).

ShiftsReduce (Khan et al., 2019) improves on Chen's chain growth by
growing the placement in *both* directions: the hottest vertex is seeded
in the middle and subsequent variables may attach to either end of the
current arrangement, whichever adjacency carries more consecutive-access
weight. Keeping hot variables near the centre also bounds the worst-case
travel of the access port. Reimplemented from the published description
(docs/substitution.md).

Each step reads only the two end vertices' rows of the
:class:`~repro.trace.graph.LocalGraph`: one argmax over each row's
edge keys, where the edges into placed vertices hold :data:`PLACED`.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Sequence

from repro.trace.graph import local_graph
from repro.trace.sequence import AccessSequence

#: Key of an edge into a placed vertex: below every other key.
PLACED = -(1 << 62)


def shifts_reduce_order(
    sequence: AccessSequence, variables: Sequence[str]
) -> list[str]:
    """Bidirectional greedy growth over the DBC-local access graph."""
    variables = list(variables)
    n = len(variables)
    if n <= 1:
        return variables
    graph = local_graph(sequence, variables)
    ptr = graph.indptr.tolist()
    # Attaching edge e's col at its row's end on the right keys
    # (weight * n + tie) * 2 + 1, on the left one less: adjacency weight,
    # then frequency, then list position, then the right side.
    key = (graph.weights * n + graph.tie[graph.cols]) * 2 + 1
    # reverse[e] is the edge from e's col back to its row.
    reverse = (graph.cols * n + graph.rows).argsort()
    # Seed order: weighted degree, then frequency, then list position.
    seeds = (-(graph.degree * n + graph.tie)).argsort().tolist()
    placed = [False] * n
    next_seed = 0
    v = left = right = seeds[0]
    arrangement = deque([v])
    for size in range(1, n):
        placed[v] = True
        lo, hi = ptr[v], ptr[v + 1]
        key[reverse[lo:hi]] = PLACED
        best = PLACED
        lo, hi = ptr[right], ptr[right + 1]
        if hi > lo:
            edge = lo + int(key[lo:hi].argmax())
            best = int(key[edge])
        lo, hi = ptr[left], ptr[left + 1]
        if hi > lo:
            e = lo + int(key[lo:hi].argmax())
            if key[e] - 1 > best:
                edge, best = e, int(key[e]) - 1
        if best < 0:
            # Nothing unplaced connects to either end: reseed with the best
            # remaining vertex on the lighter side (keeps hot variables
            # central).
            while placed[seeds[next_seed]]:
                next_seed += 1
            v = seeds[next_seed]
            on_right = size % 2 == 0
        else:
            v = int(graph.cols[edge])
            on_right = best & 1
        if on_right:
            arrangement.append(v)
            right = v
        else:
            arrangement.appendleft(v)
            left = v
    return [variables[i] for i in arrangement]
