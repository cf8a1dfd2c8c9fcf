"""ShiftsReduce [7] single-DBC placement (reimplementation).

ShiftsReduce (Khan et al., 2019) improves on Chen's chain growth by
growing the placement in *both* directions: the hottest vertex is seeded
in the middle and subsequent variables may attach to either end of the
current arrangement, whichever adjacency carries more consecutive-access
weight. Keeping hot variables near the centre also bounds the worst-case
travel of the access port. Reimplemented from the published description
(docs/substitution.md).
"""

from __future__ import annotations

from collections import deque
from collections.abc import Sequence

from repro.trace.graph import AccessGraph
from repro.trace.sequence import AccessSequence


def shifts_reduce_order(
    sequence: AccessSequence, variables: Sequence[str]
) -> list[str]:
    """Bidirectional greedy growth over the DBC-local access graph."""
    variables = list(variables)
    if len(variables) <= 1:
        return variables
    local = sequence.restricted_to(variables)
    graph = AccessGraph(local)
    freq = {v: local.frequency(v) for v in variables}
    decl = {v: i for i, v in enumerate(variables)}

    def seed_key(v: str) -> tuple:
        return (-graph.weighted_degree(v), -freq[v], decl[v])

    unplaced = set(variables)
    seed = min(unplaced, key=seed_key)
    arrangement: deque[str] = deque([seed])
    unplaced.remove(seed)
    while unplaced:
        left, right = arrangement[0], arrangement[-1]
        left_w = graph.neighbors(left)
        right_w = graph.neighbors(right)
        # Best (candidate, side) by adjacency weight to that side's end;
        # ties fall back to frequency then declaration order, preferring
        # the right side for determinism.
        best_v, best_side, best_key = None, "right", None
        for v in unplaced:
            for side, w in (("right", right_w.get(v, 0)), ("left", left_w.get(v, 0))):
                key = (-w, -freq[v], decl[v], 0 if side == "right" else 1)
                if best_key is None or key < best_key:
                    best_v, best_side, best_key = v, side, key
        assert best_v is not None
        if best_key is not None and best_key[0] == 0:
            # Nothing connects to either end: reseed with the best remaining
            # vertex on the lighter side (keeps hot variables central).
            best_v = min(unplaced, key=seed_key)
            best_side = "right" if len(arrangement) % 2 == 0 else "left"
        if best_side == "right":
            arrangement.append(best_v)
        else:
            arrangement.appendleft(best_v)
        unplaced.remove(best_v)
    return list(arrangement)
