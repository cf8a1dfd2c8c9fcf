"""Simulated-annealing intra-DBC optimizer.

A drop-in local-search alternative to the constructive heuristics: start
from the OFU order (a strong initialization on sequential traces) and
anneal with transposition moves. Within one DBC the warm single-port
shift cost is the weighted linear arrangement ``sum(w_uv * |pos(u) -
pos(v)|)`` over the :class:`~repro.trace.graph.AccessGraph` (Sec. II-B),
so a transposition is priced from the two swapped variables' edges
alone — O(their degree) instead of O(trace) per move — and the running
total is checked against a full recompute every :data:`_CHECK_EVERY`
accepted moves. Slower than Chen/SR but usually closer to the optimum —
useful as a tighter reference when the exact DP is out of reach, and as
another intra option for the ablation benches.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.core.intra.ofu import ofu_order
from repro.errors import SolverError
from repro.trace.graph import AccessGraph
from repro.trace.sequence import AccessSequence
from repro.util.rng import ensure_rng

#: Accepted moves between full recomputes of the running total. Move
#: prices are exact integers, so a mismatch is a pricing error.
_CHECK_EVERY = 1024


def _adjacency(local: AccessSequence) -> list[list[tuple[int, int]]]:
    """``(neighbour code, weight)`` edges of each code of ``local``'s graph.

    Plain lists of ints indexed by variable code: pricing a move is a few
    list lookups of interpreter arithmetic.
    """
    graph = AccessGraph(local)
    return [
        [(local.index_of(o), w) for o, w in graph.neighbors(v).items()]
        for v in local.variables
    ]


def _arrangement_cost(
    adj: Sequence[Sequence[tuple[int, int]]], pos: Sequence[int]
) -> int:
    """One DBC's warm single-port shifts: ``sum(w_uv * |pos[u] - pos[v]|)``."""
    return sum(
        w * abs(pos[u] - pos[v])
        for u, edges in enumerate(adj)
        for v, w in edges
        if u < v
    )


def _swap_delta(
    adj: Sequence[Sequence[tuple[int, int]]],
    pos: Sequence[int],
    u: int,
    v: int,
) -> int:
    """Change in the arrangement cost from transposing codes ``u`` and ``v``."""
    pu, pv = pos[u], pos[v]
    d = 0
    for o, w in adj[u]:
        if o != v:  # the (u, v) edge keeps its length
            po = pos[o]
            d += w * (abs(pv - po) - abs(pu - po))
    for o, w in adj[v]:
        if o != u:
            po = pos[o]
            d += w * (abs(pu - po) - abs(pv - po))
    return d


def annealed_order(
    sequence: AccessSequence,
    variables: Sequence[str],
    iterations: int = 2000,
    start_temperature: float | None = None,
    rng: int | np.random.Generator | None = None,
) -> list[str]:
    """Simulated annealing over intra-DBC permutations.

    Geometric cooling; moves are random transpositions (the GA's second
    mutation). ``start_temperature`` defaults to a scale estimated from
    the trace (mean positional distance), which keeps acceptance rates
    sane across instance sizes.
    """
    if iterations < 1:
        raise SolverError(f"iterations must be >= 1, got {iterations}")
    variables = list(variables)
    if len(variables) <= 2:
        return ofu_order(sequence, variables)
    gen = ensure_rng(rng)
    local = sequence.restricted_to(variables)
    adj = _adjacency(local)

    # Slot s holds variable code current[s]; code c sits in slot pos[c].
    current = [local.index_of(v) for v in ofu_order(sequence, variables)]
    n = len(variables)
    pos = [0] * n
    for slot, c in enumerate(current):
        pos[c] = slot
    current_cost = _arrangement_cost(adj, pos)
    best, best_cost = list(current), current_cost
    temperature = (
        start_temperature
        if start_temperature is not None
        else max(1.0, current_cost / max(len(local), 1) * n / 4)
    )
    cooling = (0.01 / temperature) ** (1.0 / iterations) if temperature > 0 else 1.0
    since_check = 0
    for _ in range(iterations):
        i, j = gen.choice(n, size=2, replace=False)
        u, v = current[i], current[j]
        delta = _swap_delta(adj, pos, u, v)
        if delta <= 0 or gen.random() < np.exp(-delta / max(temperature, 1e-9)):
            pos[u], pos[v] = pos[v], pos[u]
            current[i], current[j] = v, u
            current_cost += delta
            if current_cost < best_cost:
                best, best_cost = list(current), current_cost
            since_check += 1
            if since_check >= _CHECK_EVERY:
                since_check = 0
                recomputed = _arrangement_cost(adj, pos)
                if recomputed != current_cost:
                    raise SolverError(
                        f"annealing running total {current_cost} != "
                        f"recomputed arrangement cost {recomputed}"
                    )
        temperature *= cooling
    return [local.variables[c] for c in best]
