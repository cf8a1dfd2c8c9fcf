"""Simulated-annealing intra-DBC optimizer.

A drop-in local-search alternative to the constructive heuristics: start
from the OFU order (a strong initialization on sequential traces) and
anneal with transposition moves. Moves are priced incrementally through
the engine's :class:`~repro.engine.batch.DeltaCost` evaluator — a
transposition re-prices only the access pairs touching the two swapped
variables, O(touched accesses) instead of O(trace) per move — with a
periodic full re-sync as a cheap invariant guard. Slower than Chen/SR
but usually closer to the optimum — useful as a tighter reference when
the exact DP is out of reach, and as another intra option for the
ablation benches.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.core.intra.ofu import ofu_order
from repro.engine import DeltaCost
from repro.errors import SolverError
from repro.trace.sequence import AccessSequence
from repro.util.rng import ensure_rng

#: Accepted moves between full-cost re-syncs. The delta arithmetic is
#: exact integers, so this is a verification cadence, not drift control.
_RESYNC_EVERY = 1024


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

    current = ofu_order(sequence, variables)
    n = len(variables)
    code_of = {v: local.index_of(v) for v in variables}
    pos_of = np.empty(local.num_variables, dtype=np.int64)
    for slot, v in enumerate(current):
        pos_of[code_of[v]] = slot
    evaluator = DeltaCost(
        local.codes, np.zeros(local.num_variables, dtype=np.int64), pos_of
    )
    current_cost = evaluator.cost
    best, best_cost = list(current), current_cost
    temperature = (
        start_temperature
        if start_temperature is not None
        else max(1.0, current_cost / max(len(local), 1) * n / 4)
    )
    cooling = (0.01 / temperature) ** (1.0 / iterations) if temperature > 0 else 1.0
    since_resync = 0
    for _ in range(iterations):
        i, j = gen.choice(n, size=2, replace=False)
        u, v = code_of[current[i]], code_of[current[j]]
        delta = evaluator.swap_delta(u, v)
        if delta <= 0 or gen.random() < np.exp(-delta / max(temperature, 1e-9)):
            current_cost = evaluator.swap(u, v, delta=delta)
            current[i], current[j] = current[j], current[i]
            if current_cost < best_cost:
                best, best_cost = list(current), current_cost
            since_resync += 1
            if since_resync >= _RESYNC_EVERY:
                current_cost = evaluator.resync()
                since_resync = 0
        temperature *= cooling
    return best
