"""Random-walk search baseline (Sec. III-C).

Generates independent uniformly random placements — random variable-to-
DBC assignment plus random permutations within every DBC — and keeps the
best. The paper runs it for 60000 iterations, the upper bound on the
number of individuals its GA evaluates, to put the GA results in
perspective (Fig. 4's ``RW`` series).

Each chunk of candidates is drawn straight into ``(K, V)`` DBC/slot
arrays by :func:`~repro.core.inter.random_inter.random_partition_arrays`
(distributed exactly as :func:`random_partition` draws one placement),
scored in one batched engine pass and reduced with a running minimum;
only the best row ever becomes a :class:`Placement`. The chunk width is
part of the RNG stream: one sampler call draws a whole chunk.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# stack_placement_lists is unused here but stays a module attribute: the
# layer tracer in perfbench/spans.py wraps it by name.
from repro.core.cost import stack_placement_lists  # noqa: F401
from repro.core.inter.random_inter import random_partition, random_partition_arrays
from repro.core.placement import Placement
from repro.engine import evaluate_batch
from repro.errors import SolverError
from repro.trace.sequence import AccessSequence
from repro.util.rng import ensure_rng

#: The paper's iteration budget (= GA's 200 generations x (mu + lambda)
#: evaluation upper bound, Sec. IV-A).
DEFAULT_ITERATIONS = 60_000

#: Candidates drawn and scored per batched pass. One sampler call draws
#: a whole chunk, so the width is part of the RNG stream: changing it
#: changes seed-fixed results (and must re-key stored RW cells).
_SCORE_CHUNK = 512


@dataclass
class RandomWalkResult:
    placement: Placement
    cost: int
    iterations: int
    history: list[int]


def random_placement(
    sequence: AccessSequence,
    num_dbcs: int,
    capacity: int,
    rng: int | np.random.Generator | None = None,
) -> Placement:
    """One uniformly random placement (partition + per-DBC order)."""
    return Placement(random_partition(sequence, num_dbcs, capacity, rng))


def random_walk_search(
    sequence: AccessSequence,
    num_dbcs: int,
    capacity: int,
    iterations: int = DEFAULT_ITERATIONS,
    rng: int | np.random.Generator | None = None,
    history_stride: int = 1000,
    ports: int = 1,
    domains: int | None = None,
) -> RandomWalkResult:
    """Best of ``iterations`` random placements.

    ``history_stride`` controls how often the best-so-far cost is sampled
    into the result's history (for convergence plots). ``ports > 1``
    scores candidates under the real multi-port geometry (``domains``
    defaults to the DBC capacity, the track length in this library).
    Ties keep the earliest candidate.
    """
    if iterations < 1:
        raise SolverError(f"iterations must be >= 1, got {iterations}")
    if history_stride < 1:
        raise SolverError(f"history_stride must be >= 1, got {history_stride}")
    if ports > 1 and domains is None:
        domains = capacity
    gen = ensure_rng(rng)
    codes = sequence.codes
    best_cost = np.iinfo(np.int64).max
    best_dbc = best_pos = None
    history: list[int] = []
    for start in range(0, iterations, _SCORE_CHUNK):
        chunk = min(_SCORE_CHUNK, iterations - start)
        dbc_of, pos_of = random_partition_arrays(
            sequence.num_variables, num_dbcs, capacity, chunk, gen
        )
        costs = evaluate_batch(
            codes, dbc_of, pos_of, num_dbcs=num_dbcs,
            domains=domains, ports=ports,
        )
        running = np.minimum(np.minimum.accumulate(costs), best_cost)
        steps = np.arange(start + 1, start + chunk + 1)
        history.extend(running[steps % history_stride == 0].tolist())
        k = int(np.argmin(costs))
        if costs[k] < best_cost:
            best_cost, best_dbc, best_pos = int(costs[k]), dbc_of[k], pos_of[k]
    return RandomWalkResult(
        placement=Placement.from_arrays(
            sequence.variables, best_dbc, best_pos, num_dbcs
        ),
        cost=best_cost,
        iterations=iterations,
        history=history,
    )
