"""Named end-to-end placement policies — the configurations of Sec. IV-A.

The paper evaluates six: ``AFD-OFU`` (baseline), ``DMA-OFU``, ``DMA-Chen``
and ``DMA-SR`` (the contribution paired with intra-DBC optimizers),
``GA`` and ``RW``. This registry adds the raw Fig. 3 variants and the
extension policies (TSP intra, multi-set DMA) used by the ablations.

Every deterministic policy is a pair (partition, intra): AFD, DMA or
multi-set DMA yields the DBC lists and the count ``kept`` of leading
DBCs whose order is final (DMA's chains; 0 for AFD), then
:func:`~repro.core.placement.intra_pass` orders the rest with ``intra``.

Every policy maps ``(sequence, num_dbcs, capacity[, rng])`` to a
:class:`~repro.core.placement.Placement`; deterministic policies ignore
the rng.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from repro.core.ga import GAConfig, GeneticPlacer
from repro.core.inter.afd import afd_partition
from repro.core.inter.dma import dma_partition
from repro.core.inter.multiset import multiset_dma_partition
from repro.core.intra import (
    INTRA_HEURISTICS,
    _default_annealed,
    chen_order,
    ofu_order,
    shifts_reduce_order,
    tsp_order,
)
from repro.core.placement import IntraHeuristic, Placement, intra_pass
from repro.core.random_walk import DEFAULT_ITERATIONS, random_walk_search
from repro.errors import SolverError
from repro.trace.sequence import AccessSequence
from repro.util.rng import ensure_rng

PlaceFn = Callable[
    [AccessSequence, int, int, np.random.Generator], Placement
]

#: An inter-DBC partition: ``(sequence, q, capacity) -> (dbc_lists,
#: kept)``, where the intra pass leaves DBCs ``0..kept-1`` as they are.
Partition = Callable[[AccessSequence, int, int], tuple[list[list[str]], int]]

#: The six configurations evaluated throughout Sec. IV.
PAPER_POLICIES: tuple[str, ...] = (
    "AFD-OFU", "DMA-OFU", "DMA-Chen", "DMA-SR", "GA", "RW",
)


#: RNG-stream tags of the stochastic policies, hashed into their cell
#: keys (:meth:`repro.eval.runner.CellRecipe.key`). A change that moves a
#: policy's seed-fixed results gives it a new tag, so stored cells of the
#: old stream go cold instead of being served stale. An untagged policy
#: keeps the keys it had before tags existed.
STREAM_TAGS: dict[str, str] = {
    "RW": "rw-arrays",  # candidates drawn as (K, V) arrays, 512 per draw
    "GA": "ga-arrays",  # populations kept and bred as (K, V) arrays
}


@dataclass(frozen=True)
class Policy:
    """A named placement strategy.

    ``stream`` is the policy's RNG-stream tag from :data:`STREAM_TAGS`,
    empty when it has none.
    """

    name: str
    fn: PlaceFn
    deterministic: bool = True
    stream: str = ""

    def place(
        self,
        sequence: AccessSequence,
        num_dbcs: int,
        capacity: int,
        rng: int | np.random.Generator | None = None,
    ) -> Placement:
        """Compute a placement; ``rng`` feeds the stochastic policies."""
        placement = self.fn(sequence, num_dbcs, capacity, ensure_rng(rng))
        return placement.padded(num_dbcs)


def _afd(seq, q, cap) -> tuple[list[list[str]], int]:
    return afd_partition(seq, q, cap), 0


def _heuristic(partition: Partition, intra: IntraHeuristic | None = None):
    """The registry builder of the deterministic policy partition x intra."""

    def fn(seq, q, cap, _rng) -> Placement:
        dbcs, kept = partition(seq, q, cap)
        return intra_pass(seq, dbcs, kept, intra)

    return lambda: (fn, True)


def _ga_policy(**options) -> PlaceFn:
    config = GAConfig(**options)
    config.validate()

    def fn(seq, q, cap, rng) -> Placement:
        return GeneticPlacer(seq, q, cap, config=config, rng=rng).run().placement

    return fn


def _rw_policy(iterations: int = DEFAULT_ITERATIONS) -> PlaceFn:
    if iterations < 1:
        raise SolverError(f"iterations must be >= 1, got {iterations}")

    def fn(seq, q, cap, rng) -> Placement:
        return random_walk_search(seq, q, cap, iterations=iterations, rng=rng).placement

    return fn


_BUILDERS: dict[str, Callable[..., tuple[PlaceFn, bool]]] = {
    # Paper's six configurations.
    "AFD-OFU": _heuristic(_afd, ofu_order),
    "DMA-OFU": _heuristic(dma_partition, ofu_order),
    "DMA-Chen": _heuristic(dma_partition, chen_order),
    "DMA-SR": _heuristic(dma_partition, shifts_reduce_order),
    "GA": lambda **kw: (_ga_policy(**kw), False),
    "RW": lambda **kw: (_rw_policy(**kw), False),
    # Raw Fig. 3 variants (no intra-DBC optimization).
    "AFD": _heuristic(_afd),
    "DMA": _heuristic(dma_partition),
    # Cross products and extensions for the ablation studies.
    "AFD-Chen": _heuristic(_afd, chen_order),
    "AFD-SR": _heuristic(_afd, shifts_reduce_order),
    "DMA-TSP": _heuristic(dma_partition, tsp_order),
    "DMA-SA": _heuristic(dma_partition, _default_annealed),
    "MDMA-OFU": _heuristic(multiset_dma_partition, ofu_order),
    "MDMA-SR": _heuristic(multiset_dma_partition, shifts_reduce_order),
}


def available_policies() -> tuple[str, ...]:
    """All registered policy names."""
    return tuple(_BUILDERS)


def get_policy(name: str, **options) -> Policy:
    """Instantiate a policy by name.

    ``GA`` accepts :class:`~repro.core.ga.GAConfig` fields as keyword
    options (e.g. ``generations=50``); ``RW`` accepts ``iterations``.
    Deterministic policies accept no options. Invalid options raise
    :class:`~repro.errors.SolverError` here, before anything runs.
    """
    try:
        builder = _BUILDERS[name]
    except KeyError:
        raise SolverError(
            f"unknown policy {name!r}; available: {', '.join(_BUILDERS)}"
        ) from None
    try:
        fn, deterministic = builder(**options)
    except TypeError as exc:
        raise SolverError(f"bad options for policy {name!r}: {exc}") from exc
    return Policy(name=name, fn=fn, deterministic=deterministic,
                  stream=STREAM_TAGS.get(name, ""))


def intra_heuristic_names() -> tuple[str, ...]:
    """Names of the standalone intra-DBC heuristics (for ablations)."""
    return tuple(INTRA_HEURISTICS)
