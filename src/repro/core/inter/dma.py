"""The paper's sequence-aware inter-DBC heuristic (Algorithm 1).

DMA (Disjoint Memory Accesses) scans variables in ascending first-
occurrence order and extracts a maximal chain ``Vdj`` of variables with
pairwise disjoint lifespans, keeping a variable only when its own access
frequency beats the combined frequency of the variables nested inside its
lifespan (line 10's test) — i.e. when dedicating the port to it wins more
self-accesses than it forfeits. ``Vdj`` is packed into the first
``K = ceil(|Vdj| / N)`` DBCs in access order (so serving it costs at most
``|Vdj| - 1`` shifts per DBC); the remaining variables go to the other
DBCs by AFD's deal (:func:`~repro.core.inter.afd.frequency_deal`), where
any single-DBC heuristic (OFU, Chen, ShiftsReduce, ...) can then optimize
each DBC independently. With no disjoint DBC (``K = 0``) DMA deals
exactly as AFD.

On the paper's running example this reproduces Fig. 3-(d/e) exactly:
``Vdj = {b, c, d, e, h}`` with total frequency 11, and the final
placement costs 11 shifts against AFD's 39.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.core.inter.afd import frequency_deal
from repro.core.placement import IntraHeuristic, Placement, check_room, intra_pass
from repro.trace.liveness import NEVER, Liveness
from repro.trace.sequence import AccessSequence


@dataclass(frozen=True)
class DMASplit:
    """Result of Algorithm 1's scan phase (lines 1-12).

    ``vdj`` is in ascending first-occurrence order (the order in which the
    disjoint variables are later laid out); ``vndj`` keeps the scan order
    of the remaining variables. ``disjoint_frequency_sum`` is the summed
    access frequency of ``vdj`` (11 on the paper's running example).
    """

    vdj: tuple[str, ...]
    vndj: tuple[str, ...]
    disjoint_frequency_sum: int = 0


#: Nested-sum matrix elements per row block: bounds the scan's working
#: set whatever the number of variables.
_BLOCK_ELEMENTS = 1 << 20

#: Instance-dict entry holding a sequence's memoized split. Sequences are
#: immutable and keep data derived from them alone in their ``__dict__``,
#: as :attr:`AccessSequence.frequencies` does.
_SPLIT_MEMO = "_dma_split"


def dma_split(sequence: AccessSequence) -> DMASplit:
    """Lines 1-12 of Algorithm 1: extract the disjoint-lifespan chain.

    The split depends on the sequence alone, so it is computed once per
    sequence object and memoized on it.
    """
    memo = vars(sequence)
    split = memo.get(_SPLIT_MEMO)
    if split is None:
        split = memo[_SPLIT_MEMO] = _scan(sequence)
    return split


def _scan(sequence: AccessSequence) -> DMASplit:
    live = Liveness(sequence)
    first = live.first_occurrences
    last = live.last_occurrences
    freq = sequence.frequencies
    order = live.first_occurrence_order()
    accessed = order[first[order] != NEVER]
    nested = _nested_sums(last[accessed], freq[accessed])
    # Line 10's sums are static: every variable already taken into Vdj
    # first occurs before any later candidate, so it never lies inside a
    # later candidate's lifespan and removing it changes no later sum.
    picked: list[int] = []
    t_min = 0
    for code, f_v, l_v, a_v, n_v in zip(
        accessed.tolist(), first[accessed].tolist(), last[accessed].tolist(),
        freq[accessed].tolist(), nested.tolist(),
    ):
        if f_v > t_min and a_v > n_v:
            picked.append(code)
            t_min = l_v
    variables = sequence.variables
    taken = set(picked)
    return DMASplit(
        vdj=tuple(variables[c] for c in picked),
        vndj=tuple(variables[c] for c in order.tolist() if c not in taken),
        disjoint_frequency_sum=int(freq[picked].sum()),
    )


def _nested_sums(last: np.ndarray, freq: np.ndarray) -> np.ndarray:
    """Line 10's competitor sum of each accessed variable.

    Inputs are in ascending first-occurrence order, so ``u`` starts
    inside ``v``'s lifespan exactly when it comes later; it is nested
    when it also ends earlier: ``nested[v] = sum(freq[u] for u > v with
    last[u] < last[v])``. Computed over blocks of rows, each a few
    vectorized calls.
    """
    n = last.size
    nested = np.zeros(n, dtype=np.int64)
    rows = max(1, _BLOCK_ELEMENTS // max(n, 1))
    for start in range(0, n, rows):
        stop = min(start + rows, n)
        # Candidates u > v of rows v in [start, stop): columns from start + 1.
        later = np.arange(start + 1, n) > np.arange(start, stop)[:, None]
        inside = later & (last[start + 1:] < last[start:stop, None])
        nested[start:stop] = np.where(inside, freq[start + 1:], 0).sum(axis=1)
    return nested


def dma_partition(
    sequence: AccessSequence,
    num_dbcs: int,
    capacity: int,
    fairness_guard: bool = True,
) -> tuple[list[list[str]], int]:
    """Lines 13-21 of Algorithm 1: distribute both sets across DBCs.

    Returns ``(dbc_lists, K)`` where DBCs ``0..K-1`` hold the disjoint
    variables in access order and DBCs ``K..q-1`` hold the rest in
    descending access frequency (deal order).

    ``fairness_guard`` (on by default) caps ``K`` at the disjoint set's
    fair share of DBCs — ``round(q * max(variable share, access share))``.
    The pseudocode's ``K = ceil(|Vdj| / N)`` sizes ``K`` purely by
    capacity, which on weakly-disjoint traces parks a handful of variables
    in a whole DBC and crams everything else into the remaining ones,
    making DMA *worse* than AFD — contradicting the paper's observation
    that the heuristic "consistently performs well irrespective of the
    DBC count". The guard generalizes gracefully: with no worthwhile
    disjoint set (``K = 0``) the distribution degenerates to exactly AFD.
    On the paper's Fig. 3 example the guard leaves ``K = 1`` unchanged.
    Pass ``fairness_guard=False`` for the verbatim pseudocode behaviour.

    Deviation for robustness (the pseudocode assumes ample room): when the
    non-disjoint variables overflow their ``q - K`` DBCs, the overflow
    spills into the tail slots of the disjoint DBCs; when the disjoint set
    alone would claim every DBC while non-disjoint variables exist, ``K``
    is capped at ``q - 1`` and the excess (largest first occurrences)
    rejoins the non-disjoint set.
    """
    check_room(sequence.num_variables, num_dbcs, capacity)
    split = dma_split(sequence)
    vdj = list(split.vdj)
    vndj = list(split.vndj)

    k = math.ceil(len(vdj) / capacity)
    if fairness_guard and vdj:
        var_share = len(vdj) / sequence.num_variables
        total_accesses = max(len(sequence), 1)
        access_share = split.disjoint_frequency_sum / total_accesses
        fair = math.floor(num_dbcs * max(var_share, access_share) + 0.5)
        k = min(k, fair)
    if vndj and k >= num_dbcs:
        k = num_dbcs - 1
    # Trim Vdj to the DBCs granted; the excess joins the frequency deal.
    vndj += vdj[k * capacity:]
    del vdj[k * capacity:]

    dbcs: list[list[str]] = [[] for _ in range(num_dbcs)]
    # Lines 14-17: deal Vdj round-robin over DBCs 0..K-1 in ascending F.
    for i, v in enumerate(vdj):
        dbcs[i % k].append(v)

    # Lines 18-21: AFD's deal of Vndj over DBCs K..q-1. Overflow spills
    # into the disjoint DBCs' tail slots (documented deviation).
    frequency_deal(sequence, dbcs, vndj, k, capacity)
    return dbcs, k


def dma_placement(
    sequence: AccessSequence,
    num_dbcs: int,
    capacity: int,
    intra: IntraHeuristic | None = None,
    fairness_guard: bool = True,
) -> Placement:
    """Full Algorithm 1: distribution plus optional intra-DBC optimization.

    Lines 22-23 apply a single-DBC heuristic to the *non-disjoint* DBCs
    only — the disjoint DBCs must keep their access order, which is what
    makes them cheap. ``intra=None`` yields the raw DMA placement of
    Fig. 3-(d) (non-disjoint DBCs in frequency deal order).
    """
    dbcs, k = dma_partition(
        sequence, num_dbcs, capacity, fairness_guard=fairness_guard
    )
    return intra_pass(sequence, dbcs, k, intra)
