"""Multi-set DMA: the paper's future-work extension (Sec. VI).

The outlook proposes placing *more than one* set of disjoint variables —
in the same DBC and in different DBCs — instead of the single chain
Algorithm 1 extracts. This module implements that: it repeatedly runs the
DMA scan on the still-unassigned variables, harvesting successive
disjoint chains, then packs the chains into DBCs (each chain keeps its
access order; chains stacked in one DBC are merged into first-occurrence
order) and deals whatever remains over the other DBCs with AFD's deal
(:func:`~repro.core.inter.afd.frequency_deal`), exactly as single-set
DMA deals its non-disjoint variables.
"""

from __future__ import annotations

from repro.core.inter.afd import frequency_deal
from repro.core.inter.dma import dma_split
from repro.core.placement import IntraHeuristic, Placement, check_room, intra_pass
from repro.trace.liveness import Liveness
from repro.trace.sequence import AccessSequence


def extract_disjoint_sets(
    sequence: AccessSequence,
    max_sets: int | None = None,
) -> tuple[list[list[str]], list[str]]:
    """Harvest successive disjoint-lifespan chains via repeated DMA scans.

    Returns ``(chains, leftovers)``. Each chain is in access order and
    pairwise disjoint; chains are extracted greedily, so the first is
    Algorithm 1's ``Vdj`` and later ones are chains over the remainder.
    Extraction stops when a scan yields a chain of fewer than two
    variables (a singleton chain carries no self-access benefit).
    """
    remaining = list(sequence.variables)
    chains: list[list[str]] = []
    while remaining and (max_sets is None or len(chains) < max_sets):
        local = sequence.restricted_to(remaining)
        split = dma_split(local)
        if len(split.vdj) < 2:
            break
        chains.append(list(split.vdj))
        taken = set(split.vdj)
        remaining = [v for v in remaining if v not in taken]
    return chains, remaining


def multiset_dma_partition(
    sequence: AccessSequence,
    num_dbcs: int,
    capacity: int,
    max_sets: int | None = None,
) -> tuple[list[list[str]], int]:
    """Pack multiple disjoint chains, then deal the rest by frequency.

    Chain acceptance follows the same *fairness budgeting* as single-set
    DMA: chains claim DBCs only in proportion to the access share they
    take off the table — ``floor(q * cumulative_access_share + 0.5)`` —
    so low-traffic chains never squeeze the hot overlapping variables
    into too few DBCs (the failure mode of naive multi-set packing).
    Chains sharing a DBC are merged in first-occurrence order; a chain
    longer than the capacity wraps round-robin over the DBCs it needs,
    like Algorithm 1 does for ``Vdj``. Returns ``(dbc_lists,
    num_chain_dbcs)``.
    """
    check_room(sequence.num_variables, num_dbcs, capacity)
    chains, leftovers = extract_disjoint_sets(sequence, max_sets=max_sets)
    freq = sequence.frequencies
    total_accesses = max(len(sequence), 1)

    def chain_accesses(chain: list[str]) -> int:
        return sum(int(freq[sequence.index_of(v)]) for v in chain)

    dbcs: list[list[str]] = [[] for _ in range(num_dbcs)]
    used = 0
    merged: set[int] = set()
    accepted_accesses = 0
    for chain in chains:
        # Keep at least one DBC for leftovers when any exist.
        chain_dbc_limit = num_dbcs - (1 if leftovers else 0)
        share = (accepted_accesses + chain_accesses(chain)) / total_accesses
        budget = min(int(num_dbcs * share + 0.5), chain_dbc_limit)
        needed = -(-len(chain) // capacity)  # ceil division
        if used + needed <= budget:
            # Preferred: the chain gets its own DBC(s) — 'in different
            # DBCs' per the outlook — so serving it costs at most
            # len(chain) - 1 shifts.
            for i, v in enumerate(chain):
                dbcs[used + (i % needed)].append(v)
            used += needed
            accepted_accesses += chain_accesses(chain)
            continue
        # Budget exhausted: merge into the emptiest chain DBC with room
        # ('more than one set in the same DBC'), else give the chain up.
        candidates = [
            i for i in range(used) if len(dbcs[i]) + len(chain) <= capacity
        ]
        if candidates:
            target = min(candidates, key=lambda i: len(dbcs[i]))
            dbcs[target].extend(chain)
            merged.add(target)
            accepted_accesses += chain_accesses(chain)
        else:
            leftovers = chain + leftovers
    # DBCs holding several chains are re-merged into global access order:
    # stacking chains back to back would interleave temporally-adjacent
    # accesses across distant locations, which is exactly what the
    # disjoint layout is meant to avoid.
    if merged:
        live = Liveness(sequence)
        for i in merged:
            dbcs[i].sort(key=live.first)

    # The leftovers take AFD's deal over the DBCs no chain claimed (over
    # every DBC when chains hold them all).
    frequency_deal(sequence, dbcs, leftovers, used, capacity)
    return dbcs, used


def multiset_dma_placement(
    sequence: AccessSequence,
    num_dbcs: int,
    capacity: int,
    intra: IntraHeuristic | None = None,
    max_sets: int | None = None,
) -> Placement:
    """Multi-set partition plus intra optimization of the leftover DBCs."""
    dbcs, used = multiset_dma_partition(
        sequence, num_dbcs, capacity, max_sets=max_sets
    )
    return intra_pass(sequence, dbcs, used, intra)
