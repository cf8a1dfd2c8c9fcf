"""Property-based tests for the GA's genetic operators.

Sec. III-C claims the operators keep individuals valid and can reach any
assignment; validity is exactly checkable, so hypothesis hammers it on
the array GA's whole-generation operators, at tight capacities (where
repair runs) and on a single DBC (where no move is possible).

The operators breed random rows, not the heuristic seeds: the seeds
share one DMA partition, so crossing them would move nothing. Each
check returns what it saw move, and a deterministic companion asserts
that variables changed DBC and, at tight capacity, that repair ran.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.cost import shift_cost
from repro.core.ga import GAConfig, GeneticPlacer
from repro.core.inter.random_inter import group_ranks
from repro.core.placement import Placement

from strategies import sequences_with_geometry
from tests.core.test_ga import assert_placement_rows

#: A population of random placements: parents differ in partition.
RANDOM_ROWS = GAConfig(mu=8, lam=8, generations=1, seed_with_heuristics=False)


def _placer(seq, q, cap, seed, config=RANDOM_ROWS):
    return GeneticPlacer(seq, q, cap, config, rng=seed)


def _tight(seq, q):
    """The least capacity ``ceil(V / q)``, where operators overflow DBCs."""
    return -(-seq.num_variables // q)


def _geometry(data, tight):
    seq, q, cap = data
    return seq, q, _tight(seq, q) if tight else cap


def _crossed(placer):
    """Population rows, parents and their children's ``(dbc, key)``.

    The parents pair distinct rows, (0, 1), (2, 3), ...: a tournament
    over so few rows would often cross a row with itself.
    """
    dbc_of, pos_of = placer.initial_population()
    parents = np.arange(dbc_of.shape[0]).reshape(-1, 2).T
    children, key = placer.crossover(dbc_of, pos_of, parents)
    return dbc_of, pos_of, parents, children, key


def crossover_then_repair(seq, q, cap, seed):
    """Crossover, re-slotting and repair leave placements. Returns how
    many child variables left their parent's DBC and whether repair
    found overflow."""
    placer = _placer(seq, q, cap, seed)
    dbc_of, _, parents, children, key = _crossed(placer)
    moved = int((children != dbc_of[parents].reshape(children.shape)).sum())
    slots = group_ranks(children, key)
    overflowed = bool((slots >= cap).any())
    placer.repair(children, slots)
    assert_placement_rows(children, slots, q, cap)
    return moved, overflowed


def crossover_tail_order(seq, q, seed):
    """Variables changing DBC follow the kept ones, in first-occurrence
    order; every other variable keeps its parent's relative order.
    Returns how many child variables changed DBC."""
    placer = _placer(seq, q, seq.num_variables, seed)  # no repair
    dbc_of, pos_of, parents, children, key = _crossed(placer)
    slots = group_ranks(children, key)
    rank = placer._xover_rank
    moved = 0
    for child, parent in enumerate(np.concatenate(parents)):
        for d in range(q):
            members = np.flatnonzero(children[child] == d)
            order = members[np.argsort(slots[child, members])]
            came = dbc_of[parent, order] != d
            assert not (came[:-1] & ~came[1:]).any()  # kept ones first
            assert (np.diff(pos_of[parent, order[~came]]) > 0).all()
            assert (np.diff(rank[order[came]]) > 0).all()
            moved += int(came.sum())
    return moved


def mutation_chain(seq, q, cap, seed, rounds):
    """Rounds of random mutation kinds, re-slotting and repair leave
    placements. Returns how many variables mutations moved to another
    DBC and whether repair ever found overflow."""
    placer = _placer(seq, q, cap, seed)
    dbc_of, pos_of = placer.initial_population()
    moved, overflowed = 0, False
    for _ in range(rounds):
        before = dbc_of.copy()
        placer.mutate(dbc_of, pos_of, placer.rng.integers(0, 4, dbc_of.shape[0]))
        moved += int((dbc_of != before).sum())
        pos_of = group_ranks(dbc_of, pos_of)
        overflowed |= bool((pos_of >= cap).any())
        placer.repair(dbc_of, pos_of)
        assert_placement_rows(dbc_of, pos_of, q, cap)
    return moved, overflowed


@given(data=sequences_with_geometry(), seed=st.integers(0, 2**16),
       tight=st.booleans())
@settings(max_examples=100, deadline=None)
def test_crossover_preserves_validity(data, seed, tight):
    crossover_then_repair(*_geometry(data, tight), seed)


@given(data=sequences_with_geometry(), seed=st.integers(0, 2**16))
@settings(max_examples=100, deadline=None)
def test_crossover_moves_swapped_variables_to_the_tail(data, seed):
    seq, q, _ = data
    crossover_tail_order(seq, q, seed)


@given(data=sequences_with_geometry(), seed=st.integers(0, 2**16),
       rounds=st.integers(1, 12), tight=st.booleans())
@settings(max_examples=100, deadline=None)
def test_mutation_chain_preserves_validity(data, seed, rounds, tight):
    mutation_chain(*_geometry(data, tight), seed, rounds)


@pytest.mark.parametrize("seed", range(5))
def test_operator_checks_see_moves_and_repair(fig3_sequence, seed):
    """The properties' checks are not vacuous: on Fig. 3's nine
    variables in three full DBCs, crossover and mutation move variables
    and repair runs; on one DBC nothing can move or overflow."""
    seq, q = fig3_sequence, 3
    cap = _tight(seq, q)
    moved, overflowed = crossover_then_repair(seq, q, cap, seed)
    assert moved and overflowed
    assert crossover_tail_order(seq, q, seed)
    moved, overflowed = mutation_chain(seq, q, cap, seed, rounds=4)
    assert moved and overflowed
    assert crossover_then_repair(seq, 1, seq.num_variables, seed) == (0, False)
    assert mutation_chain(seq, 1, seq.num_variables, seed, rounds=4) == (0, False)


@given(data=sequences_with_geometry(), seed=st.integers(0, 2**16))
@settings(max_examples=60, deadline=None)
def test_fitness_matches_placement_cost(data, seed):
    seq, q, cap = data
    placer = _placer(seq, q, cap, seed)
    costs = np.zeros(placer.config.mu, dtype=np.int64)
    dbc_of, pos_of = placer.breed(*placer.initial_population(), costs)
    for cost, row_dbc, row_pos in zip(placer.score(dbc_of, pos_of), dbc_of, pos_of):
        placement = Placement.from_arrays(seq.variables, row_dbc, row_pos, q)
        assert cost == shift_cost(seq, placement)


@given(data=sequences_with_geometry(), seed=st.integers(0, 2**16))
@settings(max_examples=30, deadline=None)
def test_short_run_returns_valid_best(data, seed):
    seq, q, cap = data
    placer = _placer(seq, q, cap, seed, GAConfig(mu=4, lam=4, generations=1))
    # The population holds the first mu seeds.
    seeds = [rows[:placer.config.mu] for rows in placer.seed_individuals()]
    cheapest_seed = int(placer.score(*seeds).min())
    result = placer.run()
    result.placement.validate_for(seq, num_dbcs=q, capacity=cap)
    assert result.cost == shift_cost(seq, result.placement)
    assert 0 <= result.cost <= cheapest_seed
