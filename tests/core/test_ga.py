"""Unit tests for the genetic algorithm (Sec. III-C)."""

import numpy as np
import pytest

from repro.core.cost import shift_cost
from repro.core.ga import (
    MOVE,
    NO_MUTATION,
    PERMUTE,
    TRANSPOSE,
    GAConfig,
    GeneticPlacer,
)
from repro.core.inter.random_inter import group_ranks
from repro.core.placement import Placement
from repro.core.policies import get_policy
from repro.errors import CapacityError, SolverError


SMALL_GA = GAConfig(mu=10, lam=10, generations=8, patience=None)


@pytest.fixture
def placer(fig3_sequence):
    return GeneticPlacer(fig3_sequence, 2, 512, SMALL_GA, rng=42)


class TestConfig:
    def test_paper_defaults(self):
        cfg = GAConfig()
        assert cfg.mu == 100
        assert cfg.lam == 100
        assert cfg.generations == 200
        assert cfg.tournament_size == 4
        assert cfg.mutation_weights == (10.0, 10.0, 3.0)

    @pytest.mark.parametrize("kwargs", [
        {"mu": 0}, {"lam": 0}, {"generations": -1},
        {"tournament_size": 0}, {"mutation_rate": 1.5},
        {"mutation_weights": (1.0, 2.0)},
        {"mutation_weights": (0.0, 0.0, 0.0)},
    ])
    def test_validation(self, kwargs):
        with pytest.raises(SolverError):
            GAConfig(**kwargs).validate()

    def test_capacity_checked_up_front(self, fig3_sequence):
        with pytest.raises(CapacityError):
            GeneticPlacer(fig3_sequence, 2, 2, SMALL_GA)


def assert_placement_rows(dbc_of, pos_of, num_dbcs, capacity):
    """Every row is a placement: each code at one location, slots dense
    ``0..n-1`` in a DBC of ``n`` variables, no DBC over capacity."""
    assert dbc_of.shape == pos_of.shape
    assert dbc_of.min() >= 0 and dbc_of.max() < num_dbcs
    for row_dbc, row_pos in zip(dbc_of, pos_of):
        for d in range(num_dbcs):
            slots = np.sort(row_pos[row_dbc == d])
            assert slots.tolist() == list(range(slots.size))
            assert slots.size <= capacity


def _brood(placer, rounds=1):
    """Population rows and the children of ``rounds`` crossovers of them."""
    dbc_of, pos_of = placer.initial_population()
    costs = placer.score(dbc_of, pos_of)
    pairs = [placer.tournament(costs, 8).reshape(2, -1) for _ in range(rounds)]
    return dbc_of, pos_of, pairs


class TestOperators:
    def test_crossover_children_valid(self, placer):
        dbc_of, pos_of, pairs = _brood(placer, rounds=20)
        for parents in pairs:
            children, key = placer.crossover(dbc_of, pos_of, parents)
            slots = group_ranks(children, key)
            # 512 slots per DBC: crossover alone never overflows.
            assert_placement_rows(children, slots, 2, 512)

    def test_crossover_preserves_parent_union(self, placer):
        dbc_of, pos_of, pairs = _brood(placer, rounds=20)
        moved = 0
        for parents in pairs:
            children, _ = placer.crossover(dbc_of, pos_of, parents)
            child_a, child_b = children.reshape(parents.shape + (-1,))
            parent_a, parent_b = dbc_of[parents]
            # Per variable, the two children hold the parents' two DBCs.
            assert np.array_equal(np.minimum(child_a, child_b),
                                  np.minimum(parent_a, parent_b))
            assert np.array_equal(np.maximum(child_a, child_b),
                                  np.maximum(parent_a, parent_b))
            moved += int((child_a != parent_a).sum())
        assert moved  # some pair differed inside its swap interval

    def test_crossover_does_not_mutate_parents(self, placer):
        dbc_of, pos_of, pairs = _brood(placer)
        before = dbc_of.copy(), pos_of.copy()
        placer.crossover(dbc_of, pos_of, pairs[0])
        assert np.array_equal(dbc_of, before[0])
        assert np.array_equal(pos_of, before[1])

    def test_mutation_children_valid(self, placer):
        for kind in (MOVE, TRANSPOSE, PERMUTE):
            dbc_of, pos_of, _ = _brood(placer)
            kinds = np.full(dbc_of.shape[0], kind)
            for _ in range(50):
                placer.mutate(dbc_of, pos_of, kinds)
                pos_of = group_ranks(dbc_of, pos_of)
                assert_placement_rows(dbc_of, pos_of, 2, 512)

    def test_mutation_reachability(self, placer):
        """Repeated mutations explore different configurations."""
        dbc_of, pos_of, _ = _brood(placer)
        dbc_of, pos_of = dbc_of[:1], pos_of[:1]
        seen = set()
        for _ in range(60):
            placer.mutate(dbc_of, pos_of, placer.mutation_kinds(1))
            pos_of = group_ranks(dbc_of, pos_of)
            seen.add((dbc_of.tobytes(), pos_of.tobytes()))
        assert len(seen) > 10

    def test_repair_enforces_capacity(self, fig3_sequence):
        # 9 variables in 3 DBCs of 3 slots: every DBC exactly full.
        tight = GeneticPlacer(fig3_sequence, 3, 3, SMALL_GA, rng=0)
        dbc_of, pos_of, pairs = _brood(tight, rounds=30)
        overflowed = 0
        for parents in pairs:
            children, key = tight.crossover(dbc_of, pos_of, parents)
            tight.mutate(children, key, tight.mutation_kinds(children.shape[0]))
            slots = group_ranks(children, key)
            overflowed += int((slots >= 3).any())
            tight.repair(children, slots)
            assert_placement_rows(children, slots, 3, 3)
        assert overflowed  # the repair path ran

    def test_repair_is_a_no_op_with_room_for_every_variable(self, placer):
        dbc_of, pos_of, _ = _brood(placer)
        wide = dbc_of.copy(), pos_of.copy()
        wide[1][0] = 600  # past the capacity, but capacity >= V
        placer.repair(*wide)
        assert wide[1][0, 0] == 600

    def test_move_needs_a_second_dbc(self, fig3_sequence):
        single = GeneticPlacer(fig3_sequence, 1, 9, SMALL_GA, rng=0)
        dbc_of, pos_of, _ = _brood(single)
        before = dbc_of.copy(), pos_of.copy()
        single.mutate(dbc_of, pos_of, np.full(dbc_of.shape[0], MOVE))
        assert np.array_equal(dbc_of, before[0])
        assert np.array_equal(pos_of, before[1])

    def test_mutation_kinds_follow_rate_and_weights(self, fig3_sequence):
        never = GeneticPlacer(fig3_sequence, 2, 512,
                              GAConfig(mutation_rate=0.0), rng=0)
        assert (never.mutation_kinds(100) == NO_MUTATION).all()
        permute = GeneticPlacer(
            fig3_sequence, 2, 512,
            GAConfig(mutation_rate=1.0, mutation_weights=(0.0, 0.0, 1.0)), rng=0,
        )
        assert (permute.mutation_kinds(100) == PERMUTE).all()
        kinds = GeneticPlacer(fig3_sequence, 2, 512, rng=0).mutation_kinds(23_000)
        counts = np.bincount(kinds, minlength=4)
        # Rate 0.5, weights 10 : 10 : 3 -> 5000 : 5000 : 1500 : 11500.
        assert np.allclose(counts, [5000, 5000, 1500, 11500], rtol=0.1)

    def test_tournament_picks_the_first_cheapest_of_distinct_draws(self, fig3_sequence):
        costs = np.array([5, 3, 3, 9])
        whole = GeneticPlacer(fig3_sequence, 2, 512,
                              GAConfig(tournament_size=4), rng=0)
        wins = whole.tournament(costs, 50)
        assert set(wins.tolist()) == {1, 2}  # both cheapest, by draw order
        pairs = GeneticPlacer(fig3_sequence, 2, 512,
                              GAConfig(tournament_size=3), rng=0)
        # Three distinct draws of four always include a cost-3 row.
        assert set(pairs.tournament(costs, 200).tolist()) <= {1, 2}


class TestSeeding:
    def test_seeds_are_valid(self, placer, fig3_sequence):
        dbc_of, pos_of = placer.seed_individuals()
        assert_placement_rows(dbc_of, pos_of, 2, 512)
        decoded = [Placement.from_arrays(fig3_sequence.variables, d, p, 2)
                   for d, p in zip(dbc_of, pos_of)]
        expected = [get_policy(name).place(fig3_sequence, 2, 512)
                    for name in ("DMA-SR", "DMA-Chen", "DMA-OFU", "DMA", "AFD")]
        assert decoded == expected

    def test_seeded_run_at_least_matches_heuristics(self, fig3_sequence):
        ga = GeneticPlacer(fig3_sequence, 2, 512, SMALL_GA, rng=1)
        result = ga.run()
        dma_sr = get_policy("DMA-SR").place(fig3_sequence, 2, 512)
        assert result.cost <= shift_cost(fig3_sequence, dma_sr)


class TestRun:
    def test_result_consistency(self, fig3_sequence):
        result = GeneticPlacer(fig3_sequence, 2, 512, SMALL_GA, rng=7).run()
        assert result.cost == shift_cost(fig3_sequence, result.placement)
        assert result.generations_run == SMALL_GA.generations
        assert result.evaluations == SMALL_GA.mu + SMALL_GA.lam * SMALL_GA.generations

    def test_history_monotone_nonincreasing(self, fig3_sequence):
        result = GeneticPlacer(fig3_sequence, 2, 512, SMALL_GA, rng=7).run()
        assert all(a >= b for a, b in zip(result.history, result.history[1:]))

    def test_deterministic_for_seed(self, fig3_sequence):
        r1 = GeneticPlacer(fig3_sequence, 2, 512, SMALL_GA, rng=5).run()
        r2 = GeneticPlacer(fig3_sequence, 2, 512, SMALL_GA, rng=5).run()
        assert r1.cost == r2.cost
        assert r1.placement == r2.placement

    def test_each_run_counts_its_own_evaluations(self, fig3_sequence):
        """A placer run twice reports mu + lam x generations each time,
        not a running total."""
        ga = GeneticPlacer(fig3_sequence, 2, 512,
                           GAConfig(mu=8, lam=8, generations=5), rng=1)
        for _ in range(2):
            result = ga.run()
            assert result.evaluations == 8 + 8 * result.generations_run == 48

    def test_patience_stops_early(self, fig3_sequence):
        cfg = GAConfig(mu=8, lam=8, generations=100, patience=3)
        result = GeneticPlacer(fig3_sequence, 2, 512, cfg, rng=3).run()
        assert result.generations_run < 100
        assert result.evaluations == 8 + 8 * result.generations_run

    def test_zero_generations_returns_best_seed(self, fig3_sequence):
        cfg = GAConfig(mu=8, lam=8, generations=0)
        result = GeneticPlacer(fig3_sequence, 2, 512, cfg, rng=3).run()
        assert result.cost <= 39  # at least as good as raw AFD

    def test_finds_optimum_on_fig3(self, fig3_sequence):
        """The exact optimum for the running example is 9 shifts."""
        cfg = GAConfig(mu=30, lam=30, generations=40)
        result = GeneticPlacer(fig3_sequence, 2, 512, cfg, rng=1).run()
        assert result.cost == 9

    def test_placement_covers_all_variables(self, fig3_sequence):
        result = GeneticPlacer(fig3_sequence, 2, 512, SMALL_GA, rng=7).run()
        result.placement.validate_for(fig3_sequence, num_dbcs=2, capacity=512)

    def test_no_heuristic_seeding_still_works(self, fig3_sequence):
        cfg = GAConfig(mu=10, lam=10, generations=5, seed_with_heuristics=False)
        result = GeneticPlacer(fig3_sequence, 2, 512, cfg, rng=2).run()
        result.placement.validate_for(fig3_sequence, num_dbcs=2, capacity=512)
