"""Unit tests for the random-walk search and the exact solver."""

import numpy as np
import pytest

import repro.core.random_walk as random_walk
from repro.core.cost import shift_cost
from repro.core.exact import exact_optimal_placement
from repro.core.ga import GAConfig, GeneticPlacer
from repro.core.random_walk import random_placement, random_walk_search
from repro.errors import SolverError
from repro.trace.sequence import AccessSequence

from tests.paperdata import FIG3_ACCESSES


class TestRandomWalk:
    def test_best_of_iterations(self, fig3_sequence):
        result = random_walk_search(fig3_sequence, 2, 512, iterations=300, rng=4)
        assert result.cost == shift_cost(fig3_sequence, result.placement)
        assert result.iterations == 300

    def test_more_iterations_never_worse(self, fig3_sequence):
        short = random_walk_search(fig3_sequence, 2, 512, iterations=20, rng=9)
        # same stream extended: strictly more exploration
        long = random_walk_search(fig3_sequence, 2, 512, iterations=2000, rng=9)
        assert long.cost <= short.cost

    def test_deterministic(self, fig3_sequence):
        a = random_walk_search(fig3_sequence, 2, 512, iterations=50, rng=3)
        b = random_walk_search(fig3_sequence, 2, 512, iterations=50, rng=3)
        assert a.cost == b.cost and a.placement == b.placement

    def test_history_sampled(self, fig3_sequence):
        result = random_walk_search(
            fig3_sequence, 2, 512, iterations=500, rng=1, history_stride=100
        )
        assert len(result.history) == 5
        assert all(a >= b for a, b in zip(result.history, result.history[1:]))

    def test_zero_iterations_rejected(self, fig3_sequence):
        with pytest.raises(SolverError):
            random_walk_search(fig3_sequence, 2, 512, iterations=0)

    def test_random_placement_valid(self, fig3_sequence):
        p = random_placement(fig3_sequence, 3, 4, rng=2)
        p.validate_for(fig3_sequence, num_dbcs=3, capacity=4)

    @pytest.mark.parametrize("stride", [0, -1])
    def test_history_stride_below_one_rejected(self, fig3_sequence, stride):
        with pytest.raises(SolverError, match="history_stride"):
            random_walk_search(fig3_sequence, 2, 512, iterations=10,
                               history_stride=stride)

    @pytest.mark.parametrize("ports", [1, 2])
    @pytest.mark.parametrize("accesses,num_dbcs,capacity", [
        (FIG3_ACCESSES, 2, 512),
        (FIG3_ACCESSES, 3, 3),  # every location filled
        (list("abcacb"), 3, 1),  # every candidate costs 0: the first drawn wins
    ], ids=["fig3", "fig3-full", "all-tied"])
    def test_result_follows_from_the_scored_candidates(
        self, monkeypatch, accesses, num_dbcs, capacity, ports
    ):
        """Holds on any RNG stream: the result is the first cheapest
        candidate scored, and the history is the running minimum."""
        sequence = AccessSequence(accesses)
        scored = []
        evaluate_batch = random_walk.evaluate_batch

        def spy(codes, dbc_of, pos_of, **kwargs):
            costs = evaluate_batch(codes, dbc_of, pos_of, **kwargs)
            scored.append((dbc_of, pos_of, costs))
            return costs

        monkeypatch.setattr(random_walk, "evaluate_batch", spy)
        domains = 64 if ports > 1 else None
        result = random_walk_search(
            sequence, num_dbcs, capacity, iterations=1300, rng=5,
            history_stride=250, ports=ports, domains=domains,
        )
        dbc_of, pos_of, costs = (np.concatenate(a) for a in zip(*scored))
        assert costs.size == 1300
        first = int(np.argmin(costs))
        assert result.cost == costs[first] == shift_cost(
            sequence, result.placement, ports=ports, domains=domains
        )
        result.placement.validate_for(
            sequence, num_dbcs=num_dbcs, capacity=capacity
        )
        got_dbc, got_pos = result.placement.as_arrays(sequence)
        assert (got_dbc == dbc_of[first]).all()
        assert (got_pos == pos_of[first]).all()
        history = result.history
        assert len(history) == 1300 // 250
        assert all(a >= b for a, b in zip(history, history[1:]))
        assert history == np.minimum.accumulate(costs)[249::250].tolist()


class TestExactSolver:
    def test_fig3_optimum_is_nine(self, fig3_sequence):
        placement, cost = exact_optimal_placement(fig3_sequence, 2, 512)
        assert cost == 9
        assert shift_cost(fig3_sequence, placement) == 9

    def test_exact_lower_bounds_heuristics(self, fig3_sequence):
        from repro.core.policies import get_policy
        _, optimum = exact_optimal_placement(fig3_sequence, 2, 512)
        for name in ("AFD-OFU", "DMA-OFU", "DMA-Chen", "DMA-SR"):
            p = get_policy(name).place(fig3_sequence, 2, 512)
            assert shift_cost(fig3_sequence, p) >= optimum

    def test_single_dbc_matches_intra_optimal(self):
        from repro.core.intra import optimal_intra_cost
        seq = AccessSequence(list("abcacbdadb"))
        _, cost = exact_optimal_placement(seq, 1, 10)
        assert cost == optimal_intra_cost(seq, list(seq.variables))

    def test_capacity_respected(self):
        seq = AccessSequence(list("aabbcc"))
        placement, _ = exact_optimal_placement(seq, 3, 1)
        assert all(len(d) <= 1 for d in placement.dbc_lists())

    def test_more_dbcs_never_hurt(self):
        seq = AccessSequence(list("abcabcab"))
        _, one = exact_optimal_placement(seq, 1, 8)
        _, two = exact_optimal_placement(seq, 2, 8)
        _, three = exact_optimal_placement(seq, 3, 8)
        assert three <= two <= one

    def test_size_guard(self, small_sequence):
        with pytest.raises(SolverError):
            exact_optimal_placement(small_sequence, 2, 64)

    def test_infeasible_rejected(self):
        seq = AccessSequence(list("abc"))
        with pytest.raises(SolverError):
            exact_optimal_placement(seq, 1, 2)

    def test_ga_reaches_exact_optimum_on_tiny_instances(self):
        seq = AccessSequence(list("abcacbddbeaecadeb"))
        _, optimum = exact_optimal_placement(seq, 2, 5)
        cfg = GAConfig(mu=30, lam=30, generations=60)
        result = GeneticPlacer(seq, 2, 5, cfg, rng=8).run()
        assert result.cost <= optimum * 1.1  # allow tiny slack for stochastics
