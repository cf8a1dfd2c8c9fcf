"""Unit tests for the cost lower bounds and the annealing optimizer."""

import numpy as np
import pytest

from repro.core.bounds import (
    degree_lower_bound,
    edge_lower_bound,
    intra_lower_bound,
    placement_lower_bound,
    sampled_intra_upper_bound,
)
from repro.core.cost import shift_cost
from repro.core.intra import annealed_order, ofu_order, optimal_intra_cost
from repro.core.intra import annealing
from repro.core.placement import Placement
from repro.errors import SolverError
from repro.trace.generators.synthetic import zipf_sequence
from repro.trace.sequence import AccessSequence


class TestBounds:
    def test_edge_bound_on_alternation(self):
        seq = AccessSequence(list("ababab"))
        assert edge_lower_bound(seq, ["a", "b"]) == 5

    def test_degree_bound_at_least_edge_bound(self):
        for s in range(6):
            seq = zipf_sequence(8, 60, rng=s)
            variables = list(seq.variables)
            assert degree_lower_bound(seq, variables) >= \
                edge_lower_bound(seq, variables)

    def test_bounds_below_optimal(self):
        """The whole point: LB <= exact optimum on every instance."""
        for s in range(8):
            seq = zipf_sequence(9, 70, alpha=1.1, locality=0.15, rng=s)
            variables = list(seq.variables)
            optimum = optimal_intra_cost(seq, variables)
            assert intra_lower_bound(seq, variables) <= optimum

    def test_star_graph_degree_bound(self):
        # hub h touched between every leaf: edges h-a, h-b, h-c, h-d (w=2 each)
        seq = AccessSequence(list("hahbhchd"))
        variables = list(seq.variables)
        lb = degree_lower_bound(seq, variables)
        # hub distances must be 1,1,2,2 for its four unit... each edge w edges
        assert lb > edge_lower_bound(seq, variables) - 1

    def test_single_variable_zero(self):
        seq = AccessSequence(["a"])
        assert intra_lower_bound(seq, ["a"]) == 0

    def test_placement_bound_sums_dbcs(self, fig3_sequence):
        placement = Placement([("a", "g", "b", "d", "h"), ("e", "i", "c", "f")])
        total = placement_lower_bound(fig3_sequence, placement.dbc_lists())
        per_dbc = sum(
            intra_lower_bound(fig3_sequence, list(d))
            for d in placement.dbc_lists()
        )
        assert total == per_dbc
        assert total <= shift_cost(fig3_sequence, placement)


class TestSampledUpperBound:
    def test_brackets_the_optimum(self):
        for s in range(4):
            seq = zipf_sequence(8, 60, rng=s)
            variables = list(seq.variables)
            optimum = optimal_intra_cost(seq, variables)
            ub = sampled_intra_upper_bound(seq, variables, samples=64, rng=s)
            assert intra_lower_bound(seq, variables) <= optimum <= ub

    def test_matches_scalar_scoring(self):
        seq = zipf_sequence(7, 50, rng=2)
        variables = list(seq.variables)
        ub = sampled_intra_upper_bound(seq, variables, samples=1, rng=5)
        # One sample == scoring that single random order the scalar way.
        import numpy as np
        from repro.util.rng import ensure_rng
        local = seq.restricted_to(variables)
        order = ensure_rng(5).permutation(local.num_variables)
        placement = Placement([[local.variables[int(c)]
                                for c in np.argsort(order)]])
        assert ub == shift_cost(local, placement)

    def test_more_samples_never_worse(self):
        seq = zipf_sequence(10, 90, rng=1)
        variables = list(seq.variables)
        few = sampled_intra_upper_bound(seq, variables, samples=4, rng=3)
        # Same stream extended: strictly more exploration.
        many = sampled_intra_upper_bound(seq, variables, samples=64, rng=3)
        assert many <= few

    def test_trivial_sizes(self):
        seq = AccessSequence(["a"])
        assert sampled_intra_upper_bound(seq, ["a"]) == 0


class TestAnnealing:
    def test_permutation(self, small_sequence):
        variables = list(small_sequence.variables)
        order = annealed_order(small_sequence, variables,
                               iterations=200, rng=0)
        assert sorted(order) == sorted(variables)

    def test_never_worse_than_ofu(self):
        for s in range(4):
            seq = zipf_sequence(12, 120, rng=s)
            variables = list(seq.variables)
            sa = annealed_order(seq, variables, iterations=600, rng=s)
            local = seq.restricted_to(variables)
            sa_cost = shift_cost(local, Placement([sa]))
            ofu_cost = shift_cost(
                local, Placement([ofu_order(seq, variables)])
            )
            assert sa_cost <= ofu_cost  # SA starts from OFU and keeps best

    def test_near_optimal_on_small_instances(self):
        seq = zipf_sequence(8, 80, alpha=1.3, locality=0.1, rng=3)
        variables = list(seq.variables)
        optimum = optimal_intra_cost(seq, variables)
        sa = annealed_order(seq, variables, iterations=3000, rng=1)
        local = seq.restricted_to(variables)
        assert shift_cost(local, Placement([sa])) <= max(optimum * 1.25, optimum + 2)

    def test_deterministic_for_seed(self, small_sequence):
        variables = list(small_sequence.variables)
        a = annealed_order(small_sequence, variables, iterations=150, rng=9)
        b = annealed_order(small_sequence, variables, iterations=150, rng=9)
        assert a == b

    def test_tiny_instances_shortcut(self):
        seq = AccessSequence(list("ab"))
        assert annealed_order(seq, ["a", "b"], rng=0) == ["a", "b"]

    def test_validation(self, small_sequence):
        with pytest.raises(SolverError):
            annealed_order(small_sequence, list(small_sequence.variables),
                           iterations=0)

    @staticmethod
    def random_dbc(seed):
        """A random trace and the variables of one DBC (at least three)."""
        rng = np.random.default_rng(seed)
        names = [f"v{i}" for i in range(int(rng.integers(3, 16)))]
        codes = rng.integers(0, len(names), int(rng.integers(2, 150)))
        seq = AccessSequence([names[c] for c in codes], variables=names)
        size = int(rng.integers(3, len(names) + 1))
        return seq, [names[c] for c in rng.choice(len(names), size, replace=False)]

    @pytest.mark.parametrize("seed", range(6))
    def test_running_total_matches_shift_cost(self, seed, monkeypatch):
        # A recompute after every accepted move, priced by shift_cost;
        # annealing raises if its running total differs.
        seq, variables = self.random_dbc(seed)
        local = seq.restricted_to(variables)
        arrangement_cost = annealing._arrangement_cost
        checked = []

        def shift_cost_of(adj, pos):
            order = sorted(local.variables, key=lambda v: pos[local.index_of(v)])
            cost = shift_cost(local, Placement([order]))
            assert arrangement_cost(adj, pos) == cost
            checked.append(cost)
            return cost

        monkeypatch.setattr(annealing, "_CHECK_EVERY", 1)
        monkeypatch.setattr(annealing, "_arrangement_cost", shift_cost_of)
        annealed_order(seq, variables, iterations=200,
                       start_temperature=20.0, rng=seed)
        assert len(checked) > 1  # the starting total, then each accepted move

    def test_running_total_mismatch_raises(self, monkeypatch):
        seq, variables = self.random_dbc(0)
        arrangement_cost = annealing._arrangement_cost
        calls = []

        def off_by_one_after_start(adj, pos):
            calls.append(pos)
            return arrangement_cost(adj, pos) + (len(calls) > 1)

        monkeypatch.setattr(annealing, "_CHECK_EVERY", 1)
        monkeypatch.setattr(annealing, "_arrangement_cost", off_by_one_after_start)
        with pytest.raises(SolverError, match="running total"):
            annealed_order(seq, variables, iterations=200,
                           start_temperature=20.0, rng=0)

    def test_registered_policy_runs(self, small_sequence):
        from repro.core.policies import get_policy
        placement = get_policy("DMA-SA").place(small_sequence, 4, 64)
        placement.validate_for(small_sequence, num_dbcs=4, capacity=64)
