"""Unit tests for the intra-DBC placement heuristics."""

import tracemalloc

import numpy as np
import pytest

from repro.core.cost import shift_cost
from repro.core.intra import (
    INTRA_HEURISTICS,
    chen_order,
    ofu_order,
    optimal_order,
    random_order,
    shifts_reduce_order,
    tsp_order,
)
from repro.core.placement import Placement
from repro.trace.sequence import AccessSequence

HEURISTICS = [ofu_order, chen_order, shifts_reduce_order, tsp_order]


def intra_cost(seq, variables, order):
    local = seq.restricted_to(variables)
    return shift_cost(local, Placement([order]))


class TestCommonContract:
    @pytest.mark.parametrize("heuristic", HEURISTICS)
    def test_returns_permutation(self, heuristic, fig3_sequence):
        variables = list(fig3_sequence.variables)
        order = heuristic(fig3_sequence, variables)
        assert sorted(order) == sorted(variables)

    @pytest.mark.parametrize("heuristic", HEURISTICS)
    def test_single_variable_identity(self, heuristic, fig3_sequence):
        assert heuristic(fig3_sequence, ["a"]) == ["a"]

    @pytest.mark.parametrize("heuristic", HEURISTICS)
    def test_empty_list_identity(self, heuristic, fig3_sequence):
        assert heuristic(fig3_sequence, []) == []

    @pytest.mark.parametrize("heuristic", HEURISTICS)
    def test_handles_unaccessed_variables(self, heuristic):
        seq = AccessSequence(list("abab"), variables=list("ab") + ["z0", "z1"])
        order = heuristic(seq, list(seq.variables))
        assert sorted(order) == ["a", "b", "z0", "z1"]

    @pytest.mark.parametrize("heuristic", HEURISTICS)
    def test_deterministic(self, heuristic, small_sequence):
        variables = list(small_sequence.variables)
        assert heuristic(small_sequence, variables) == heuristic(
            small_sequence, variables
        )

    @pytest.mark.parametrize("heuristic", HEURISTICS)
    def test_operates_on_local_subsequence(self, heuristic, fig3_sequence):
        """Placing a subset must ignore accesses to other variables."""
        subset = ["a", "b", "d"]
        order = heuristic(fig3_sequence, subset)
        assert sorted(order) == subset


class TestOFU:
    def test_first_use_order(self):
        seq = AccessSequence(list("cabcab"))
        assert ofu_order(seq, list("abc")) == ["c", "a", "b"]

    def test_local_first_use(self, fig3_sequence):
        # restricted to {e, i, c, f}: first uses are c, i, e, f
        assert ofu_order(fig3_sequence, ["e", "i", "c", "f"]) == ["c", "i", "e", "f"]

    def test_unaccessed_go_last(self):
        seq = AccessSequence(["b"], variables=["z", "b"])
        assert ofu_order(seq, ["z", "b"]) == ["b", "z"]


class TestQualityOrdering:
    """The suite-level quality relation the paper relies on (Sec. IV-B)."""

    def test_sr_beats_ofu_on_affinity_traces(self):
        """Where first-use order carries no signal (hot-variable
        alternation, the non-disjoint leftover traffic DMA hands to the
        intra heuristics), adjacency-driven SR must win in aggregate."""
        from repro.trace.generators.synthetic import zipf_sequence
        sr_total = ofu_total = 0
        for seed in range(10):
            seq = zipf_sequence(20, 200, alpha=1.3, locality=0.1, rng=seed)
            variables = list(seq.variables)
            sr_total += intra_cost(
                seq, variables, shifts_reduce_order(seq, variables)
            )
            ofu_total += intra_cost(seq, variables, ofu_order(seq, variables))
        assert sr_total < ofu_total

    def test_heuristics_beat_worst_case(self, small_sequence):
        variables = list(small_sequence.variables)
        worst = intra_cost(small_sequence, variables,
                           random_order(small_sequence, variables, rng=0))
        for h in (chen_order, shifts_reduce_order, tsp_order):
            assert intra_cost(small_sequence, variables,
                              h(small_sequence, variables)) <= worst * 1.2

    def test_optimal_is_lower_bound(self):
        seq = AccessSequence(list("abcacbdadbccdbaa"))
        variables = list(seq.variables)
        best = intra_cost(seq, variables, optimal_order(seq, variables))
        for h in HEURISTICS:
            assert best <= intra_cost(seq, variables, h(seq, variables))


class TestOptimalDP:
    def test_known_tiny_instance(self):
        # a-b alternation with c touched once: optimal keeps a,b adjacent
        seq = AccessSequence(list("abababc"))
        order = optimal_order(seq, list("abc"))
        pos = {v: i for i, v in enumerate(order)}
        assert abs(pos["a"] - pos["b"]) == 1

    def test_matches_brute_force(self):
        from itertools import permutations
        seq = AccessSequence(list("aebcadbcedaebb"))
        variables = list(seq.variables)
        brute = min(
            intra_cost(seq, variables, list(p))
            for p in permutations(variables)
        )
        assert intra_cost(
            seq, variables, optimal_order(seq, variables)
        ) == brute

    def test_size_guard(self, small_sequence):
        from repro.errors import SolverError
        with pytest.raises(SolverError):
            optimal_order(small_sequence, list(small_sequence.variables))

    def test_optimal_intra_cost_consistent(self):
        from repro.core.intra import optimal_intra_cost
        seq = AccessSequence(list("abcacbdadb"))
        variables = list(seq.variables)
        assert optimal_intra_cost(seq, variables) == intra_cost(
            seq, variables, optimal_order(seq, variables)
        )


class TestRandomOrder:
    def test_permutation_and_determinism(self, small_sequence):
        variables = list(small_sequence.variables)
        a = random_order(small_sequence, variables, rng=3)
        b = random_order(small_sequence, variables, rng=3)
        assert a == b
        assert sorted(a) == sorted(variables)


class TestRegistry:
    def test_registry_contains_paper_heuristics(self):
        assert {"OFU", "Chen", "SR"} <= set(INTRA_HEURISTICS)



class TestScale:
    @pytest.mark.parametrize("heuristic", [chen_order, shifts_reduce_order])
    def test_memory_stays_linear_on_a_huge_dbc(self, heuristic):
        """One 5,000-variable DBC: an n x n int64 matrix alone would take
        200 MB; the local graph's arrays stay under 32 MiB."""
        names = [f"v{i}" for i in range(5000)]
        codes = np.random.default_rng(5).integers(0, 5000, 50_000)
        seq = AccessSequence.from_codes(names, codes)
        tracemalloc.start()
        try:
            order = heuristic(seq, names)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert sorted(order) == sorted(names)
        assert peak < 32 * 2**20
