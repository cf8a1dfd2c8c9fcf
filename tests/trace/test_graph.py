"""Unit tests for repro.trace.graph: AccessGraph and local_graph."""

import numpy as np
import pytest

from repro.errors import TraceError
from repro.trace.graph import AccessGraph, local_graph
from repro.trace.sequence import AccessSequence


@pytest.fixture
def tiny_graph():
    #  a b a b c c  -> edges: {a,b} w=3, {b,c} w=1; one self transition (c,c)
    return AccessGraph(AccessSequence(list("ababcc")))


class TestWeights:
    def test_edge_weight_counts_consecutive_pairs(self, tiny_graph):
        assert tiny_graph.weight("a", "b") == 3
        assert tiny_graph.weight("b", "c") == 1

    def test_weight_is_symmetric(self, tiny_graph):
        assert tiny_graph.weight("a", "b") == tiny_graph.weight("b", "a")

    def test_absent_edge_weight_zero(self, tiny_graph):
        assert tiny_graph.weight("a", "c") == 0

    def test_self_transitions_not_edges(self, tiny_graph):
        assert tiny_graph.weight("c", "c") == 0
        assert tiny_graph.self_transitions == 1

    def test_unknown_vertex_raises(self, tiny_graph):
        with pytest.raises(TraceError):
            tiny_graph.weight("a", "zz")
        with pytest.raises(TraceError):
            tiny_graph.neighbors("zz")
        with pytest.raises(TraceError):
            tiny_graph.weighted_degree("zz")


class TestStructure:
    def test_vertices_cover_all_variables(self, fig3_sequence):
        g = AccessGraph(fig3_sequence)
        assert g.vertices == fig3_sequence.variables

    def test_edges_yielded_once(self, tiny_graph):
        edges = list(tiny_graph.edges())
        assert sorted((u, v) for u, v, _ in edges) == [("a", "b"), ("b", "c")]

    def test_num_edges(self, tiny_graph):
        assert tiny_graph.num_edges() == 2

    def test_total_weight_plus_self_is_length_minus_one(self, fig3_sequence):
        g = AccessGraph(fig3_sequence)
        assert g.total_weight() + g.self_transitions == len(fig3_sequence) - 1

    def test_weighted_degree(self, tiny_graph):
        assert tiny_graph.weighted_degree("b") == 4
        assert tiny_graph.weighted_degree("a") == 3
        assert tiny_graph.weighted_degree("c") == 1

    def test_neighbors_returns_copy(self, tiny_graph):
        n = tiny_graph.neighbors("a")
        n["b"] = 999
        assert tiny_graph.weight("a", "b") == 3

    def test_isolated_vertex(self):
        g = AccessGraph(AccessSequence(["a"], variables=["a", "lonely"]))
        assert g.weighted_degree("lonely") == 0
        assert g.neighbors("lonely") == {}

    def test_empty_sequence_graph(self):
        g = AccessGraph(AccessSequence([], variables=["a"]))
        assert g.num_edges() == 0
        assert g.self_transitions == 0


def _brute_force_pairs(sequence):
    """Edge weights, neighbour order and self transitions of ``sequence``,
    counted pair by pair over its access names."""
    accesses = sequence.accesses
    weights: dict[frozenset, int] = {}
    order: dict[str, list[str]] = {v: [] for v in sequence.variables}
    self_transitions = 0
    for u, v in zip(accesses, accesses[1:]):
        if u == v:
            self_transitions += 1
            continue
        edge = frozenset((u, v))
        weights[edge] = weights.get(edge, 0) + 1
        for a, b in ((u, v), (v, u)):
            if b not in order[a]:
                order[a].append(b)
    return weights, order, self_transitions


def _pair_count_cases():
    cases = {
        "empty": AccessSequence([], variables=["a", "b"]),
        "one-access": AccessSequence(["a"], variables=["a", "b"]),
        "all-repeat": AccessSequence(["b"] * 9, variables=["a", "b", "c"]),
    }
    rng = np.random.default_rng(2024)
    for k in range(40):
        names = [f"v{i}" for i in range(int(rng.integers(1, 12)))]
        length = int(rng.integers(0, 200))
        # Skewed picks so repeats, self transitions and unused names occur.
        picks = np.minimum(rng.geometric(0.35, length) - 1, len(names) - 1)
        cases[f"random-{k}"] = AccessSequence(
            [names[i] for i in picks], variables=names
        )
    return cases


PAIR_COUNT_CASES = _pair_count_cases()


@pytest.mark.parametrize("case", PAIR_COUNT_CASES)
def test_graph_matches_brute_force_pair_count(case):
    sequence = PAIR_COUNT_CASES[case]
    weights, order, self_transitions = _brute_force_pairs(sequence)
    graph = AccessGraph(sequence)
    assert graph.self_transitions == self_transitions
    assert {frozenset((u, v)): w for u, v, w in graph.edges()} == weights
    for u in sequence.variables:
        # Neighbours in order of first co-occurrence: intra heuristics
        # iterate them, so the order is part of the placement.
        assert list(graph.neighbors(u)) == order[u]
        for v in sequence.variables:
            if u != v:
                assert graph.weight(u, v) == weights.get(frozenset((u, v)), 0)
    assert graph.total_weight() + self_transitions == max(len(sequence) - 1, 0)


class TestLocalGraph:
    def test_tie_ranks_frequency_then_list_position(self):
        seq = AccessSequence(list("abcab"), variables=list("abcz"))
        # Frequencies z 0, c 1, b 2, a 2: b first (listed before a), then
        # a, c, z.
        graph = local_graph(seq, ["z", "c", "b", "a"])
        assert graph.tie.tolist() == [0, 1, 3, 2]

    def test_rows_sorted_and_symmetric(self, fig3_sequence):
        graph = local_graph(fig3_sequence, list("hgfedcba"))
        keys = graph.rows * 8 + graph.cols
        assert (np.diff(keys) > 0).all()
        mirrored = np.sort(graph.cols * 8 + graph.rows)
        assert np.array_equal(mirrored, keys)
        assert graph.indptr.tolist() == np.searchsorted(
            graph.rows, np.arange(9)).tolist()

    def test_no_accesses_no_edges(self):
        seq = AccessSequence(list("aab"), variables=list("abz"))
        graph = local_graph(seq, ["z", "a"])
        assert graph.cols.size == 0
        assert graph.indptr.tolist() == [0, 0, 0]
        assert graph.degree.tolist() == [0, 0]
