"""The array-built heuristics against their per-access Python originals.

``ofu_order``, ``chen_order``, ``shifts_reduce_order`` and ``afd_order``
must return exactly what the loop versions below return: every
placement pin and stored cell depends on their tie orders. The oracles
walk the DBC's restricted subsequence and its :class:`AccessGraph`, one
Python step per access and per (candidate, side).
"""

from __future__ import annotations

from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.inter.afd import afd_order
from repro.core.intra import chen_order, ofu_order, shifts_reduce_order
from repro.errors import TraceError
from repro.trace.graph import AccessGraph, local_graph
from repro.trace.liveness import Liveness
from repro.trace.sequence import AccessSequence

from tests.properties.strategies import access_sequences


def oracle_ofu(sequence, variables):
    variables = list(variables)
    if len(variables) <= 1:
        return variables
    local = sequence.restricted_to(variables)
    live = Liveness(local)
    accessed = [v for v in variables if live.frequency(v) > 0]
    unaccessed = [v for v in variables if live.frequency(v) == 0]
    accessed.sort(key=live.first)
    return accessed + unaccessed


def oracle_chen(sequence, variables):
    variables = list(variables)
    if len(variables) <= 1:
        return variables
    local = sequence.restricted_to(variables)
    graph = AccessGraph(local)
    freq = {v: local.frequency(v) for v in variables}
    decl = {v: i for i, v in enumerate(variables)}
    unplaced = set(variables)
    seed = min(unplaced, key=lambda v: (-graph.weighted_degree(v), -freq[v], decl[v]))
    arrangement = deque([seed])
    unplaced.remove(seed)
    affinity = {v: graph.weight(v, seed) for v in unplaced}
    while unplaced:
        best = min(unplaced, key=lambda v: (-affinity[v], -freq[v], decl[v]))
        w_left = graph.weight(best, arrangement[0])
        w_right = graph.weight(best, arrangement[-1])
        if w_left > w_right:
            arrangement.appendleft(best)
        else:
            arrangement.append(best)
        unplaced.remove(best)
        for v in unplaced:
            affinity[v] += graph.weight(v, best)
    return list(arrangement)


def oracle_shifts_reduce(sequence, variables):
    variables = list(variables)
    if len(variables) <= 1:
        return variables
    local = sequence.restricted_to(variables)
    graph = AccessGraph(local)
    freq = {v: local.frequency(v) for v in variables}
    decl = {v: i for i, v in enumerate(variables)}

    def seed_key(v):
        return (-graph.weighted_degree(v), -freq[v], decl[v])

    unplaced = set(variables)
    seed = min(unplaced, key=seed_key)
    arrangement = deque([seed])
    unplaced.remove(seed)
    while unplaced:
        left_w = graph.neighbors(arrangement[0])
        right_w = graph.neighbors(arrangement[-1])
        best_v, best_side, best_key = None, "right", None
        for v in unplaced:
            for side, w in (("right", right_w.get(v, 0)), ("left", left_w.get(v, 0))):
                key = (-w, -freq[v], decl[v], 0 if side == "right" else 1)
                if best_key is None or key < best_key:
                    best_v, best_side, best_key = v, side, key
        if best_key[0] == 0:
            best_v = min(unplaced, key=seed_key)
            best_side = "right" if len(arrangement) % 2 == 0 else "left"
        if best_side == "right":
            arrangement.append(best_v)
        else:
            arrangement.appendleft(best_v)
        unplaced.remove(best_v)
    return list(arrangement)


def oracle_afd(sequence, variables):
    freq = sequence.frequencies
    index = sequence.index_of
    return sorted(variables, key=lambda v: (-int(freq[index(v)]), index(v)))


PAIRS = [
    (ofu_order, oracle_ofu),
    (chen_order, oracle_chen),
    (shifts_reduce_order, oracle_shifts_reduce),
]
IDS = ["OFU", "Chen", "SR"]


@st.composite
def repeated_patterns(draw):
    """A short random pattern repeated: many equal edge weights and
    equal frequencies, the cases where only the tie order decides."""
    seq = draw(access_sequences(max_vars=10, max_length=8))
    reps = draw(st.integers(min_value=1, max_value=4))
    return AccessSequence(list(seq) * reps, variables=seq.variables)


@st.composite
def dbc_subsets(draw, sequences=access_sequences(max_vars=12, max_length=60)):
    """``(sequence, variables)``: any ordered subset of the universe, from
    ``[]`` through single variables and strict subsets to all of it, in
    an order unrelated to declaration order."""
    seq = draw(sequences)
    shuffled = draw(st.permutations(list(seq.variables)))
    size = draw(st.integers(min_value=0, max_value=len(shuffled)))
    return seq, shuffled[:size]


@pytest.mark.parametrize("new, oracle", PAIRS, ids=IDS)
@settings(max_examples=300, deadline=None)
@given(case=dbc_subsets())
def test_matches_oracle(new, oracle, case):
    seq, variables = case
    assert new(seq, variables) == oracle(seq, variables)


@pytest.mark.parametrize("new, oracle", PAIRS, ids=IDS)
@settings(max_examples=200, deadline=None)
@given(case=dbc_subsets(repeated_patterns()))
def test_matches_oracle_under_ties(new, oracle, case):
    seq, variables = case
    assert new(seq, variables) == oracle(seq, variables)


@settings(max_examples=200, deadline=None)
@given(case=dbc_subsets())
def test_afd_order_matches_oracle(case):
    seq, variables = case
    assert afd_order(seq, variables) == oracle_afd(seq, variables)
    assert afd_order(seq) == oracle_afd(seq, seq.variables)


@settings(max_examples=200, deadline=None)
@given(case=dbc_subsets())
def test_local_graph_matches_access_graph(case):
    seq, variables = case
    if not variables:
        return
    graph = local_graph(seq, variables)
    ref = AccessGraph(seq.restricted_to(variables))
    for u, name in enumerate(variables):
        lo, hi = graph.indptr[u], graph.indptr[u + 1]
        row = {variables[c]: w for c, w in zip(graph.cols[lo:hi].tolist(),
                                                graph.weights[lo:hi].tolist())}
        assert row == ref.neighbors(name)
        assert graph.degree[u] == ref.weighted_degree(name)


@pytest.mark.parametrize("heuristic", [ofu_order, chen_order, shifts_reduce_order, afd_order])
def test_unknown_variable_raises(heuristic, fig3_sequence):
    with pytest.raises(TraceError):
        heuristic(fig3_sequence, ["a", "nope"])
