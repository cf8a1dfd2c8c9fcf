"""TSP-flavoured intra-DBC placement, after Jünger & Mallach [4].

Offset assignment is equivalent to finding a maximum-weight Hamiltonian
path in the access graph (adjacent placement saves one shift per unit of
edge weight). This heuristic builds that path greedily Kruskal-style —
take edges in descending weight, joining path fragments — and then
polishes the resulting order with 2-opt moves evaluated on the *true*
local shift cost (which also accounts for non-adjacent distances the
path abstraction ignores).
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.engine import evaluate_batch
from repro.trace.graph import AccessGraph
from repro.trace.sequence import AccessSequence

#: 2-opt is skipped beyond these sizes to keep the heuristic fast.
_TWO_OPT_MAX_VARS = 48
_TWO_OPT_MAX_ACCESSES = 4000
_TWO_OPT_MAX_PASSES = 4


def tsp_order(sequence: AccessSequence, variables: Sequence[str]) -> list[str]:
    """Max-weight path construction followed by bounded 2-opt polishing."""
    variables = list(variables)
    if len(variables) <= 1:
        return variables
    local = sequence.restricted_to(variables)
    order = _max_weight_path(local, variables)
    if (
        len(variables) <= _TWO_OPT_MAX_VARS
        and len(local) <= _TWO_OPT_MAX_ACCESSES
    ):
        order = _two_opt(local, order)
    return order


def _max_weight_path(local: AccessSequence, variables: list[str]) -> list[str]:
    graph = AccessGraph(local)
    decl = {v: i for i, v in enumerate(variables)}
    edges = sorted(
        graph.edges(), key=lambda e: (-e[2], decl[e[0]], decl[e[1]])
    )
    # Union-find over path fragments; each vertex may gain at most 2 path
    # neighbours and joining two ends of the same fragment would close a cycle.
    parent = {v: v for v in variables}
    degree = {v: 0 for v in variables}
    adjacency: dict[str, list[str]] = {v: [] for v in variables}

    def find(v: str) -> str:
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for u, v, _w in edges:
        if degree[u] >= 2 or degree[v] >= 2:
            continue
        ru, rv = find(u), find(v)
        if ru == rv:
            continue
        parent[ru] = rv
        degree[u] += 1
        degree[v] += 1
        adjacency[u].append(v)
        adjacency[v].append(u)
    # Walk each fragment from an endpoint; isolated vertices become
    # single-element fragments. Fragments are emitted in declaration order
    # of their smallest endpoint for determinism.
    visited: set[str] = set()
    fragments: list[list[str]] = []
    endpoints = sorted(
        (v for v in variables if degree[v] <= 1), key=lambda v: decl[v]
    )
    for start in endpoints:
        if start in visited:
            continue
        frag = [start]
        visited.add(start)
        prev, cur = None, start
        while True:
            nxt = next(
                (n for n in adjacency[cur] if n != prev and n not in visited), None
            )
            if nxt is None:
                break
            frag.append(nxt)
            visited.add(nxt)
            prev, cur = cur, nxt
        fragments.append(frag)
    ordered = [v for frag in fragments for v in frag]
    ordered += [v for v in variables if v not in visited]  # safety net
    return ordered


def _two_opt(local: AccessSequence, order: list[str]) -> list[str]:
    """First-improvement 2-opt, scoring whole candidate rows per batch.

    Semantically identical to evaluating each ``(i, j)`` reversal one at
    a time (candidates are rebuilt from the updated order after every
    accepted move), but all reversals sharing a cut point ``i`` are
    scored through one :func:`~repro.engine.evaluate_batch` call, so the
    per-candidate engine overhead is paid once per row, not per move.
    """
    n = len(order)
    codes = local.codes
    code_of = np.fromiter(
        (local.index_of(v) for v in order), dtype=np.int64, count=n
    )
    dbc_of = np.zeros((1, local.num_variables), dtype=np.int64)

    def positions(perm: np.ndarray) -> np.ndarray:
        pos = np.empty(local.num_variables, dtype=np.int64)
        pos[perm] = np.arange(n)
        return pos

    best = code_of.copy()
    best_cost = int(
        evaluate_batch(codes, dbc_of, positions(best)[None, :], num_dbcs=1)[0]
    )
    # One reusable all-DBC-0 matrix for every batch in the inner loop.
    dbc_rows = np.zeros((max(n - 1, 1), local.num_variables), dtype=np.int64)
    for _ in range(_TWO_OPT_MAX_PASSES):
        improved = False
        for i in range(n - 1):
            j = i + 1
            while j < n:
                # Score every remaining reversal of this row against the
                # current order in one batch, then accept the first
                # improvement — exactly the sequential scan's choice.
                js = np.arange(j, n)
                # The scatter below writes every element (each row's cols
                # is a full permutation), so no initial fill is needed.
                pos = np.empty((js.size, n), dtype=np.int64)
                row = np.arange(js.size)[:, None]
                spans = np.arange(n)[None, :]
                rev = (spans >= i) & (spans <= js[:, None])
                cols = np.where(rev, i + js[:, None] - spans, spans)
                pos[row, best[cols]] = spans
                costs = evaluate_batch(codes, dbc_rows[: js.size], pos, num_dbcs=1)
                better = np.flatnonzero(costs < best_cost)
                if better.size == 0:
                    break
                pick = int(better[0])
                jj = int(js[pick])
                best = np.concatenate(
                    [best[:i], best[i : jj + 1][::-1], best[jj + 1 :]]
                )
                best_cost = int(costs[pick])
                improved = True
                j = jj + 1
        if not improved:
            break
    variables = local.variables
    return [variables[c] for c in best]
