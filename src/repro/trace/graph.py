"""Weighted undirected access graphs (Sec. II-B of the paper).

Vertices are variables; an edge ``{u, v}`` with weight ``w_uv`` counts how
often ``u`` and ``v`` are accessed consecutively in ``S``. Intra-DBC
placement heuristics (Chen, ShiftsReduce, the TSP-style heuristic) operate
on this summary. Self-transitions (``u`` followed by ``u``) cost no shifts
and are therefore not edges, but they are tallied separately because the
DMA heuristic's benefit comes precisely from maximizing them.

:class:`AccessGraph` is the name-keyed map of a whole sequence;
:func:`local_graph` builds one DBC's graph as arrays, for the greedy
heuristics that only read rows of it.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import dataclass

import numpy as np

from repro.errors import TraceError
from repro.trace.sequence import AccessSequence


class AccessGraph:
    """Adjacency-map representation of the access graph of a sequence."""

    def __init__(self, sequence: AccessSequence) -> None:
        self._seq = sequence
        variables = sequence.variables
        adj: dict[str, dict[str, int]] = {v: {} for v in variables}
        self_transitions = 0
        # One list of Python ints: indexing the numpy codes per access
        # costs more than the rest of the walk.
        codes = sequence.codes.tolist()
        for a, b in zip(codes, codes[1:]):
            if a == b:
                self_transitions += 1
                continue
            u, v = variables[a], variables[b]
            nu, nv = adj[u], adj[v]
            nu[v] = nu.get(v, 0) + 1
            nv[u] = nv.get(u, 0) + 1
        self._adj = adj
        self._self_transitions = self_transitions

    # -- queries -------------------------------------------------------------

    @property
    def sequence(self) -> AccessSequence:
        return self._seq

    @property
    def vertices(self) -> tuple[str, ...]:
        return self._seq.variables

    @property
    def self_transitions(self) -> int:
        """Number of consecutive same-variable accesses in the sequence."""
        return self._self_transitions

    def weight(self, u: str, v: str) -> int:
        """Edge weight ``w_uv`` (0 when no edge; self loops are not edges)."""
        if u not in self._adj or v not in self._adj:
            raise TraceError(f"unknown variable in edge ({u!r}, {v!r})")
        return self._adj[u].get(v, 0)

    def neighbors(self, v: str) -> dict[str, int]:
        """Mapping of neighbour -> edge weight for ``v``."""
        if v not in self._adj:
            raise TraceError(f"unknown variable {v!r}")
        return dict(self._adj[v])

    def weighted_degree(self, v: str) -> int:
        """Sum of edge weights incident to ``v``."""
        if v not in self._adj:
            raise TraceError(f"unknown variable {v!r}")
        return sum(self._adj[v].values())

    def edges(self) -> Iterable[tuple[str, str, int]]:
        """Yield each undirected edge once as ``(u, v, weight)``."""
        index = {v: i for i, v in enumerate(self._seq.variables)}
        for u, nbrs in self._adj.items():
            for v, w in nbrs.items():
                if index[u] < index[v]:
                    yield u, v, w

    def num_edges(self) -> int:
        return sum(1 for _ in self.edges())

    def total_weight(self) -> int:
        """Sum of all edge weights; plus self transitions this is |S|-1."""
        return sum(w for _, _, w in self.edges())


@dataclass(frozen=True)
class LocalGraph:
    """The access graph of one DBC's local subsequence, as arrays.

    Vertex ``i`` is the ``i``-th variable of the DBC's list. Each edge
    appears once per direction, sorted by ``(row, col)``: edge ``e``
    joins ``rows[e]`` to ``cols[e]`` with weight ``weights[e]``, and
    vertex ``u``'s neighbours are ``cols[indptr[u]:indptr[u + 1]]``,
    ascending. ``degree`` is each vertex's weighted degree. ``tie`` ranks
    the vertices for tie-breaks: ``n - 1`` for the most accessed vertex,
    the one listed first among equals, down to ``0``; so ``w * n + tie``
    orders vertices by a weight ``w``, then by access frequency, then by
    list position.
    """

    indptr: np.ndarray
    rows: np.ndarray
    cols: np.ndarray
    weights: np.ndarray
    degree: np.ndarray
    tie: np.ndarray


def local_graph(sequence: AccessSequence, variables: Sequence[str]) -> LocalGraph:
    """The :class:`LocalGraph` of ``variables`` (distinct names) over the
    accesses of ``sequence`` that touch them.

    A few vectorized passes over the sequence's codes; memory is linear in
    the accesses, the variables and the distinct edges.
    """
    n = len(variables)
    members = sequence.codes_of(variables)
    local = np.full(sequence.num_variables, n, dtype=np.int64)
    local[members] = np.arange(n)
    codes = local[sequence.codes]
    # take(nonzero) instead of a boolean mask: several times faster on
    # long sequences.
    codes = codes.take((codes < n).nonzero()[0])
    # Drop repeats: then every pair of neighbouring accesses is one move.
    moves = np.empty(codes.size, dtype=bool)
    moves[:1] = True
    np.not_equal(codes[1:], codes[:-1], out=moves[1:])
    codes = codes.take(moves.nonzero()[0])
    a, b = codes[:-1], codes[1:]
    keys = np.concatenate((a * n + b, b * n + a))
    keys.sort()
    # Each run of equal keys is one directed edge; its length the weight.
    bounds = np.empty(keys.size + 1, dtype=bool)
    bounds[0] = bounds[-1] = True
    np.not_equal(keys[1:], keys[:-1], out=bounds[1:-1])
    starts = bounds.nonzero()[0]
    rows, cols = np.divmod(keys.take(starts[:-1]), n)
    weights = starts[1:] - starts[:-1]
    order = (-sequence.frequencies[members]).argsort(kind="stable")
    tie = np.empty(n, dtype=np.int64)
    tie[order] = np.arange(n - 1, -1, -1)
    return LocalGraph(
        indptr=rows.searchsorted(np.arange(n + 1)),
        rows=rows,
        cols=cols,
        weights=weights,
        degree=np.bincount(rows, weights, minlength=n).astype(np.int64),
        tie=tie,
    )
