"""Weighted undirected access graphs (Sec. II-B of the paper).

Vertices are variables; an edge ``{u, v}`` with weight ``w_uv`` counts how
often ``u`` and ``v`` are accessed consecutively in ``S``. Intra-DBC
placement heuristics (Chen, ShiftsReduce, the TSP-style heuristic) operate
on this summary. Self-transitions (``u`` followed by ``u``) cost no shifts
and are therefore not edges, but they are tallied separately because the
DMA heuristic's benefit comes precisely from maximizing them.
"""

from __future__ import annotations

from collections.abc import Iterable

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
