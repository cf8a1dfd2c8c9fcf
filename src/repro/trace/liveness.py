"""Liveness analysis over access sequences (Sec. III-B of the paper).

For every variable ``v`` this computes the access frequency ``A_v``, the
first occurrence ``F_v`` and last occurrence ``L_v`` (1-based positions,
as in the paper's Fig. 3-(e)), and derives lifespans and disjointness —
the signals the DMA heuristic (Algorithm 1) is built on.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from repro.errors import TraceError
from repro.trace.sequence import AccessSequence

#: Sentinel for F/L of variables that never appear in the sequence.
NEVER = 0


class Liveness:
    """Per-variable liveness facts for one access sequence.

    Positions are 1-based to match the paper's notation; a variable that
    is never accessed has ``F_v = L_v = 0`` (:data:`NEVER`) and frequency
    zero, and is treated as having an empty lifespan disjoint from
    everything.
    """

    def __init__(self, sequence: AccessSequence) -> None:
        self._seq = sequence
        n = sequence.num_variables
        codes = sequence.codes
        first = np.zeros(n, dtype=np.int64)
        last = np.zeros(n, dtype=np.int64)
        if codes.size:
            positions = np.arange(1, codes.size + 1, dtype=np.int64)
            # later writes win -> last occurrence
            last[codes] = positions
            # reversed, later (i.e. earlier position) writes win -> first
            first[codes[::-1]] = positions[::-1]
        self._first = first
        self._last = last

    # -- raw arrays (indexed by variable code) ------------------------------

    @property
    def sequence(self) -> AccessSequence:
        return self._seq

    @cached_property
    def frequencies(self) -> np.ndarray:
        return self._seq.frequencies

    @property
    def first_occurrences(self) -> np.ndarray:
        """``F_v`` per variable code (1-based, 0 = never accessed)."""
        return self._first

    @property
    def last_occurrences(self) -> np.ndarray:
        """``L_v`` per variable code (1-based, 0 = never accessed)."""
        return self._last

    # -- per-variable views --------------------------------------------------

    def frequency(self, v: str) -> int:
        return int(self.frequencies[self._seq.index_of(v)])

    def first(self, v: str) -> int:
        return int(self._first[self._seq.index_of(v)])

    def last(self, v: str) -> int:
        return int(self._last[self._seq.index_of(v)])

    def lifespan(self, v: str) -> int:
        """``L_v - F_v`` (0 for unaccessed and single-access variables)."""
        i = self._seq.index_of(v)
        return int(self._last[i] - self._first[i])

    def is_accessed(self, v: str) -> bool:
        return self.first(v) != NEVER

    # -- relations -------------------------------------------------------------

    def disjoint(self, u: str, v: str) -> bool:
        """True when the lifespans of ``u`` and ``v`` do not overlap.

        Per Sec. III-B: the last occurrence of one is before the first
        occurrence of the other. Unaccessed variables are vacuously
        disjoint from everything.
        """
        iu, iv = self._seq.index_of(u), self._seq.index_of(v)
        if self._first[iu] == NEVER or self._first[iv] == NEVER:
            return True
        return self._last[iu] < self._first[iv] or self._last[iv] < self._first[iu]

    def pairwise_disjoint(self, variables: list[str] | tuple[str, ...]) -> bool:
        """True when every pair in ``variables`` has disjoint lifespans."""
        spans = sorted(
            (self.first(v), self.last(v)) for v in variables if self.is_accessed(v)
        )
        for (_, l_prev), (f_next, _) in zip(spans, spans[1:]):
            if f_next <= l_prev:
                return False
        return True

    def nested_within(self, outer: str) -> list[str]:
        """Variables whose lifespan lies strictly inside ``outer``'s.

        These are the competitors in Algorithm 1's line-10 test: ``u`` with
        ``F_u > F_outer`` and ``L_u < L_outer``.
        """
        io = self._seq.index_of(outer)
        fo, lo = self._first[io], self._last[io]
        if fo == NEVER:
            return []
        out = []
        for i, v in enumerate(self._seq.variables):
            if i == io or self._first[i] == NEVER:
                continue
            if self._first[i] > fo and self._last[i] < lo:
                out.append(v)
        return out

    def by_first_occurrence(self) -> list[str]:
        """Accessed variables in ascending ``F_v`` order, then unaccessed.

        Ties (impossible for accessed variables, since positions are
        unique) and unaccessed variables fall back to declaration order.
        """
        variables = self._seq.variables
        return [variables[i] for i in self.first_occurrence_order().tolist()]

    def first_occurrence_order(self) -> np.ndarray:
        """Variable codes in :meth:`by_first_occurrence` order."""
        first = self._first
        return np.lexsort((np.arange(first.size), first, first == NEVER))

    def validate(self) -> None:
        """Internal consistency checks (used by property tests)."""
        freq = self.frequencies
        for i in range(self._seq.num_variables):
            if freq[i] == 0:
                if self._first[i] != NEVER or self._last[i] != NEVER:
                    raise TraceError("unaccessed variable with occurrence info")
            else:
                if not 1 <= self._first[i] <= self._last[i] <= len(self._seq):
                    raise TraceError("inconsistent first/last occurrence")
