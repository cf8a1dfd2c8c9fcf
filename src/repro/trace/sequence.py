"""Access sequences: the fundamental input of the placement problem.

An :class:`AccessSequence` couples an ordered *variable universe* ``V``
with an access string ``S`` (Sec. II-B of the paper). The variable order
matters: the baseline AFD heuristic breaks frequency ties by variable
declaration order, which is how the paper's Fig. 3-(c) assignment
``{a,g,b,d,h} / {e,i,c,f}`` arises.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from functools import cached_property

import numpy as np

from repro.errors import TraceError


def _universe_index(variables: tuple[str, ...]) -> dict[str, int]:
    """Code of each name of a variable universe, checking the universe.

    It must be non-empty and hold distinct, non-empty string names.
    """
    if not variables:
        raise TraceError("an access sequence needs at least one variable")
    index: dict[str, int] = {}
    for i, v in enumerate(variables):
        if not isinstance(v, str) or not v:
            raise TraceError(f"variable names must be non-empty strings, got {v!r}")
        if v in index:
            raise TraceError(f"duplicate variable {v!r}")
        index[v] = i
    return index


class AccessSequence:
    """An immutable access sequence over a fixed, ordered variable set.

    Parameters
    ----------
    accesses:
        The sequence ``S`` of variable names, in program order.
    variables:
        The declared variable universe, in declaration order. Defaults to
        the order of first appearance in ``accesses``. May contain
        variables that are never accessed (they still need a location).
    name:
        Optional label used in reports.
    """

    __slots__ = ("_variables", "_index", "_codes", "_name", "__dict__")

    def __init__(
        self,
        accesses: Sequence[str],
        variables: Sequence[str] | None = None,
        name: str = "",
    ) -> None:
        accesses = list(accesses)
        variables = tuple(
            dict.fromkeys(accesses) if variables is None else variables
        )
        index = _universe_index(variables)
        try:
            codes = np.fromiter(
                map(index.__getitem__, accesses), dtype=np.int64,
                count=len(accesses),
            )
        except KeyError:
            i = next(i for i, a in enumerate(accesses) if a not in index)
            raise TraceError(
                f"access {i} refers to undeclared variable {accesses[i]!r}"
            ) from None
        codes.setflags(write=False)
        self._variables = variables
        self._index = index
        self._codes = codes
        self._name = name

    # -- basic protocol ----------------------------------------------------

    def __len__(self) -> int:
        return int(self._codes.size)

    def __iter__(self):
        for c in self._codes:
            yield self._variables[c]

    def __getitem__(self, i: int) -> str:
        return self._variables[self._codes[i]]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, AccessSequence):
            return NotImplemented
        return (
            self._variables == other._variables
            and np.array_equal(self._codes, other._codes)
        )

    def __hash__(self) -> int:
        return hash((self._variables, self._codes.tobytes()))

    def __repr__(self) -> str:
        label = f" {self._name!r}" if self._name else ""
        return (
            f"<AccessSequence{label}: {len(self._variables)} vars, "
            f"{len(self)} accesses>"
        )

    # -- accessors ---------------------------------------------------------

    @property
    def name(self) -> str:
        return self._name

    @property
    def variables(self) -> tuple[str, ...]:
        """The declared variable universe, in declaration order."""
        return self._variables

    @property
    def codes(self) -> np.ndarray:
        """Integer codes of the accesses (indices into :attr:`variables`)."""
        return self._codes

    @property
    def num_variables(self) -> int:
        return len(self._variables)

    @property
    def accesses(self) -> tuple[str, ...]:
        return tuple(self._variables[c] for c in self._codes)

    def index_of(self, variable: str) -> int:
        """Declaration index of ``variable`` (raises for unknown names)."""
        try:
            return self._index[variable]
        except KeyError:
            raise TraceError(f"unknown variable {variable!r}") from None

    def codes_of(self, variables: Iterable[str]) -> np.ndarray:
        """Declaration indices of ``variables``, in their order (raises
        for unknown names)."""
        try:
            return np.fromiter(
                map(self._index.__getitem__, variables), dtype=np.int64
            )
        except KeyError as exc:
            raise TraceError(f"unknown variable {exc.args[0]!r}") from None

    def __contains__(self, variable: str) -> bool:
        return variable in self._index

    # -- derived data ------------------------------------------------------

    @cached_property
    def frequencies(self) -> np.ndarray:
        """Access frequency ``A_v`` per variable code (zero for unused)."""
        counts = np.bincount(self._codes, minlength=len(self._variables))
        counts.setflags(write=False)
        return counts

    def frequency(self, variable: str) -> int:
        return int(self.frequencies[self.index_of(variable)])

    def restricted_to(self, subset: Iterable[str], name: str = "") -> "AccessSequence":
        """The subsequence of accesses touching ``subset`` variables only.

        This is the per-DBC local sequence (``S0``/``S1`` in Fig. 3): a
        placement splits ``S`` into one disjoint subsequence per DBC, and
        each DBC's shift cost is computed over its own subsequence.
        Variables in ``subset`` keep their relative declaration order.
        """
        wanted = set(subset)
        unknown = wanted.difference(self._index)
        if unknown:
            raise TraceError(f"unknown variables in subset: {sorted(unknown)}")
        if not wanted:
            raise TraceError("subset must contain at least one variable")
        kept = np.zeros(len(self._variables), dtype=bool)
        kept[[self._index[v] for v in wanted]] = True
        keep_codes = np.flatnonzero(kept)
        # Old code -> new code, -1 for the variables left out.
        local = np.full(kept.size, -1, dtype=np.int64)
        local[keep_codes] = np.arange(keep_codes.size)
        codes = local[self._codes]
        return AccessSequence.from_codes(
            [self._variables[c] for c in keep_codes.tolist()],
            codes[codes >= 0],
            name=name or self._name,
        )

    @classmethod
    def from_codes(
        cls,
        variables: Sequence[str],
        codes: np.ndarray,
        name: str = "",
    ) -> "AccessSequence":
        """Build a sequence directly from integer codes, without copying.

        The zero-copy path: ``codes`` must be a read-only int64 array of
        valid indices into ``variables`` — a view into a shared-memory
        buffer (see :class:`~repro.engine.compile.SharedTraceArena`) or
        a workload transform's freshly built codes. Writable arrays are
        defensively frozen-by-copy so the sequence stays immutable;
        read-only inputs are adopted as-is.
        """
        variables = tuple(variables)
        index = _universe_index(variables)
        codes = np.asarray(codes, dtype=np.int64)
        if codes.ndim != 1:
            raise TraceError(f"codes must be 1-D, got shape {codes.shape}")
        if codes.size and (
            int(codes.min()) < 0 or int(codes.max()) >= len(variables)
        ):
            raise TraceError("codes reference variables outside the universe")
        if codes.flags.writeable:
            codes = codes.copy()
            codes.setflags(write=False)
        seq = cls.__new__(cls)
        seq._variables = variables
        seq._index = index
        seq._codes = codes
        seq._name = name
        return seq

    def with_name(self, name: str) -> "AccessSequence":
        clone = AccessSequence.__new__(AccessSequence)
        clone._variables = self._variables
        clone._index = self._index
        clone._codes = self._codes
        clone._name = name
        return clone
