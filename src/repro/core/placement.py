"""The placement representation shared by every algorithm in the library.

A :class:`Placement` is the paper's individual encoding (Sec. III-C): an
ordered list of DBC assignments, where each DBC assignment is the ordered
list of variables stored in that DBC — list position = intra-DBC location.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Sequence
from functools import cached_property

import numpy as np

from repro.errors import CapacityError, PlacementError
from repro.trace.sequence import AccessSequence


class Placement:
    """An immutable inter- plus intra-DBC variable placement.

    ``dbcs[i][k]`` is the variable at location ``k`` of DBC ``i``. Every
    variable appears exactly once across all DBCs. Entries may be
    ``None``: an explicitly empty location (a sparse layout; the
    distance across a hole counts in the cost).
    """

    __slots__ = ("_dbcs", "_loc", "__dict__")

    def __init__(self, dbcs: Iterable[Sequence[str | None]]) -> None:
        self._dbcs: tuple[tuple[str | None, ...], ...] = tuple(
            tuple(dbc) for dbc in dbcs
        )
        if not self._dbcs:
            raise PlacementError("a placement needs at least one DBC")
        loc: dict[str, tuple[int, int]] = {}
        for i, dbc in enumerate(self._dbcs):
            for k, v in enumerate(dbc):
                if v is None:
                    continue
                if v in loc:
                    raise PlacementError(f"variable {v!r} placed twice")
                loc[v] = (i, k)
        if not loc:
            raise PlacementError("a placement must place at least one variable")
        self._loc = loc

    # -- protocol --------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Placement):
            return NotImplemented
        return self._dbcs == other._dbcs

    def __hash__(self) -> int:
        return hash(self._dbcs)

    def __repr__(self) -> str:
        sizes = ", ".join(str(len(d)) for d in self._dbcs)
        return f"<Placement: {len(self._loc)} vars over {len(self._dbcs)} DBCs [{sizes}]>"

    # -- accessors --------------------------------------------------------------

    def dbc_lists(self) -> tuple[tuple[str | None, ...], ...]:
        """Per-DBC ordered variable tuples (the controller's input).

        ``None`` entries are explicitly empty locations.
        """
        return self._dbcs

    @property
    def num_dbcs(self) -> int:
        return len(self._dbcs)

    @cached_property
    def variables(self) -> frozenset[str]:
        return frozenset(self._loc)

    def location_of(self, variable: str) -> tuple[int, int]:
        """``(dbc_index, slot)`` of a variable."""
        try:
            return self._loc[variable]
        except KeyError:
            raise PlacementError(f"variable {variable!r} is not placed") from None

    def dbc_of(self, variable: str) -> int:
        return self.location_of(variable)[0]

    def slot_of(self, variable: str) -> int:
        return self.location_of(variable)[1]

    # -- validation ---------------------------------------------------------------

    def validate_for(
        self,
        sequence: AccessSequence,
        num_dbcs: int | None = None,
        capacity: int | None = None,
    ) -> None:
        """Check this placement covers ``sequence`` and fits the geometry.

        Raises :class:`PlacementError` when the variable sets differ and
        :class:`CapacityError` when a DBC exceeds ``capacity`` slots or
        more than ``num_dbcs`` DBCs are used.
        """
        seq_vars = set(sequence.variables)
        placed = set(self._loc)
        if seq_vars != placed:
            missing = sorted(seq_vars - placed)[:5]
            extra = sorted(placed - seq_vars)[:5]
            raise PlacementError(
                f"placement/sequence variable mismatch (missing {missing}, "
                f"extra {extra})"
            )
        if num_dbcs is not None and self.num_dbcs > num_dbcs:
            raise CapacityError(
                f"placement uses {self.num_dbcs} DBCs, device has {num_dbcs}"
            )
        if capacity is not None:
            for i, dbc in enumerate(self._dbcs):
                if len(dbc) > capacity:
                    raise CapacityError(
                        f"DBC {i} holds {len(dbc)} variables, capacity is {capacity}"
                    )

    # -- conversions -----------------------------------------------------------------

    def as_arrays(self, sequence: AccessSequence) -> tuple[np.ndarray, np.ndarray]:
        """Vectorized view: per-variable-code DBC index and slot arrays.

        Both arrays are indexed by the sequence's variable codes, ready for
        the numpy fast path of the cost model.
        """
        n = sequence.num_variables
        dbc_of = np.full(n, -1, dtype=np.int64)
        pos_of = np.full(n, -1, dtype=np.int64)
        for v, (i, k) in self._loc.items():
            if v in sequence:
                code = sequence.index_of(v)
                dbc_of[code] = i
                pos_of[code] = k
        if np.any(dbc_of < 0):
            missing = [
                sequence.variables[c] for c in np.flatnonzero(dbc_of < 0)[:5]
            ]
            raise PlacementError(f"unplaced sequence variables: {missing}")
        return dbc_of, pos_of

    @classmethod
    def from_arrays(
        cls,
        variables: Sequence[str],
        dbc_of: np.ndarray,
        pos_of: np.ndarray,
        num_dbcs: int,
    ) -> "Placement":
        """The placement of one ``(dbc_of, pos_of)`` candidate row.

        The inverse of :meth:`as_arrays` for gap-free slots: each DBC
        lists its variables (``variables[code]``) in ascending slot order.
        """
        dbcs: list[list[str]] = [[] for _ in range(num_dbcs)]
        for code in np.lexsort((pos_of, dbc_of)).tolist():
            dbcs[dbc_of[code]].append(variables[code])
        return cls(dbcs)

    def padded(self, num_dbcs: int) -> "Placement":
        """Extend with empty DBCs up to ``num_dbcs`` (device width)."""
        if num_dbcs < self.num_dbcs:
            raise PlacementError(
                f"cannot pad {self.num_dbcs} DBCs down to {num_dbcs}"
            )
        return Placement(self._dbcs + ((),) * (num_dbcs - self.num_dbcs))


#: An intra-DBC heuristic: (full sequence, DBC variables) -> ordered variables.
IntraHeuristic = Callable[[AccessSequence, Sequence[str]], list[str]]


def check_room(num_variables: int, num_dbcs: int, capacity: int | None) -> None:
    """Raise :class:`CapacityError` unless ``num_variables`` fit ``num_dbcs
    >= 1`` DBCs of ``capacity >= 1`` locations (``None``: unbounded)."""
    if num_dbcs < 1:
        raise CapacityError(f"need at least one DBC, got {num_dbcs}")
    if capacity is None:
        return
    if capacity < 1:
        raise CapacityError(f"capacity must be >= 1, got {capacity}")
    if num_variables > num_dbcs * capacity:
        raise CapacityError(
            f"{num_variables} variables exceed {num_dbcs} DBCs x "
            f"{capacity} locations"
        )


def intra_pass(
    sequence: AccessSequence,
    dbcs: Sequence[Sequence[str]],
    kept: int,
    intra: IntraHeuristic | None,
) -> Placement:
    """The placement of partition ``dbcs`` (left unmodified) after ``intra``
    orders each DBC from index ``kept`` on that holds two or more
    variables; ``intra=None`` keeps every DBC's order."""
    if intra is not None:
        dbcs = [
            intra(sequence, list(d)) if i >= kept and len(d) > 1 else d
            for i, d in enumerate(dbcs)
        ]
    return Placement(dbcs)
