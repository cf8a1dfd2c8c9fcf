"""Access Frequency based Distribution (AFD), the state-of-the-art
inter-DBC baseline from Chen et al. [2] (Sec. III-A).

AFD sorts variables by descending access frequency (stable with respect
to declaration order) and deals them to DBCs round-robin, so the hottest
variables end up spread across DBCs at small intra-DBC offsets. The
intra-DBC order of the raw AFD placement is the deal order itself, which
reproduces Fig. 3-(c) exactly: DBC0 = (a, g, b, d, h), DBC1 = (e, i, c, f),
39 shifts in total.

DMA and multi-set DMA deal the variables outside their disjoint chains
with the same :func:`frequency_deal`, over the DBCs the chains leave.
"""

from __future__ import annotations

from collections.abc import Iterable

import numpy as np

from repro.core.placement import Placement, check_room
from repro.trace.sequence import AccessSequence


def afd_order(
    sequence: AccessSequence, variables: Iterable[str] | None = None
) -> list[str]:
    """``variables`` (default: all of them) by descending access
    frequency, stable by declaration."""
    names = sequence.variables
    codes = sequence.codes_of(names if variables is None else variables)
    codes = codes[np.lexsort((codes, -sequence.frequencies[codes]))]
    return [names[c] for c in codes.tolist()]


def frequency_deal(
    sequence: AccessSequence,
    dbcs: list[list[str]],
    variables: Iterable[str],
    first: int,
    capacity: int | None,
) -> None:
    """Deal ``variables`` in :func:`afd_order` round-robin over DBCs
    ``first..q-1`` (every DBC when ``first == q``), skipping full ones.

    A variable that finds them all full spills into the first DBC with
    room, which :func:`~repro.core.placement.check_room` guarantees.
    """
    targets = range(first, len(dbcs)) or range(len(dbcs))
    cursor = 0
    for v in afd_order(sequence, variables):
        for _ in targets:
            dbc = dbcs[targets[cursor % len(targets)]]
            cursor += 1
            if capacity is None or len(dbc) < capacity:
                dbc.append(v)
                break
        else:
            next(dbc for dbc in dbcs if len(dbc) < capacity).append(v)


def afd_partition(
    sequence: AccessSequence,
    num_dbcs: int,
    capacity: int | None = None,
) -> list[list[str]]:
    """Round-robin deal of the frequency-sorted variables to DBCs.

    Full DBCs are skipped; a :class:`~repro.errors.CapacityError` is
    raised when the variables cannot fit at all.
    """
    check_room(sequence.num_variables, num_dbcs, capacity)
    dbcs: list[list[str]] = [[] for _ in range(num_dbcs)]
    frequency_deal(sequence, dbcs, sequence.variables, 0, capacity)
    return dbcs


def afd_placement(
    sequence: AccessSequence,
    num_dbcs: int,
    capacity: int | None = None,
) -> Placement:
    """The raw AFD placement (deal order doubles as intra-DBC order)."""
    return Placement(afd_partition(sequence, num_dbcs, capacity))
