"""Order of first use (OFU): the classic offset-assignment baseline.

Variables are placed in the order they are first accessed in the DBC's
local subsequence; never-accessed variables keep their relative order at
the end. The paper pairs OFU with both inter-DBC heuristics as the
cheapest intra-DBC strategy (AFD-OFU, DMA-OFU).

Restricting a sequence keeps the order of its accesses, so the local
order of first use is the order of the global first occurrences, which
are computed once per sequence.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.trace.liveness import NEVER, Liveness
from repro.trace.sequence import AccessSequence

#: Instance-dict entry holding a sequence's memoized first uses, as
#: :func:`repro.core.inter.dma.dma_split` memoizes its split.
_FIRST_USE_MEMO = "_first_use"


def _first_use(sequence: AccessSequence) -> np.ndarray:
    """Each variable code's first access position, past the last access
    for never-accessed variables; memoized on the sequence."""
    memo = vars(sequence)
    first = memo.get(_FIRST_USE_MEMO)
    if first is None:
        first = Liveness(sequence).first_occurrences
        first = memo[_FIRST_USE_MEMO] = np.where(
            first == NEVER, len(sequence) + 1, first
        )
    return first


def ofu_order(sequence: AccessSequence, variables: Sequence[str]) -> list[str]:
    """Place ``variables`` in order of first use in the local subsequence."""
    variables = list(variables)
    if len(variables) <= 1:
        return variables
    first = _first_use(sequence)[sequence.codes_of(variables)]
    return [variables[i] for i in first.argsort(kind="stable").tolist()]
