"""Analytic shift-cost model (Sec. II-B, conventions fixed by Fig. 3).

The cost of a placement for an access sequence is the total number of RTM
shifts a minimal controller executes: the sequence splits into per-DBC
subsequences, and within a DBC the cost of consecutive accesses ``u, v``
is ``|loc(u) - loc(v)|``. The first access of each DBC is free (the port
starts aligned to it) — this is the convention under which Fig. 3's
39-vs-11 arithmetic holds, and it is applied to every policy alike.

The model and the trace-driven simulator are two views of the same
kernel: both delegate to :mod:`repro.engine`, so they agree by
construction rather than by parallel implementations. Pass ``domains``
(the track length) to evaluate against real geometry — required for
``ports > 1`` because port spacing depends on it. Single-port costs are
pure position differences and need no geometry. Cold starts (the first
alignment charged) are the simulator's option (``simulate(...,
warm_start=False)``), not the cost model's.
"""

from __future__ import annotations

import numpy as np

from collections.abc import Sequence

from repro.core.placement import Placement
from repro.engine import ShiftRequest, get_backend, stack_candidate_arrays
from repro.engine.compile import compile_access_arrays
from repro.errors import PlacementError
from repro.trace.sequence import AccessSequence


def shift_cost(
    sequence: AccessSequence,
    placement: Placement,
    ports: int = 1,
    domains: int | None = None,
    backend: object = None,
) -> int:
    """Total shifts to serve ``sequence`` under ``placement``.

    ``ports``/``domains`` describe the track geometry; the single-port
    case needs no geometry (distances are position differences). For
    ``ports > 1``, ``domains`` (the track length) is required because
    port spacing depends on it.
    """
    return sum(
        per_dbc_shift_costs(
            sequence, placement, ports=ports, domains=domains,
            backend=backend,
        )
    )


def per_dbc_shift_costs(
    sequence: AccessSequence,
    placement: Placement,
    ports: int = 1,
    domains: int | None = None,
    backend: object = None,
) -> list[int]:
    """Per-DBC shift totals (the ``S0``/``S1`` split costs of Fig. 3)."""
    if ports > 1 and domains is None:
        raise PlacementError("multi-port cost needs the track length (domains)")
    num_dbcs = placement.num_dbcs
    if len(sequence) == 0:
        return [0] * num_dbcs
    dbc, slot = compile_access_arrays(sequence, placement)
    max_slot = int(slot.max())
    if domains is not None and max_slot >= domains:
        raise PlacementError(
            f"slot {max_slot} outside a {domains}-domain track"
        )
    result = get_backend(backend).run(
        ShiftRequest(
            dbc=dbc,
            slot=slot,
            num_dbcs=num_dbcs,
            domains=domains if domains is not None else max_slot + 1,
            ports=ports,
        )
    )
    return [int(c) for c in result.per_dbc_shifts]


def stack_placement_lists(
    sequence: AccessSequence,
    candidates: Sequence[Sequence[Sequence[str]]],
) -> tuple[np.ndarray, np.ndarray]:
    """``(K, V)`` :func:`repro.engine.evaluate_batch` candidate matrices
    from per-DBC variable-*name* lists.

    The sequence-aware twin of
    :func:`repro.engine.stack_candidate_arrays`: each candidate is a
    list of per-DBC lists of variable names instead of codes.
    """
    return stack_candidate_arrays(
        candidates, sequence.num_variables, code_of=sequence.index_of
    )

