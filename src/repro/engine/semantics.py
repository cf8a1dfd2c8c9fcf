"""Scalar shift semantics — the single source of truth.

Everything that defines what a shift *is* lives here: where the access
ports of a nanotrack sit, which port a controller picks for an access,
and how one access advances a DBC's shift state. The per-access device
model (:mod:`repro.rtm.device`), the trace-driven simulator and the
analytic cost model all reduce to these primitives, so they agree by
construction rather than by parallel implementation.

A nanotrack with ``p`` ports has them spread evenly along its ``K``
domains; all tracks of a DBC shift in lock-step (Sec. II-A of the
paper), so port geometry is a per-DBC property. The controller serves
each access through the nearest port, the standard minimal-shift
behaviour (as in RTSim).
"""

from __future__ import annotations

from functools import lru_cache

from repro.errors import GeometryError, SimulationError


@lru_cache(maxsize=1024)
def port_positions(domains: int, ports: int) -> tuple[int, ...]:
    """Domain indices of ``ports`` evenly spread ports on a ``domains`` track.

    Ports sit at the centres of equal-length segments: one port on a
    64-domain track sits at 32; two ports at 16 and 48. This mirrors the
    overlapped-region layout of multi-port RTM proposals.
    """
    if domains < 1:
        raise GeometryError(f"domains must be >= 1, got {domains}")
    if not 1 <= ports <= domains:
        raise GeometryError(
            f"ports must be in [1, {domains}], got {ports}"
        )
    positions = []
    for j in range(ports):
        pos = (2 * j + 1) * domains // (2 * ports)
        positions.append(min(pos, domains - 1))
    if len(set(positions)) != len(positions):
        raise GeometryError(
            f"{ports} ports on {domains} domains collide at {positions}"
        )
    return tuple(positions)


@lru_cache(maxsize=1024)
def port_boundaries(domains: int, ports: int) -> tuple[int, ...]:
    """Nearest-port decision thresholds between adjacent port positions.

    A target position ``t`` (an access location minus the track offset)
    is served by port ``j`` exactly when ``boundaries[j-1] < t <=
    boundaries[j]`` — i.e. ``j = bisect_left(boundaries, t)``. The
    threshold between adjacent ports is the floor midpoint of their
    positions: an integer ``t`` at the exact midpoint is equidistant and
    the tie goes to the lower port index, matching
    :func:`select_port`'s strict-< comparison.
    """
    positions = port_positions(domains, ports)
    return tuple(
        (positions[j] + positions[j + 1]) // 2 for j in range(ports - 1)
    )


def select_port(
    positions: tuple[int, ...],
    offset: int,
    location: int,
) -> tuple[int, int]:
    """Choose the nearest port for accessing ``location`` at ``offset``.

    The track's current shift offset ``offset`` means the domain under
    port ``j`` is ``positions[j] + offset``. Returns ``(port_index,
    signed_shift)`` where ``signed_shift`` is added to the offset to align
    ``location`` under the chosen port (its absolute value is the shift
    count). Ties go to the lowest port index.
    """
    best_j, best_delta = 0, location - positions[0] - offset
    for j in range(1, len(positions)):
        delta = location - positions[j] - offset
        if abs(delta) < abs(best_delta):
            best_j, best_delta = j, delta
    return best_j, best_delta


def step(
    positions: tuple[int, ...],
    domains: int,
    offset: int,
    aligned: bool,
    location: int,
    warm_start: bool = True,
) -> tuple[int, int]:
    """Advance one DBC by one access: ``(new_offset, charged_shifts)``.

    ``aligned`` is False before a DBC's very first access; with
    ``warm_start`` that first alignment is free (the cost convention fixed
    by the paper's Fig. 3 arithmetic) while the offset still moves, so
    subsequent accesses behave identically either way.
    """
    if not 0 <= location < domains:
        raise SimulationError(
            f"location {location} outside track of {domains} domains"
        )
    _port, delta = select_port(positions, offset, location)
    new_offset = offset + delta
    # offset = location - port_position with both in [0, K-1], so any
    # reachable state satisfies |offset| <= K-1.
    if abs(new_offset) > domains - 1:
        raise SimulationError(
            f"track offset {new_offset} exceeds physical envelope "
            f"for {domains} domains"
        )
    cost = 0 if (not aligned and warm_start) else abs(delta)
    return new_offset, cost
