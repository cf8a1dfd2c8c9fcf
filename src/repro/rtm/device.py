"""Per-DBC device state: track alignment and shift execution.

All ``T`` tracks of a DBC shift in lock-step, so one offset models the
whole cluster. The offset is bounded: a track of ``K`` domains with a
port at position ``P`` can align locations ``0..K-1``, so the offset
stays within ``[-(K-1), K-1]`` — the engine's scalar step enforces this
physically sensible envelope and flags violations as simulation bugs.

:class:`DBCState` is the stateful per-access view of the shift engine's
semantics: every ``access`` is exactly one :func:`repro.engine.semantics
.step`, which makes it the natural building block for controllers that
interleave accesses with other machinery (swapping, pre-shifting). Batch
execution of whole traces goes through the engine backends instead.
"""

from __future__ import annotations

from repro.engine.semantics import port_positions, step


class DBCState:
    """Mutable shift state of one DBC during simulation."""

    __slots__ = ("domains", "positions", "offset", "aligned", "shifts",
                 "accesses", "max_excursion")

    def __init__(self, domains: int, ports: int = 1) -> None:
        self.domains = domains
        self.positions = port_positions(domains, ports)
        self.offset = 0
        #: False until the first access (supports the paper's cost
        #: convention that the port starts aligned with the first access).
        self.aligned = False
        self.shifts = 0
        self.accesses = 0
        self.max_excursion = 0

    def access(self, location: int, warm_start: bool = True) -> int:
        """Shift ``location`` under its nearest port; returns the shifts.

        With ``warm_start`` the very first access aligns for free, which is
        the cost convention fixed by the paper's Fig. 3 arithmetic; without
        it the initial alignment from offset 0 is charged like any other.
        """
        self.offset, cost = step(
            self.positions, self.domains, self.offset, self.aligned,
            location, warm_start,
        )
        self.aligned = True
        self.shifts += cost
        self.accesses += 1
        self.max_excursion = max(self.max_excursion, abs(self.offset))
        return cost

    def reset(self) -> None:
        self.offset = 0
        self.aligned = False
        self.shifts = 0
        self.accesses = 0
        self.max_excursion = 0
