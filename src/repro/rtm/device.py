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
    """Mutable head state of one DBC: its offset and whether it is aligned.

    It keeps no counters: callers add up the shifts :meth:`access`
    returns for whatever span they report.
    """

    __slots__ = ("domains", "positions", "offset", "aligned")

    def __init__(self, domains: int, ports: int = 1) -> None:
        self.domains = domains
        self.positions = port_positions(domains, ports)
        self.offset = 0
        #: False until the first access (supports the paper's cost
        #: convention that the port starts aligned with the first access).
        self.aligned = False

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
        return cost
