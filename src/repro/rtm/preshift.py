"""Proactive alignment (pre-shifting) — hiding shifts in idle time.

Several works the paper cites ([1], [12], [20], [21]) proactively align
the likely-next domain under the port while the DBC is idle, trading
extra shift *energy* for lower access *latency* (the idle shifts overlap
with other work and leave the critical path). This module implements the
policy class on top of the device model:

* ``centre``  — after each access return the track toward the middle of
  its occupied region, bounding the worst-case next distance;
* ``stride``  — predict the next location by repeating the last stride
  (captures streaming sweeps);
* ``none``    — plain demand shifting (the baseline).

The simulator reports demand shifts (latency-bearing) and idle shifts
(energy-bearing) separately so the latency/energy trade-off is explicit.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from repro.errors import SimulationError
from repro.rtm.controller import placement_locations
from repro.rtm.device import DBCState
from repro.rtm.geometry import RTMConfig
from repro.rtm.timing import MemoryParams, params_for
from repro.trace.trace import trace_operations


class PreshiftPolicy(str, Enum):
    NONE = "none"
    CENTRE = "centre"
    STRIDE = "stride"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


@dataclass(frozen=True)
class PreshiftReport:
    """Latency-bearing vs hidden shift work under a pre-shift policy."""

    demand_shifts: int
    idle_shifts: int
    accesses: int
    latency_ns: float
    shift_energy_pj: float

    @property
    def total_shifts(self) -> int:
        return self.demand_shifts + self.idle_shifts


class PreshiftController:
    """Trace executor with an idle-time alignment policy."""

    def __init__(
        self,
        config: RTMConfig,
        placement,
        policy: PreshiftPolicy = PreshiftPolicy.NONE,
        params: MemoryParams | None = None,
        warm_start: bool = True,
    ) -> None:
        self.config = config
        self.params = params or params_for(config)
        self.policy = PreshiftPolicy(policy)
        self.warm_start = warm_start
        self._location = placement_locations(placement, config)
        self._fill = [len(d) for d in placement.dbc_lists()]
        self._fill += [0] * (config.dbcs - len(self._fill))
        self._dbcs = [
            DBCState(config.domains_per_track, config.ports_per_track)
            for _ in range(config.dbcs)
        ]
        self._last_slot: list[int | None] = [None] * config.dbcs
        self._last_stride: list[int] = [0] * config.dbcs

    def _predict(self, dbc_index: int) -> int | None:
        """Predicted next location for a DBC, or None to stay put."""
        if self.policy is PreshiftPolicy.NONE:
            return None
        if self.policy is PreshiftPolicy.CENTRE:
            fill = self._fill[dbc_index]
            return fill // 2 if fill else None
        last = self._last_slot[dbc_index]
        if last is None:
            return None
        predicted = last + self._last_stride[dbc_index]
        return max(0, min(predicted, self.config.domains_per_track - 1))

    def execute(self, trace) -> PreshiftReport:
        """Run the trace. Head state and stride history carry over
        between calls; each report counts its own call."""
        p = self.params
        demand = idle = writes = 0
        for name, is_write in trace_operations(trace):
            dbc_index, slot = self._location.get(name, (None, None))
            if dbc_index is None:
                raise SimulationError(f"variable {name!r} has no location")
            dbc = self._dbcs[dbc_index]
            demand += dbc.access(slot, warm_start=self.warm_start)
            writes += is_write
            last = self._last_slot[dbc_index]
            self._last_stride[dbc_index] = 0 if last is None else slot - last
            self._last_slot[dbc_index] = slot
            target = self._predict(dbc_index)
            if target is not None and target != slot:
                # idle-time alignment: energy, no latency contribution
                idle += dbc.access(target)
        return PreshiftReport(
            demand_shifts=demand,
            idle_shifts=idle,
            accesses=len(trace),
            latency_ns=p.runtime_ns(demand, len(trace) - writes, writes),
            shift_energy_pj=(demand + idle) * p.shift_energy_pj,
        )
