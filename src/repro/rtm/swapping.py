"""Online data swapping — the runtime alternative to static placement.

Sun et al. (DAC'13, [20] in the paper) mitigate shift overhead by
*swapping* frequently accessed data toward the access port at runtime.
The paper argues static placement achieves its gains "with no hardware
overhead"; this module implements the swapping controller so the claim
can be tested: it extends the trace-driven simulator with a counter-based
migration policy and charges the real cost of each swap (two reads, two
writes and the shifts to reach both locations).

The controller keeps, per variable, a saturating access counter. When a
variable's counter exceeds ``threshold`` and it sits further from the
port's home position than some variable with a colder counter, the two
trade places. This reproduces the behaviour class of hardware swapping
schemes while staying policy-agnostic about the initial placement.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import SimulationError
from repro.rtm.controller import placement_locations
from repro.rtm.device import DBCState
from repro.rtm.geometry import RTMConfig
from repro.rtm.report import SimReport
from repro.rtm.timing import MemoryParams, params_for
from repro.trace.trace import trace_operations


@dataclass(frozen=True)
class SwapStats:
    """Bookkeeping of the swapping controller's extra work."""

    swaps: int
    swap_shifts: int
    swap_reads: int
    swap_writes: int


class SwappingController:
    """Trace executor with counter-based online variable migration.

    Parameters mirror :class:`repro.rtm.controller.RTMController`;
    ``threshold`` is the access count that makes a variable eligible to
    move inward, ``decay`` halves all counters whenever any counter
    saturates at ``saturate`` (keeps the policy adaptive on phased
    traces).
    """

    def __init__(
        self,
        config: RTMConfig,
        placement,
        params: MemoryParams | None = None,
        threshold: int = 4,
        saturate: int = 64,
        warm_start: bool = True,
    ) -> None:
        if threshold < 1:
            raise SimulationError(f"threshold must be >= 1, got {threshold}")
        if saturate < threshold:
            raise SimulationError("saturate must be >= threshold")
        self._location = placement_locations(placement, config)
        self.config = config
        self.params = params or params_for(config)
        self.threshold = threshold
        self.saturate = saturate
        self.warm_start = warm_start
        # slot maps are mutable: swapping rewrites them during execution
        self._slots: list[list[str | None]] = [
            list(d) for d in placement.dbc_lists()
        ]
        self._slots += [[] for _ in range(config.dbcs - len(self._slots))]
        self._dbcs = [
            DBCState(config.domains_per_track, config.ports_per_track)
            for _ in range(config.dbcs)
        ]
        self._counters: dict[str, int] = {v: 0 for v in self._location}
        self._home = config.domains_per_track // 2
        self.swaps = 0
        self.swap_shifts = 0

    # -- execution ---------------------------------------------------------

    def location_of(self, variable: str) -> tuple[int, int]:
        try:
            return self._location[variable]
        except KeyError:
            raise SimulationError(f"variable {variable!r} has no location") from None

    def _bump(self, variable: str) -> None:
        self._counters[variable] += 1
        if self._counters[variable] >= self.saturate:
            for v in self._counters:
                self._counters[v] //= 2

    def _maybe_swap(self, variable: str) -> tuple[int, int, int]:
        """Swap ``variable`` one slot toward the port home if it is hotter
        than its inward neighbour. Returns (swaps, extra_shifts, moves)."""
        if self._counters[variable] < self.threshold:
            return 0, 0, 0
        dbc_index, slot = self._location[variable]
        slots = self._slots[dbc_index]
        target = slot - 1 if slot > self._home else slot + 1
        if not 0 <= target < len(slots) or target == slot:
            return 0, 0, 0
        neighbour = slots[target]
        if neighbour is not None and (
            self._counters.get(neighbour, 0) >= self._counters[variable]
        ):
            return 0, 0, 0
        # Perform the swap: both words are read and rewritten; the track
        # is already aligned at `slot`, reaching `target` costs |delta|.
        extra_shifts = self._dbcs[dbc_index].access(target)
        slots[slot], slots[target] = slots[target], slots[slot]
        self._location[variable] = (dbc_index, target)
        if neighbour is not None:
            self._location[neighbour] = (dbc_index, slot)
        return 1, extra_shifts, 2

    def execute(self, trace) -> tuple[SimReport, SwapStats]:
        """Run the trace; returns the usual report plus swap statistics.

        Swap costs are folded into the report (shift counters, read/write
        energy and latency), so reports are directly comparable with the
        static controller's.
        """
        p = self.params
        reads = writes = shifts = 0
        swaps = swap_shifts = swap_moves = 0
        runtime = 0.0
        for name, is_write in trace_operations(trace):
            dbc_index, slot = self.location_of(name)
            moved = self._dbcs[dbc_index].access(
                slot, warm_start=self.warm_start
            )
            shifts += moved
            runtime += moved * p.shift_latency_ns
            if is_write:
                writes += 1
                runtime += p.write_latency_ns
            else:
                reads += 1
                runtime += p.read_latency_ns
            self._bump(name)
            did, extra, moves = self._maybe_swap(name)
            swaps += did
            swap_shifts += extra
            swap_moves += moves
            if did:
                # each moved word is read at its old slot, written at the new
                runtime += moves * (p.read_latency_ns + p.write_latency_ns)
                runtime += extra * p.shift_latency_ns
        total_shifts = shifts + swap_shifts
        total_reads = reads + swap_moves
        total_writes = writes + swap_moves
        report = SimReport(
            dbcs=self.config.dbcs,
            accesses=reads + writes,
            reads=reads,
            writes=writes,
            shifts=total_shifts,
            runtime_ns=runtime,
            read_energy_pj=total_reads * p.read_energy_pj,
            write_energy_pj=total_writes * p.write_energy_pj,
            shift_energy_pj=total_shifts * p.shift_energy_pj,
            leakage_energy_pj=p.leakage_mw * runtime,
            area_mm2=p.area_mm2,
            per_dbc_shifts=tuple(d.shifts for d in self._dbcs),
        )
        stats = SwapStats(
            swaps=swaps,
            swap_shifts=swap_shifts,
            swap_reads=swap_moves,
            swap_writes=swap_moves,
        )
        self.swaps = swaps
        self.swap_shifts = swap_shifts
        return report, stats
