"""Simulation reports: shift counts, runtime and the energy breakdown.

Fig. 5 of the paper splits total energy into leakage, read/write and
shift components; :class:`SimReport` carries exactly that decomposition,
plus the area of the simulated configuration (Fig. 6) and enough raw
counters to recompute everything.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import SimulationError


@dataclass(frozen=True)
class SimReport:
    """Outcome of simulating one or more traces on an RTM configuration.

    Energies are in pJ, latencies in ns, area in mm^2 (Table I units).
    Reports for independent traces on the same configuration can be summed
    with ``+``; energy/latency totals are additive, area is not (same
    physical array) and must agree.
    """

    dbcs: int
    accesses: int = 0
    reads: int = 0
    writes: int = 0
    shifts: int = 0
    runtime_ns: float = 0.0
    read_energy_pj: float = 0.0
    write_energy_pj: float = 0.0
    shift_energy_pj: float = 0.0
    leakage_energy_pj: float = 0.0
    area_mm2: float = 0.0
    per_dbc_shifts: tuple[int, ...] = field(default=())
    # Fault observability (all zero/empty for clean simulation, so old
    # store payloads and existing constructors keep working unchanged).
    fault_injected: int = 0
    fault_misaligned: int = 0
    fault_corrupted: bool = False
    scrub_shifts: int = 0
    scrub_events: int = 0
    drift_histogram: tuple[tuple[int, int], ...] = field(default=())

    # -- derived -------------------------------------------------------------

    @property
    def rw_energy_pj(self) -> float:
        """Combined read/write energy, the middle bar segment of Fig. 5."""
        return self.read_energy_pj + self.write_energy_pj

    @property
    def total_energy_pj(self) -> float:
        return self.rw_energy_pj + self.shift_energy_pj + self.leakage_energy_pj

    @property
    def shifts_per_access(self) -> float:
        return self.shifts / self.accesses if self.accesses else 0.0

    @property
    def misaligned_fraction(self) -> float:
        """Fraction of accesses served with a nonzero position drift."""
        return self.fault_misaligned / self.accesses if self.accesses else 0.0

    def energy_breakdown(self) -> dict[str, float]:
        """Named components as plotted in Fig. 5."""
        return {
            "leakage": self.leakage_energy_pj,
            "read_write": self.rw_energy_pj,
            "shift": self.shift_energy_pj,
        }

    def __add__(self, other: "SimReport") -> "SimReport":
        if not isinstance(other, SimReport):
            return NotImplemented
        if self.dbcs != other.dbcs:
            raise SimulationError(
                f"cannot combine reports for {self.dbcs} and {other.dbcs} DBCs"
            )
        if self.area_mm2 and other.area_mm2 and self.area_mm2 != other.area_mm2:
            raise SimulationError("cannot combine reports with different areas")
        per_dbc: tuple[int, ...] = ()
        if self.per_dbc_shifts and other.per_dbc_shifts:
            per_dbc = tuple(
                a + b for a, b in zip(self.per_dbc_shifts, other.per_dbc_shifts)
            )
        histogram: tuple[tuple[int, int], ...] = ()
        if self.drift_histogram or other.drift_histogram:
            merged: dict[int, int] = {}
            for drift, count in self.drift_histogram + other.drift_histogram:
                merged[drift] = merged.get(drift, 0) + count
            histogram = tuple(sorted(merged.items()))
        return SimReport(
            dbcs=self.dbcs,
            accesses=self.accesses + other.accesses,
            reads=self.reads + other.reads,
            writes=self.writes + other.writes,
            shifts=self.shifts + other.shifts,
            runtime_ns=self.runtime_ns + other.runtime_ns,
            read_energy_pj=self.read_energy_pj + other.read_energy_pj,
            write_energy_pj=self.write_energy_pj + other.write_energy_pj,
            shift_energy_pj=self.shift_energy_pj + other.shift_energy_pj,
            leakage_energy_pj=self.leakage_energy_pj + other.leakage_energy_pj,
            area_mm2=self.area_mm2 or other.area_mm2,
            per_dbc_shifts=per_dbc,
            fault_injected=self.fault_injected + other.fault_injected,
            fault_misaligned=self.fault_misaligned + other.fault_misaligned,
            fault_corrupted=self.fault_corrupted or other.fault_corrupted,
            scrub_shifts=self.scrub_shifts + other.scrub_shifts,
            scrub_events=self.scrub_events + other.scrub_events,
            drift_histogram=histogram,
        )

    def __radd__(self, other: object) -> "SimReport":
        if other == 0:  # so reports work with sum()
            return self
        return self.__add__(other)  # type: ignore[arg-type]

    def summary(self) -> str:
        text = (
            f"{self.accesses} accesses ({self.reads} R / {self.writes} W), "
            f"{self.shifts} shifts, {self.runtime_ns:.1f} ns, "
            f"{self.total_energy_pj:.1f} pJ "
            f"(leak {self.leakage_energy_pj:.1f} / rw {self.rw_energy_pj:.1f} / "
            f"shift {self.shift_energy_pj:.1f})"
        )
        if self.fault_injected or self.fault_misaligned or self.scrub_events:
            text += (
                f"; faults: {self.fault_injected} injected, "
                f"{self.fault_misaligned} misaligned "
                f"({self.misaligned_fraction:.1%}), "
                f"{self.scrub_events} scrubs (+{self.scrub_shifts} shifts)"
            )
            if self.fault_corrupted:
                text += ", CORRUPTED"
        return text
