"""Circuit-level RTM parameters, calibrated to the paper's Table I.

The paper obtains latency, energy and area from the DESTINY circuit
simulator for a 4 KiB, 32 nm RTM with 32 tracks per DBC (Table I). DESTINY
is a C++ circuit tool we cannot run here, so this module *is* the
substitution: the published Table I values are embedded as calibration
anchors and reproduced digit-for-digit; other DBC counts are served by
log-log interpolation between anchors (all Table I columns are smooth,
monotone functions of the DBC count).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.errors import GeometryError
from repro.rtm.geometry import RTMConfig, TABLE1_DBC_COUNTS


@dataclass(frozen=True)
class MemoryParams:
    """Latency / energy / area parameters of one RTM configuration.

    Units follow Table I: mW, pJ, ns, mm^2. ``leakage_mw * runtime_ns``
    conveniently yields pJ (1 mW * 1 ns = 1 pJ).
    """

    dbcs: int
    domains_per_dbc: int
    leakage_mw: float
    write_energy_pj: float
    read_energy_pj: float
    shift_energy_pj: float
    read_latency_ns: float
    write_latency_ns: float
    shift_latency_ns: float
    area_mm2: float

    def runtime_ns(self, shifts: int, reads: int, writes: int) -> float:
        """Table I latency of the counts, served one after another."""
        return (
            shifts * self.shift_latency_ns
            + reads * self.read_latency_ns
            + writes * self.write_latency_ns
        )

    def validate(self) -> None:
        for name in (
            "leakage_mw", "write_energy_pj", "read_energy_pj", "shift_energy_pj",
            "read_latency_ns", "write_latency_ns", "shift_latency_ns", "area_mm2",
        ):
            if getattr(self, name) <= 0:
                raise GeometryError(f"{name} must be positive")


#: Table I, verbatim: 4 KiB RTM, 32 nm technology, 32 tracks per DBC.
_TABLE1: dict[int, MemoryParams] = {
    2: MemoryParams(2, 512, 3.39, 3.42, 2.26, 2.18, 0.81, 1.08, 0.99, 0.0159),
    4: MemoryParams(4, 256, 4.33, 3.65, 2.39, 2.03, 0.84, 1.14, 0.92, 0.0186),
    8: MemoryParams(8, 128, 6.56, 3.79, 2.47, 1.97, 0.86, 1.17, 0.86, 0.0226),
    16: MemoryParams(16, 64, 8.94, 3.94, 2.54, 1.86, 0.89, 1.20, 0.78, 0.0279),
}

_FIELDS = (
    "leakage_mw", "write_energy_pj", "read_energy_pj", "shift_energy_pj",
    "read_latency_ns", "write_latency_ns", "shift_latency_ns", "area_mm2",
)


def destiny_params(dbcs: int, capacity_bytes: int = 4096,
                   tracks_per_dbc: int = 32) -> MemoryParams:
    """Parameters for a DBC count, exact at Table I anchors.

    Non-tabulated counts between 2 and 16 are log-log interpolated
    (each column is smooth in ``log(dbcs)``); counts outside that range
    are extrapolated from the nearest anchor pair. Only the tabulated
    4 KiB / 32-track geometry is supported, because the anchors are
    specific to it.
    """
    if capacity_bytes != 4096 or tracks_per_dbc != 32:
        raise GeometryError(
            "calibrated parameters exist only for the Table I geometry "
            "(4096 B, 32 tracks/DBC); requested "
            f"{capacity_bytes} B, {tracks_per_dbc} tracks"
        )
    if dbcs < 1:
        raise GeometryError(f"dbcs must be >= 1, got {dbcs}")
    if dbcs in _TABLE1:
        return _TABLE1[dbcs]
    anchors = sorted(_TABLE1)
    lo = max((a for a in anchors if a < dbcs), default=anchors[0])
    hi = min((a for a in anchors if a > dbcs), default=anchors[-1])
    if lo == hi:  # outside the anchor range: extrapolate from the edge pair
        lo, hi = (anchors[0], anchors[1]) if dbcs < anchors[0] else (anchors[-2], anchors[-1])
    t = (math.log(dbcs) - math.log(lo)) / (math.log(hi) - math.log(lo))
    plo, phi = _TABLE1[lo], _TABLE1[hi]
    values = {
        f: math.exp(
            (1 - t) * math.log(getattr(plo, f)) + t * math.log(getattr(phi, f))
        )
        for f in _FIELDS
    }
    domains = (capacity_bytes * 8) // (dbcs * tracks_per_dbc)
    return MemoryParams(dbcs=dbcs, domains_per_dbc=domains, **values)


def params_for(config: RTMConfig, strict: bool = False) -> MemoryParams:
    """Parameters for an :class:`RTMConfig`.

    For the Table I geometry (4 KiB, 32 tracks/DBC) this is exact. Other
    geometries reuse the (interpolated) parameters of the same DBC count —
    per-access energies and latencies are dominated by the peripheral
    circuitry that scales with the DBC/port count, so this is the honest
    first-order approximation available without running DESTINY. Pass
    ``strict=True`` to reject non-calibrated geometries instead.
    """
    capacity = config.bits_per_subarray // 8
    if strict or (capacity == 4096 and config.tracks_per_dbc == 32):
        return destiny_params(config.dbcs, capacity_bytes=capacity,
                              tracks_per_dbc=config.tracks_per_dbc)
    return destiny_params(config.dbcs)


def table1_rows() -> list[tuple[str, list[float]]]:
    """Table I in row-major form: (row label, values for 2/4/8/16 DBCs)."""
    cols = [destiny_params(q) for q in TABLE1_DBC_COUNTS]
    return [
        ("Number of domains in a DBC", [c.domains_per_dbc for c in cols]),
        ("Leakage power [mW]", [c.leakage_mw for c in cols]),
        ("Write energy [pJ]", [c.write_energy_pj for c in cols]),
        ("Read energy [pJ]", [c.read_energy_pj for c in cols]),
        ("Shift energy [pJ]", [c.shift_energy_pj for c in cols]),
        ("Read latency [ns]", [c.read_latency_ns for c in cols]),
        ("Write latency [ns]", [c.write_latency_ns for c in cols]),
        ("Shift latency [ns]", [c.shift_latency_ns for c in cols]),
        ("Area [mm2]", [c.area_mm2 for c in cols]),
    ]
