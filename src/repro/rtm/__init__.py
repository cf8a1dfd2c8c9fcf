"""Racetrack-memory architecture substrate (RTSim/DESTINY stand-in).

Models the RTM organisation of Sec. II-A — banks of subarrays of DBCs,
each DBC grouping ``T`` nanotracks of ``K`` domains with ``p`` access
ports — plus the circuit-level latency/energy/area parameters of Table I
and a trace-driven simulator that turns (trace, placement) into shift
counts, runtime and an energy breakdown.
"""

from repro.rtm.geometry import RTMConfig, iso_capacity_sweep, TABLE1_DBC_COUNTS
from repro.rtm.timing import MemoryParams, destiny_params, table1_rows
from repro.engine.semantics import port_positions
from repro.rtm.device import DBCState
from repro.rtm.controller import RTMController
from repro.rtm.report import SimReport
from repro.rtm.sim import simulate, simulate_program
from repro.rtm.swapping import SwappingController, SwapStats
from repro.rtm.preshift import PreshiftController, PreshiftPolicy, PreshiftReport
from repro.rtm.wear import WearReport, rotate_placement, wear_report

__all__ = [
    "SwappingController",
    "SwapStats",
    "PreshiftController",
    "PreshiftPolicy",
    "PreshiftReport",
    "WearReport",
    "wear_report",
    "rotate_placement",
    "RTMConfig",
    "iso_capacity_sweep",
    "TABLE1_DBC_COUNTS",
    "MemoryParams",
    "destiny_params",
    "table1_rows",
    "port_positions",
    "DBCState",
    "RTMController",
    "SimReport",
    "simulate",
    "simulate_program",
]
