"""Top-level simulation entry points (the RTSim role in the paper's flow).

``simulate`` runs one trace under one placement; ``simulate_program`` runs
a whole benchmark program (each access sequence independently, as in the
offset-assignment methodology) and sums the reports. Both accept a
``backend`` selecting the shift-engine implementation (vectorized numpy
by default; ``"reference"`` for the per-access oracle loop). Every
access is served by its nearest port. ``warm_start=False`` charges each
DBC's first alignment (``repro-sim --cold-start``); the analytic cost
model and the searchers always price warm starts.
"""

from __future__ import annotations

from collections.abc import Iterable

from repro.engine import FaultModel
from repro.rtm.controller import RTMController
from repro.rtm.geometry import RTMConfig
from repro.rtm.report import SimReport
from repro.rtm.timing import MemoryParams
from repro.trace.trace import MemoryTrace


def simulate(
    trace: MemoryTrace,
    placement,
    config: RTMConfig,
    params: MemoryParams | None = None,
    warm_start: bool = True,
    backend: object = None,
    fault: FaultModel | None = None,
    scrub_interval: int | None = None,
) -> SimReport:
    """Simulate a single trace; see :class:`RTMController` for semantics."""
    controller = RTMController(
        config, placement, params=params, warm_start=warm_start,
        backend=backend, fault=fault, scrub_interval=scrub_interval,
    )
    return controller.execute(trace)


def simulate_program(
    pairs: Iterable[tuple[MemoryTrace, object]],
    config: RTMConfig,
    params: MemoryParams | None = None,
    warm_start: bool = True,
    backend: object = None,
    fault: FaultModel | None = None,
    scrub_interval: int | None = None,
) -> SimReport:
    """Simulate ``(trace, placement)`` pairs independently and sum reports.

    Each sequence gets the whole subarray (fresh controller), matching how
    the paper evaluates OffsetStone programs: per-procedure sequences are
    placed and measured in isolation and program metrics are sums.
    """
    total: SimReport | None = None
    for trace, placement in pairs:
        report = simulate(
            trace, placement, config, params=params, warm_start=warm_start,
            backend=backend, fault=fault, scrub_interval=scrub_interval,
        )
        total = report if total is None else total + report
    if total is None:
        raise ValueError("simulate_program needs at least one (trace, placement)")
    return total
