"""The RTM controller: maps variables to physical locations and executes
accesses against per-DBC device state.

This is the piece RTSim plays in the paper's flow: it receives a memory
trace and a placement, drives the shift machinery, and accounts latency
and energy using the DESTINY-calibrated parameters. Every trace — in
memory or streamed from disk — replays the same way: each of its
:meth:`~repro.trace.trace.MemoryTrace.chunks` is compiled to flat
``(dbc, slot)`` arrays and advanced through one
:class:`~repro.engine.ShiftCursor` on an engine backend (vectorized
numpy by default, the per-access reference loop on request). The
device state carries over between ``execute`` calls; each report
counts its own call's accesses and shifts.
"""

from __future__ import annotations

import numpy as np

from repro.engine import FaultModel, get_backend
from repro.engine.cursor import ShiftCursor
from repro.engine.faults import drift_histogram
from repro.errors import PlacementError, SimulationError
from repro.rtm.geometry import RTMConfig
from repro.rtm.report import SimReport
from repro.rtm.timing import MemoryParams, params_for
from repro.trace.trace import MemoryTrace


def placement_locations(placement, config: RTMConfig) -> dict[str, tuple[int, int]]:
    """``{name: (dbc, slot)}`` for a placement checked against ``config``.

    The one placement check every trace controller shares: at most
    ``config.dbcs`` DBCs, at most ``config.locations_per_dbc`` entries
    per DBC (``None`` marks an explicitly empty location) and no
    variable placed twice. Raises :class:`~repro.errors.PlacementError`
    otherwise.
    """
    dbc_lists = [list(d) for d in placement.dbc_lists()]
    if len(dbc_lists) > config.dbcs:
        raise PlacementError(
            f"placement uses {len(dbc_lists)} DBCs but the device has "
            f"{config.dbcs}"
        )
    location: dict[str, tuple[int, int]] = {}
    for dbc_index, variables in enumerate(dbc_lists):
        if len(variables) > config.locations_per_dbc:
            raise PlacementError(
                f"DBC {dbc_index} holds {len(variables)} variables but has "
                f"only {config.locations_per_dbc} locations"
            )
        for slot, name in enumerate(variables):
            if name is None:  # explicitly empty location
                continue
            if name in location:
                raise PlacementError(f"variable {name!r} placed twice")
            location[name] = (dbc_index, slot)
    return location


class RTMController:
    """Executes traces against an RTM configuration under a placement.

    Parameters
    ----------
    config:
        The RTM geometry.
    placement:
        Anything exposing ``dbc_lists() -> sequence of ordered variable
        name lists`` (one per DBC, slot order = list order); the core
        package's ``Placement`` satisfies this.
    params:
        Calibrated parameters; derived from ``config`` when omitted.
    warm_start:
        Whether each DBC's first access aligns for free (the paper's cost
        convention; see docs/substitution.md).
    backend:
        Engine backend name or instance; defaults to the process-wide
        default (``REPRO_BACKEND`` or vectorized numpy).
    fault:
        Optional :class:`~repro.engine.FaultModel` injecting
        seed-deterministic off-by-one shift faults; the controller then
        tracks per-DBC position drift, misaligned accesses and the
        undetected-corruption flag across ``execute`` calls. A null
        model (rate 0) is normalized away and runs the clean path.
    scrub_interval:
        Optional scrubbing cadence S (requires ``fault``): after every
        S accesses — counted across the controller's lifetime, so the
        cadence is invariant to how traces are chunked — drifted tracks
        are realigned, charging the corrective shifts as explicit scrub
        traffic (priced into runtime and shift energy, reported apart
        from placement shifts).
    """

    def __init__(
        self,
        config: RTMConfig,
        placement,
        params: MemoryParams | None = None,
        warm_start: bool = True,
        backend: object = None,
        fault: FaultModel | None = None,
        scrub_interval: int | None = None,
    ) -> None:
        self._location = placement_locations(placement, config)
        self.config = config
        self.params = params or params_for(config)
        self.warm_start = warm_start
        self._backend = get_backend(backend)
        if fault is not None and fault.is_null:
            fault = None  # rate 0 is the clean path (zero-cost-when-off)
        self.fault = fault
        if scrub_interval is not None:
            if fault is None:
                raise SimulationError(
                    "scrub_interval requires a fault model: scrubbing a "
                    "clean controller would only charge useless shifts"
                )
            if int(scrub_interval) < 1:
                raise SimulationError(
                    f"scrub_interval must be >= 1, got {scrub_interval}"
                )
            scrub_interval = int(scrub_interval)
        self.scrub_interval = scrub_interval
        self.reset()

    # -- execution -----------------------------------------------------------

    def location_of(self, variable: str) -> tuple[int, int]:
        """Physical ``(dbc, slot)`` of a variable."""
        try:
            return self._location[variable]
        except KeyError:
            raise SimulationError(f"variable {variable!r} has no location") from None

    def _variable_luts(self, variables) -> tuple[np.ndarray, np.ndarray]:
        """Code-indexed ``(dbc, slot)`` lookup tables (-1 for unplaced)."""
        var_dbc = np.full(len(variables), -1, dtype=np.int64)
        var_slot = np.full(len(variables), -1, dtype=np.int64)
        for code, name in enumerate(variables):
            loc = self._location.get(name)
            if loc is not None:
                var_dbc[code], var_slot[code] = loc
        return var_dbc, var_slot

    def _report(self, reads: int, writes: int, cursor: ShiftCursor) -> SimReport:
        """Price one ``execute``'s integer totals into a :class:`SimReport`.

        ``cursor`` replayed exactly that call's accesses. Building the
        report once from its *integer* counters (instead of summing
        per-chunk float reports) is what keeps it float-bit-identical
        for any chunk size. Scrub shifts are real device shifts — they
        pay latency and shift energy like any other — but stay out of
        ``shifts``/``per_dbc_shifts`` so placement traffic remains
        comparable across fault settings.
        """
        p = self.params
        shifts = cursor.shifts
        device_shifts = shifts + cursor.scrub_shifts
        runtime = p.runtime_ns(device_shifts, reads, writes)
        return SimReport(
            dbcs=self.config.dbcs,
            accesses=reads + writes,
            reads=reads,
            writes=writes,
            shifts=shifts,
            runtime_ns=runtime,
            read_energy_pj=reads * p.read_energy_pj,
            write_energy_pj=writes * p.write_energy_pj,
            shift_energy_pj=device_shifts * p.shift_energy_pj,
            leakage_energy_pj=p.leakage_mw * runtime,
            area_mm2=p.area_mm2,
            per_dbc_shifts=tuple(int(s) for s in cursor.per_dbc_shifts),
            fault_injected=cursor.fault_injected,
            fault_misaligned=cursor.fault_misaligned,
            fault_corrupted=cursor.corrupted,
            scrub_shifts=cursor.scrub_shifts,
            scrub_events=cursor.scrub_events,
            drift_histogram=drift_histogram(cursor.drifts),  # () fault-free
        )

    def _replay_scrubbed(
        self, cursor: ShiftCursor, dbc: np.ndarray, slot: np.ndarray
    ) -> None:
        """Replay one compiled chunk, scrubbing at absolute S-boundaries.

        The cadence counts *lifetime* accesses (``cursor.access_base +
        cursor.accesses``), so splitting a trace into chunks — or across
        ``execute`` calls — scrubs at exactly the same access indices as
        one monolithic run: the scrubbed replay stays chunk-size
        invariant like everything else in the engine.
        """
        interval = self.scrub_interval
        if interval is None:
            cursor.replay_chunk(dbc, slot)
            return
        n = int(dbc.size)
        pos = 0
        while pos < n:
            done = cursor.access_base + cursor.accesses
            take = min(n - pos, interval - done % interval)
            cursor.replay_chunk(dbc[pos:pos + take], slot[pos:pos + take])
            pos += take
            if (cursor.access_base + cursor.accesses) % interval == 0:
                cursor.scrub()

    def execute(self, trace: MemoryTrace) -> SimReport:
        """Run one trace to completion and report counters and energy."""
        return self.execute_stream(trace)

    def execute_stream(self, trace, chunk_hooks=()) -> SimReport:
        """Run a trace chunk by chunk: the one replay body.

        ``trace`` is anything with ``variables`` and ``chunks()``
        yielding :class:`~repro.trace.trace.TraceChunk`-shaped objects —
        a :class:`~repro.trace.trace.MemoryTrace` or a
        :class:`~repro.trace.streaming.StreamingTrace`. A fork of the
        controller's device cursor (its state, zeroed counters) advances
        over the chunks, so chained ``execute`` calls continue one device
        and each report counts its own call; by the cursor's
        associativity contract the report is bit-identical — integer
        counters *and* derived floats — for any chunk size.

        ``chunk_hooks`` are called as ``hook(chunk, dbc, slot)`` after
        each chunk is compiled, letting callers ride along the single
        pass (the matrix runner advances its analytic single-port
        observer cursor this way instead of re-reading the trace).

        Only accessed variables need a location: a chunk touching an
        unplaced variable raises :class:`SimulationError` before it is
        replayed, and the controller's state is left as it was.
        """
        variables = trace.variables
        var_dbc, var_slot = self._variable_luts(variables)
        unplaced = var_dbc < 0
        check = bool(unplaced.any())
        cursor = self._device.fork()
        reads = writes = 0
        for chunk in trace.chunks():
            codes = chunk.codes
            if check:
                hit = unplaced[codes]
                if hit.any():
                    name = variables[int(codes[np.argmax(hit)])]
                    raise SimulationError(f"variable {name!r} has no location")
            dbc, slot = var_dbc[codes], var_slot[codes]
            self._replay_scrubbed(cursor, dbc, slot)
            w = int(np.count_nonzero(chunk.writes))
            writes += w
            reads += int(codes.size) - w
            for hook in chunk_hooks:
                hook(chunk, dbc, slot)
        self._device = cursor
        return self._report(reads, writes, cursor)

    def reset(self) -> None:
        """Return all DBCs to the unaligned initial state."""
        self._device = ShiftCursor(
            num_dbcs=self.config.dbcs,
            domains=self.config.domains_per_track,
            ports=self.config.ports_per_track,
            warm_start=self.warm_start,
            backend=self._backend,
            fault=self.fault,
        )
