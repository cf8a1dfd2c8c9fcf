"""Resumable chunked replay: the :class:`ShiftCursor`.

A cursor is the engine-side half of streaming replay: it owns the
per-DBC head state (``offsets``/``aligned``) plus the access and shift
counters of the chunks it replayed, and :meth:`ShiftCursor.replay_chunk`
advances all of it by one compiled chunk. A caller that reports per
call replays each call on a :meth:`ShiftCursor.fork`, which carries the
head state on and starts every counter at zero. Because both backends'
monoid-scan formulations accept a carry-in (``init_offsets``/
``init_aligned`` on :class:`~repro.engine.types.ShiftRequest`), the
scan is associative across chunk boundaries: replaying a trace in
chunks of *any* size — including one access at a time — produces
bit-identical counters and final state to a single monolithic
:meth:`run` of the whole trace. That invariance is the cursor's
contract, enforced by the equivalence test matrix over chunk sizes,
backends, port counts and cold/warm starts.

``warm_start`` composes correctly with the carry: the engine only
grants the free first-access alignment to DBCs whose carried
``aligned`` flag is still False, so a DBC first touched in chunk 7
gets exactly the same free alignment it would get monolithically, and
a DBC already aligned by an earlier chunk is charged normally.
"""

from __future__ import annotations

import numpy as np

from repro.engine.faults import FaultModel, FaultObservation
from repro.engine.types import ShiftRequest, ShiftResult
from repro.errors import SimulationError


class ShiftCursor:
    """Carryable replay state over a fixed DBC geometry.

    Parameters mirror :class:`~repro.engine.types.ShiftRequest` minus
    the access arrays, which arrive chunk by chunk. ``init_offsets`` /
    ``init_aligned`` seed the cursor mid-state (e.g. from a controller
    that already executed earlier traces); by default every DBC starts
    at offset 0, unaligned. ``backend`` accepts anything
    :func:`repro.engine.get_backend` does.

    With a ``fault`` model attached, the cursor also carries the
    per-DBC physical-minus-believed drift across chunks and threads the
    absolute access index (``access_base`` plus the accesses replayed
    so far) into each chunk's request — the counter-based fault RNG is
    keyed on that index, so chunked faulted replay stays bit-identical
    to monolithic faulted replay at any chunk size. :meth:`scrub`
    implements the position-error scrubbing primitive on top of the
    drift state.
    """

    def __init__(
        self,
        num_dbcs: int,
        domains: int,
        ports: int = 1,
        warm_start: bool = True,
        backend: object = None,
        init_offsets: np.ndarray | None = None,
        init_aligned: np.ndarray | None = None,
        fault: FaultModel | None = None,
        access_base: int = 0,
        init_drifts: np.ndarray | None = None,
    ) -> None:
        from repro.engine import get_backend

        if num_dbcs < 1:
            raise SimulationError(f"num_dbcs must be >= 1, got {num_dbcs}")
        self.num_dbcs = int(num_dbcs)
        self.domains = int(domains)
        self.ports = int(ports)
        self.warm_start = warm_start
        self._backend = get_backend(backend)
        if fault is not None and fault.is_null:
            fault = None  # same normalization as ShiftRequest
        self.fault = fault
        if access_base < 0:
            raise SimulationError(
                f"access_base must be >= 0, got {access_base}"
            )
        self.access_base = int(access_base)
        if init_offsets is None:
            self._offsets = np.zeros(self.num_dbcs, dtype=np.int64)
        else:
            self._offsets = np.array(init_offsets, dtype=np.int64)
        if init_aligned is None:
            self._aligned = np.zeros(self.num_dbcs, dtype=bool)
        else:
            self._aligned = np.array(init_aligned, dtype=bool)
        if init_drifts is None:
            self._drifts = np.zeros(self.num_dbcs, dtype=np.int64)
        else:
            if fault is None and np.any(np.asarray(init_drifts) != 0):
                raise SimulationError(
                    "init_drifts requires a fault model: nonzero drift "
                    "cannot evolve without one"
                )
            self._drifts = np.array(init_drifts, dtype=np.int64)
        self._per_dbc_shifts = np.zeros(self.num_dbcs, dtype=np.int64)
        self._accesses = 0
        self._shifts = 0
        self._fault_injected = 0
        self._fault_misaligned = 0
        self._corrupted = False
        self._scrub_shifts = 0
        self._scrub_events = 0

    # -- replay --------------------------------------------------------------

    def replay_chunk(self, dbc: np.ndarray, slot: np.ndarray) -> ShiftResult:
        """Advance the cursor by one compiled chunk.

        ``dbc``/``slot`` are the chunk's per-access arrays (trace
        order). Returns the chunk's own
        :class:`~repro.engine.types.ShiftResult` (counters for *this*
        chunk; final state = the cursor's new state).
        """
        result = self._backend.run(
            ShiftRequest(
                dbc=dbc,
                slot=slot,
                num_dbcs=self.num_dbcs,
                domains=self.domains,
                ports=self.ports,
                warm_start=self.warm_start,
                init_offsets=self._offsets,
                init_aligned=self._aligned,
                fault=self.fault,
                access_base=self.access_base + self._accesses,
                init_drifts=self._drifts if self.fault is not None else None,
            )
        )
        self._offsets = np.asarray(result.final_offsets, dtype=np.int64)
        self._aligned = np.asarray(result.final_aligned, dtype=bool)
        self._per_dbc_shifts += np.asarray(result.per_dbc_shifts,
                                           dtype=np.int64)
        self._accesses += result.accesses
        self._shifts += result.shifts
        if result.faults is not None:
            self._drifts = np.asarray(result.faults.final_drifts,
                                      dtype=np.int64)
            self._fault_injected += result.faults.injected
            self._fault_misaligned += result.faults.misaligned
            self._corrupted = self._corrupted or result.faults.corrupted
        return result

    def scrub(self) -> int:
        """Realign every drifted track, charging the corrective shifts.

        The scrubbing primitive of the coding layer: a position-error
        scrub reads each track's alignment mark and issues ``|drift|``
        corrective shifts to cancel the accumulated drift. Returns the
        shifts charged (also accumulated separately as
        :attr:`scrub_shifts`, so callers can price scrub traffic apart
        from placement traffic). Requires an attached fault model —
        without one there is no drift to scrub.
        """
        if self.fault is None:
            raise SimulationError(
                "scrub() requires a fault model: a clean cursor has no "
                "position drift to correct"
            )
        shifts = int(np.abs(self._drifts).sum())
        self._drifts = np.zeros(self.num_dbcs, dtype=np.int64)
        self._scrub_shifts += shifts
        self._scrub_events += 1
        return shifts

    def result(self) -> ShiftResult:
        """The accumulated totals as one :class:`ShiftResult`.

        Equal — by the associativity contract — to the result of one
        monolithic run over the concatenation of every chunk replayed
        so far.
        """
        faults = None
        if self.fault is not None:
            faults = FaultObservation(
                injected=self._fault_injected,
                misaligned=self._fault_misaligned,
                final_drifts=self._drifts.copy(),
                corrupted=self._corrupted,
                corrective_shifts=self._scrub_shifts,
            )
        return ShiftResult(
            accesses=self._accesses,
            shifts=self._shifts,
            per_dbc_shifts=tuple(int(s) for s in self._per_dbc_shifts),
            final_offsets=self._offsets.copy(),
            final_aligned=self._aligned.copy(),
            faults=faults,
        )

    def fork(self) -> "ShiftCursor":
        """A cursor that continues this one's device state — offsets,
        alignment, drift, the corruption flag and the access count —
        with every counter at zero."""
        child = ShiftCursor(
            self.num_dbcs, self.domains, self.ports, self.warm_start,
            self._backend,
            init_offsets=self._offsets,
            init_aligned=self._aligned,
            fault=self.fault,
            access_base=self.access_base + self._accesses,
            init_drifts=self._drifts,
        )
        child._corrupted = self._corrupted
        return child

    # -- accessors -----------------------------------------------------------

    @property
    def offsets(self) -> np.ndarray:
        """Current per-DBC head offsets (int64, length ``num_dbcs``)."""
        return self._offsets

    @property
    def aligned(self) -> np.ndarray:
        """Per-DBC flag: has this DBC been accessed (head meaningful)?"""
        return self._aligned

    @property
    def per_dbc_shifts(self) -> np.ndarray:
        return self._per_dbc_shifts

    @property
    def accesses(self) -> int:
        return self._accesses

    @property
    def shifts(self) -> int:
        return self._shifts

    @property
    def drifts(self) -> np.ndarray:
        """Current per-DBC physical-minus-believed drift (all zero clean)."""
        return self._drifts

    @property
    def fault_injected(self) -> int:
        return self._fault_injected

    @property
    def fault_misaligned(self) -> int:
        return self._fault_misaligned

    @property
    def corrupted(self) -> bool:
        """Sticky: did any access ever leave the physical track envelope?"""
        return self._corrupted

    @property
    def scrub_shifts(self) -> int:
        return self._scrub_shifts

    @property
    def scrub_events(self) -> int:
        return self._scrub_events

    def __repr__(self) -> str:
        return (
            f"<ShiftCursor {self.num_dbcs} DBCs x {self.domains} domains, "
            f"{self.ports} port(s): {self._accesses} accesses, "
            f"{self._shifts} shifts>"
        )
