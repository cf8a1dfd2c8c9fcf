"""Engine request/result types.

A :class:`ShiftRequest` is the fully compiled form of "run these accesses
against this DBC geometry": flat per-access DBC/slot arrays plus the
track geometry, the first-access convention and (optionally) the shift
state the device is already in. A :class:`ShiftResult` carries the
charged shift counters and the final device state, so stateful callers
(the controller) can chain requests and stateless callers (the analytic
cost model) can ignore it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.engine.faults import FaultModel, FaultObservation
from repro.errors import SimulationError


@dataclass(frozen=True, eq=False)
class ShiftRequest:
    """One batch of accesses against a uniform-geometry set of DBCs.

    Compared by identity: the array fields make the generated
    field-wise ``__eq__``/``__hash__`` raise, so they are disabled.

    Attributes
    ----------
    dbc / slot:
        Per-access DBC index and intra-DBC location, in trace order.
    num_dbcs:
        Device width; per-DBC counters are reported at this length.
    domains:
        Domains per track (``K``); slots must lie in ``[0, domains)``.
    ports:
        Access ports per track; each access uses the nearest one.
    warm_start:
        Whether a DBC's very first access aligns for free.
    init_offsets / init_aligned:
        Optional per-DBC starting state (defaults: offset 0, unaligned),
        letting stateful callers chain batches.
    fault:
        Optional :class:`~repro.engine.faults.FaultModel`. A null model
        (effective rate 0) is normalized to ``None`` here, so rate-0
        requests run the exact clean code path.
    access_base:
        Absolute index of this batch's first access in its trace; the
        fault RNG is keyed on ``access_base + i`` so chunked replay
        draws the same faults as monolithic replay.
    init_drifts:
        Optional per-DBC starting physical-minus-believed drift (from a
        previous faulted batch). Only meaningful with ``fault`` set.
    """

    dbc: np.ndarray
    slot: np.ndarray
    num_dbcs: int
    domains: int
    ports: int = 1
    warm_start: bool = True
    init_offsets: np.ndarray | None = None
    init_aligned: np.ndarray | None = None
    fault: FaultModel | None = None
    access_base: int = 0
    init_drifts: np.ndarray | None = None

    def __post_init__(self) -> None:
        dbc = np.ascontiguousarray(self.dbc, dtype=np.int64)
        slot = np.ascontiguousarray(self.slot, dtype=np.int64)
        if dbc.ndim != 1 or slot.ndim != 1 or dbc.size != slot.size:
            raise SimulationError(
                f"dbc/slot must be equal-length 1-D arrays, got shapes "
                f"{dbc.shape} and {slot.shape}"
            )
        if self.num_dbcs < 1:
            raise SimulationError(f"num_dbcs must be >= 1, got {self.num_dbcs}")
        if dbc.size and (int(dbc.min()) < 0 or int(dbc.max()) >= self.num_dbcs):
            raise SimulationError(
                f"dbc indices must lie in [0, {self.num_dbcs})"
            )
        object.__setattr__(self, "dbc", dbc)
        object.__setattr__(self, "slot", slot)
        if self.access_base < 0:
            raise SimulationError(
                f"access_base must be >= 0, got {self.access_base}"
            )
        if self.fault is not None and self.fault.is_null:
            # Zero-cost-when-off: a rate-0 model IS the clean replay.
            object.__setattr__(self, "fault", None)
        if self.fault is None and self.init_drifts is not None:
            drifts = np.asarray(self.init_drifts)
            if drifts.size and np.any(drifts != 0):
                raise SimulationError(
                    "init_drifts requires a fault model: nonzero drift "
                    "cannot evolve without one"
                )
            object.__setattr__(self, "init_drifts", None)

    @property
    def accesses(self) -> int:
        return int(self.dbc.size)

    def resolved_init(self) -> tuple[np.ndarray, np.ndarray]:
        """The starting per-DBC state as validated int64/bool arrays."""
        if self.init_offsets is None:
            offsets = np.zeros(self.num_dbcs, dtype=np.int64)
        else:
            offsets = np.ascontiguousarray(self.init_offsets, dtype=np.int64)
            if offsets.shape != (self.num_dbcs,):
                raise SimulationError(
                    f"init_offsets must have shape ({self.num_dbcs},)"
                )
            if offsets.size and int(np.abs(offsets).max()) > self.domains - 1:
                raise SimulationError(
                    "init_offsets exceed the physical envelope of "
                    f"{self.domains} domains"
                )
        if self.init_aligned is None:
            aligned = np.zeros(self.num_dbcs, dtype=bool)
        else:
            aligned = np.ascontiguousarray(self.init_aligned, dtype=bool)
            if aligned.shape != (self.num_dbcs,):
                raise SimulationError(
                    f"init_aligned must have shape ({self.num_dbcs},)"
                )
        return offsets, aligned

    def resolved_init_drifts(self) -> np.ndarray:
        """The starting per-DBC drift as a validated int64 array."""
        if self.init_drifts is None:
            return np.zeros(self.num_dbcs, dtype=np.int64)
        drifts = np.ascontiguousarray(self.init_drifts, dtype=np.int64)
        if drifts.shape != (self.num_dbcs,):
            raise SimulationError(
                f"init_drifts must have shape ({self.num_dbcs},)"
            )
        return drifts


@dataclass(frozen=True, eq=False)
class ShiftResult:
    """Charged counters and final device state for one request.

    ``faults`` is ``None`` for clean replay and a
    :class:`~repro.engine.faults.FaultObservation` when the request
    carried an active fault model; it participates in equality, so the
    differential oracle pins fault observability bit-identically too.
    """

    accesses: int
    shifts: int
    per_dbc_shifts: tuple[int, ...]
    final_offsets: np.ndarray
    final_aligned: np.ndarray
    faults: FaultObservation | None = None

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ShiftResult):
            return NotImplemented
        return (
            self.accesses == other.accesses
            and self.shifts == other.shifts
            and self.per_dbc_shifts == other.per_dbc_shifts
            and np.array_equal(self.final_offsets, other.final_offsets)
            and np.array_equal(self.final_aligned, other.final_aligned)
            and self.faults == other.faults
        )
