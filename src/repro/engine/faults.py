"""Deterministic shift-fault injection: the engine's robustness axis.

Real racetrack shifts over- and under-shoot — "Coding for Racetrack
Memories" (PAPERS.md) models exactly these position errors. A
:class:`FaultModel` attached to a :class:`~repro.engine.types
.ShiftRequest` injects *off-by-one* position faults into the replay:
with probability ``rate`` an access whose shift actually moves the
track (signed delta != 0) overshoots or undershoots by one domain.

The semantics are chosen so that the *believed* controller state is
untouched by faults:

* The controller does not know a fault happened, so it charges exactly
  the shifts it believes it issued — charged counters
  (``shifts``/``per_dbc_shifts``) and the believed ``final_offsets``
  are bit-identical to the clean replay. This is physically faithful
  (open-loop shifting has no position feedback) and is what lets the
  vectorized backend keep its monoid scan: faults become a pure
  post-pass over the clean replay's signed deltas.
* What a fault perturbs is the per-DBC *drift* — physical offset minus
  believed offset. Each fault event moves the drift by ±1 in the
  direction of the shift (overshoot extends it, undershoot truncates
  it); an access served while its DBC's drift is nonzero reads the
  wrong domain (a *misaligned* access); and if the physical offset
  ``believed + drift`` ever leaves the track envelope, data has been
  shifted off the end of the track — *undetected corruption*.

Determinism contract
--------------------

Fault draws are keyed by a counter-based RNG (splitmix64) on the
**absolute access index** ``access_base + i`` — not on any generator
state. Every backend (reference scalar loop, numpy scan) consumes the
same precomputed per-access draw array from :meth:`FaultModel.pending`,
and a :class:`~repro.engine.cursor.ShiftCursor` passes the running
access count as ``access_base`` per chunk, so faulted replay is
bit-identical across backends *and* across any chunking of the trace.
The model's scrub boundaries key on the same index. See
``docs/faults.md``.

A null model (effective rate 0 everywhere) is normalized away at
request construction: ``fault_rate=0`` runs the exact clean code path
and compares equal to a request with no model attached — the
zero-cost-when-off invariant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.errors import SimulationError

_MASK64 = (1 << 64) - 1

#: splitmix64 constants (Steele, Lea & Flood; public domain reference).
_SM_GAMMA = 0x9E3779B97F4A7C15
_SM_MUL1 = 0xBF58476D1CE4E5B9
_SM_MUL2 = 0x94D049BB133111EB


def _splitmix64(x: np.ndarray) -> np.ndarray:
    """Vectorized splitmix64 finalizer over a uint64 array (wraps mod 2^64)."""
    z = (x + np.uint64(_SM_GAMMA)).astype(np.uint64)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(_SM_MUL1)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(_SM_MUL2)
    return z ^ (z >> np.uint64(31))


@dataclass(frozen=True)
class FaultModel:
    """Seed-deterministic per-shift off-by-one fault model.

    Attributes
    ----------
    rate:
        Probability in ``[0, 1]`` that a track-moving shift overshoots
        or undershoots by one domain.
    seed:
        Stream selector for the counter-based RNG; two models with
        different seeds draw independent fault patterns.
    dbc_skew:
        Optional per-DBC rate multipliers, cycled over the DBC index
        (``effective_rate(d) = min(1, rate * dbc_skew[d % len])``) —
        models tracks with uneven shift reliability.
    scrub_interval:
        Optional scrubbing cadence S >= 1: after every access whose
        absolute index + 1 is a multiple of S, each drifted track is
        realigned and its ``|drift|`` charged as corrective shifts. A
        null model cannot carry one: it has no drift to correct.
    """

    rate: float
    seed: int = 0
    dbc_skew: tuple[float, ...] | None = None
    scrub_interval: int | None = None

    def __post_init__(self) -> None:
        rate = float(self.rate)
        if not math.isfinite(rate) or not 0.0 <= rate <= 1.0:
            raise SimulationError(
                f"fault rate must be a probability in [0, 1], got {self.rate!r}"
            )
        object.__setattr__(self, "rate", rate)
        object.__setattr__(self, "seed", int(self.seed))
        if self.dbc_skew is not None:
            skew = tuple(float(s) for s in self.dbc_skew)
            if not skew:
                raise SimulationError("dbc_skew must not be empty (use None)")
            if any(not math.isfinite(s) or s < 0 for s in skew):
                raise SimulationError(
                    f"dbc_skew entries must be finite and >= 0, got {skew}"
                )
            object.__setattr__(self, "dbc_skew", skew)
        if self.scrub_interval is not None:
            if self.is_null or int(self.scrub_interval) < 1:
                raise SimulationError(
                    "scrub_interval must be >= 1 on a model with a nonzero "
                    f"fault rate, got {self.scrub_interval} at rate {rate}"
                )
            object.__setattr__(self, "scrub_interval", int(self.scrub_interval))

    @property
    def is_null(self) -> bool:
        """True when no access can ever fault (effective rate 0 everywhere)."""
        if self.rate == 0.0:
            return True
        return self.dbc_skew is not None and max(self.dbc_skew) == 0.0

    def key_payload(self) -> list:
        """Canonical key content; cell keys hash ``scrub_interval`` after it."""
        skew = list(self.dbc_skew) if self.dbc_skew is not None else None
        return [self.rate, self.seed, skew]

    def pending(self, dbc: np.ndarray, access_base: int = 0) -> np.ndarray:
        """Per-access fault draws for accesses ``access_base + [0, n)``.

        Returns an int8 array: ``0`` no fault, ``+1`` overshoot, ``-1``
        undershoot (the sign is *relative to the shift direction*; a
        zero-delta access never faults regardless of its draw). A pure
        function of ``(seed, absolute index, dbc)`` — every backend
        consumes this one vectorized implementation, which is what makes
        cross-backend and cross-chunking bit-identity trivial.
        """
        n = int(np.asarray(dbc).size)
        if access_base < 0:
            raise SimulationError(
                f"access_base must be >= 0, got {access_base}"
            )
        if n == 0:
            return np.zeros(0, dtype=np.int8)
        key = _splitmix64(
            np.array([self.seed & _MASK64], dtype=np.uint64)
        )[0]
        idx = np.arange(access_base, access_base + n, dtype=np.uint64)
        z = _splitmix64(idx ^ key)
        u = (z >> np.uint64(11)).astype(np.float64) * (2.0 ** -53)
        if self.dbc_skew is None:
            threshold = self.rate
        else:
            skew = np.asarray(self.dbc_skew, dtype=np.float64)
            threshold = np.minimum(
                self.rate * skew[np.asarray(dbc) % skew.size], 1.0
            )
        direction = np.where(
            (z & np.uint64(1)).astype(bool), np.int8(1), np.int8(-1)
        )
        return np.where(u < threshold, direction, np.int8(0))


@dataclass(frozen=True, eq=False)
class FaultObservation:
    """What the faults did during one replay (or one accumulated cursor).

    ``final_drifts`` is the per-DBC physical-minus-believed offset at
    the end of the replay (all zero when it ends on a scrub boundary);
    ``scrubs`` counts the scrub boundaries the replay crossed and
    ``corrective_shifts`` the ``|drift|`` those scrubs charged. Both
    stay 0 for a model without a ``scrub_interval``.
    """

    injected: int
    misaligned: int
    final_drifts: np.ndarray
    corrupted: bool
    corrective_shifts: int = 0
    scrubs: int = 0

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FaultObservation):
            return NotImplemented
        return (
            self.injected == other.injected
            and self.misaligned == other.misaligned
            and self.corrupted == other.corrupted
            and self.corrective_shifts == other.corrective_shifts
            and self.scrubs == other.scrubs
            and np.array_equal(self.final_drifts, other.final_drifts)
        )


def drift_histogram(drifts: np.ndarray) -> tuple[tuple[int, int], ...]:
    """Sorted ``(drift, dbc_count)`` pairs over the nonzero per-DBC drifts."""
    drifts = np.asarray(drifts)
    values, counts = np.unique(drifts[drifts != 0], return_counts=True)
    return tuple((int(v), int(c)) for v, c in zip(values, counts))


def empty_observation(init_drifts: np.ndarray) -> FaultObservation:
    """The observation of a zero-access replay: carry-in passes through."""
    return FaultObservation(
        injected=0,
        misaligned=0,
        final_drifts=np.asarray(init_drifts, dtype=np.int64).copy(),
        corrupted=False,
    )


def observe_faults_sorted(
    model: FaultModel,
    *,
    dbc: np.ndarray,
    order: np.ndarray,
    delta: np.ndarray,
    offset_after: np.ndarray,
    run_first: np.ndarray,
    domains: int,
    access_base: int,
    init_drifts: np.ndarray,
) -> FaultObservation:
    """Vectorized fault post-pass over a clean replay's signed deltas.

    Inputs follow the numpy backend's run-sorted layout: ``dbc`` is in
    trace order, ``order`` the stable sort by DBC, ``delta``/
    ``offset_after`` the per-access signed believed-offset change and
    believed offset after the access (both in sorted order) and
    ``run_first`` marks each DBC run's first access. Because faults
    never feed back into the believed dynamics, the drift after an
    access is the prefix sum of the fault events of its *segment* — one
    DBC's accesses within one scrub window — plus the drift the segment
    starts with: the carried drift in the request's first window, zero
    after a scrub. One global ``cumsum`` with a per-segment base
    correction computes every drift. A model without a
    ``scrub_interval`` is one window, whose segments are the DBC runs.
    """
    n = order.size
    # Without an interval: one window, longer than the request.
    interval = model.scrub_interval or access_base + n + 1
    first_window = access_base // interval
    open_window = (access_base + n) // interval  # not scrubbed in here
    window = (order + access_base) // interval
    seg_first = run_first.copy()
    seg_first[1:] |= window[1:] != window[:-1]
    seg_idx = np.flatnonzero(seg_first)
    seg_last = np.append(seg_idx[1:] - 1, n - 1)
    seg_dbc = dbc[order[seg_idx]]
    seg_window = window[seg_idx]
    carried = np.where(seg_window == first_window, init_drifts[seg_dbc], 0)
    pending = model.pending(dbc, access_base)[order].astype(np.int64)
    events = pending * np.sign(delta)
    csum = np.cumsum(events)
    base = csum[seg_idx] - events[seg_idx] - carried
    drift_after = csum - base[np.cumsum(seg_first) - 1]
    open_seg = seg_window == open_window
    corrective = int(np.abs(drift_after[seg_last[~open_seg]]).sum())
    scrubs = open_window - first_window
    if scrubs:
        # The first scrub also realigns DBCs the first window never touched.
        corrective += int(np.abs(init_drifts).sum() - np.abs(carried).sum())
        final = np.zeros_like(init_drifts)
    else:
        final = init_drifts.copy()
    final[seg_dbc[open_seg]] = drift_after[seg_last[open_seg]]
    return FaultObservation(
        injected=int(np.count_nonzero(events)),
        misaligned=int(np.count_nonzero(drift_after)),
        final_drifts=final,
        corrupted=bool(
            np.any(np.abs(offset_after + drift_after) > domains - 1)
        ),
        corrective_shifts=corrective,
        scrubs=scrubs,
    )


__all__ = [
    "FaultModel",
    "FaultObservation",
    "empty_observation",
    "observe_faults_sorted",
]
