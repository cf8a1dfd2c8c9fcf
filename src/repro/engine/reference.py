"""Per-access Python reference backend.

The oracle implementation: one :func:`repro.engine.semantics.step` per
access, in trace order, exactly as a cycle-by-cycle controller would
issue them. It is deliberately unoptimized — its job is to pin down the
semantics the vectorized backend must reproduce, and to stay readable
enough to audit against the paper.
"""

from __future__ import annotations

import numpy as np

from repro.engine.faults import FaultObservation
from repro.engine.semantics import port_positions, step
from repro.engine.types import ShiftRequest, ShiftResult


class ReferenceBackend:
    """Executes requests with a per-access Python loop (the oracle)."""

    name = "reference"

    def run(self, request: ShiftRequest) -> ShiftResult:
        init_offsets, init_aligned = request.resolved_init()
        positions = port_positions(request.domains, request.ports)
        offsets = init_offsets.tolist()
        aligned = init_aligned.tolist()
        per_dbc = [0] * request.num_dbcs
        if request.fault is not None:
            return self._run_faulted(
                request, positions, offsets, aligned, per_dbc
            )
        for d, s in zip(request.dbc.tolist(), request.slot.tolist()):
            offsets[d], cost = step(
                positions, request.domains, offsets[d], aligned[d], s,
                request.warm_start,
            )
            aligned[d] = True
            per_dbc[d] += cost
        return ShiftResult(
            accesses=request.accesses,
            shifts=sum(per_dbc),
            per_dbc_shifts=tuple(per_dbc),
            final_offsets=np.asarray(offsets, dtype=np.int64),
            final_aligned=np.asarray(aligned, dtype=bool),
        )

    def _run_faulted(self, request, positions, offsets, aligned, per_dbc):
        """Same per-access loop, plus the per-DBC drift a fault evolves.

        The believed dynamics (offsets, charged shifts) are untouched:
        a fault only moves the physical track one extra/one fewer
        domain in the shift direction, tracked as ``drift = physical -
        believed``. An access that charges no shifts (zero delta, or a
        warm-start free first alignment) cannot fault. After an access
        whose absolute index + 1 is a multiple of the model's
        ``scrub_interval``, every drift is charged and reset.
        """
        pending = request.fault.pending(
            request.dbc, request.access_base
        ).tolist()
        interval = request.fault.scrub_interval
        drifts = request.resolved_init_drifts().tolist()
        injected = 0
        misaligned = 0
        corrupted = False
        corrective = 0
        scrubs = 0
        envelope = request.domains - 1
        for i, (d, s) in enumerate(
            zip(request.dbc.tolist(), request.slot.tolist())
        ):
            was_aligned = aligned[d]
            old = offsets[d]
            offsets[d], cost = step(
                positions, request.domains, old, was_aligned, s,
                request.warm_start,
            )
            aligned[d] = True
            per_dbc[d] += cost
            delta = offsets[d] - old
            shifted = delta != 0 and (was_aligned or not request.warm_start)
            if shifted and pending[i] != 0:
                drifts[d] += pending[i] if delta > 0 else -pending[i]
                injected += 1
            if drifts[d] != 0:
                misaligned += 1
                if abs(offsets[d] + drifts[d]) > envelope:
                    corrupted = True
            if interval and (request.access_base + i + 1) % interval == 0:
                corrective += sum(abs(x) for x in drifts)
                drifts = [0] * request.num_dbcs
                scrubs += 1
        return ShiftResult(
            accesses=request.accesses,
            shifts=sum(per_dbc),
            per_dbc_shifts=tuple(per_dbc),
            final_offsets=np.asarray(offsets, dtype=np.int64),
            final_aligned=np.asarray(aligned, dtype=bool),
            faults=FaultObservation(
                injected=injected,
                misaligned=misaligned,
                final_drifts=np.asarray(drifts, dtype=np.int64),
                corrupted=corrupted,
                corrective_shifts=corrective,
                scrubs=scrubs,
            ),
        )
