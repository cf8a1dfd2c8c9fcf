"""The shift engine: one kernel behind the simulator and the cost model.

Shift semantics used to live in three places — the per-access device
model, the controller's execute loop and the analytic cost model — and
keeping them consistent required parallel implementations "agreeing by
construction (tested)". This package is the consolidation: the scalar
semantics (:mod:`repro.engine.semantics`) define what a shift is, and
interchangeable *backends* execute whole batches of accesses:

* ``reference`` — the per-access Python loop, kept as the oracle;
* ``numpy``     — batched vectorized execution (the default), an order
  of magnitude faster on realistic traces.

Backends implement ``run(ShiftRequest) -> ShiftResult`` and are
guaranteed to produce identical counters (enforced by the cross-backend
differential oracle, which iterates :func:`available_backends` so new
backends inherit the coverage). Select one globally via the
``REPRO_BACKEND`` environment variable, per call site via the
``backend=`` parameters of :func:`repro.rtm.sim.simulate` and
:func:`repro.core.cost.shift_cost`, or per experiment via the profile's
``engine_backend``.

On top of the per-request backends, :mod:`repro.engine.batch` scores
whole *populations* of candidate placements (:func:`evaluate_batch`) —
the layer the search-based placement algorithms are built on.
"""

from __future__ import annotations

import os

from repro.engine.batch import evaluate_batch, stack_candidate_arrays
from repro.engine.compile import (
    ArenaSpec,
    SharedTraceArena,
    clear_compile_caches,
    compile_access_arrays,
    trace_fingerprint,
    try_create_arena,
)
from repro.engine.cursor import ShiftCursor
from repro.engine.faults import FaultModel, FaultObservation
from repro.engine.numpy_backend import NumpyBackend
from repro.engine.reference import ReferenceBackend
from repro.engine.semantics import port_positions, select_port, step
from repro.engine.types import ShiftRequest, ShiftResult
from repro.errors import SimulationError

#: Registry of interchangeable backends (stateless, shared instances).
_BACKENDS = {
    ReferenceBackend.name: ReferenceBackend(),
    NumpyBackend.name: NumpyBackend(),
}

DEFAULT_BACKEND = NumpyBackend.name

_BACKEND_NOTES = {
    ReferenceBackend.name: "per-access Python oracle",
    NumpyBackend.name: "vectorized monoid-scan replay (default)",
}


def available_backends() -> tuple[str, ...]:
    """Names of the registered engine backends."""
    return tuple(sorted(_BACKENDS))


def describe_backends() -> tuple[tuple[str, str], ...]:
    """``(name, note)`` rows for every registered backend."""
    return tuple((name, _BACKEND_NOTES[name]) for name in available_backends())


def resolve_backend_name(backend: object) -> str:
    """The registered name of ``backend``, given as a name or an instance.

    Names are matched with surrounding blanks stripped and in any case
    (``" NumPy "`` is ``numpy``). Raises for anything the registry does
    not hold. The matrix runner keys and ships cells by this name — an
    instance's repr embeds a memory address no other process shares —
    and resolves it in the parent, so an unknown backend fails fast, not
    inside a pool worker.
    """
    if isinstance(backend, str):
        name = backend.strip().lower()
    else:
        name = getattr(backend, "name", None)
    if name in _BACKENDS:
        return name
    raise SimulationError(
        f"unknown engine backend {backend!r}; "
        f"available: {', '.join(available_backends())}"
    )


def get_backend(backend: object = None):
    """Resolve a backend from a name, an instance, or the environment.

    ``None`` resolves to the ``REPRO_BACKEND`` environment variable and
    falls back to the numpy backend; a string is looked up in the
    registry (spelled as :func:`resolve_backend_name` accepts it);
    anything exposing a callable ``run`` is returned unchanged.
    """
    if backend is None:
        backend = os.environ.get("REPRO_BACKEND") or DEFAULT_BACKEND
    if isinstance(backend, str):
        return _BACKENDS[resolve_backend_name(backend)]
    run = getattr(backend, "run", None)
    if callable(run):
        return backend
    raise SimulationError(
        f"expected a backend name or instance, got {type(backend).__name__}"
        + ("" if run is None else " with a non-callable 'run' attribute")
    )


__all__ = [
    "ArenaSpec",
    "DEFAULT_BACKEND",
    "FaultModel",
    "FaultObservation",
    "NumpyBackend",
    "ReferenceBackend",
    "SharedTraceArena",
    "ShiftCursor",
    "ShiftRequest",
    "ShiftResult",
    "available_backends",
    "clear_compile_caches",
    "compile_access_arrays",
    "describe_backends",
    "evaluate_batch",
    "get_backend",
    "port_positions",
    "resolve_backend_name",
    "select_port",
    "stack_candidate_arrays",
    "step",
    "trace_fingerprint",
    "try_create_arena",
]
