"""Cross-backend differential oracle.

Every registered backend must produce bit-identical ``ShiftResult``s to
the per-access reference backend — counters *and* final state — over a
randomized matrix of traces, port counts, warm/cold starts and
:class:`ShiftCursor` chunk sizes. The parametrization iterates
``available_backends()``, so a newly registered backend inherits the
whole matrix for free.
"""

import numpy as np
import pytest

from repro.engine import (
    FaultModel,
    ShiftCursor,
    ShiftRequest,
    available_backends,
    get_backend,
)
from repro.engine.reference import ReferenceBackend

PORTS = (1, 2, 4, 8)
CHUNK_SIZES = (1, 7, 4096)

#: Fault configurations the oracle matrix sweeps: clean, the rate-0
#: model (must normalize to the clean path), light and heavy uniform
#: rates, a per-DBC skew including a fault-immune DBC, and scrubbing
#: every access, at an interval prime to the chunk sizes and at a long
#: interval.
FAULT_MODELS = (
    None,
    FaultModel(rate=0.0, seed=3),
    FaultModel(rate=0.01, seed=3),
    FaultModel(rate=0.1, seed=3),
    FaultModel(rate=0.05, seed=9, dbc_skew=(0.5, 2.0, 0.0)),
    FaultModel(rate=0.1, seed=3, scrub_interval=1),
    FaultModel(rate=0.05, seed=9, dbc_skew=(0.5, 2.0, 0.0), scrub_interval=7),
    FaultModel(rate=0.1, seed=3, scrub_interval=64),
)


def _fault_id(model):
    if model is None:
        return "clean"
    skew = "+skew" if model.dbc_skew is not None else ""
    scrub = f"+scrub{model.scrub_interval}" if model.scrub_interval else ""
    return f"rate{model.rate:g}{skew}{scrub}"


@pytest.fixture(params=available_backends())
def backend(request):
    return get_backend(request.param)


def random_request(seed: int, ports: int, warm_start: bool,
                   accesses: int = 500, num_dbcs: int = 6,
                   domains: int = 64) -> ShiftRequest:
    rng = np.random.default_rng(seed)
    return ShiftRequest(
        dbc=rng.integers(0, num_dbcs, accesses),
        slot=rng.integers(0, domains, accesses),
        num_dbcs=num_dbcs,
        domains=domains,
        ports=ports,
        warm_start=warm_start,
    )


@pytest.mark.parametrize("ports", PORTS)
@pytest.mark.parametrize("warm_start", [True, False])
def test_monolithic_replay_matches_reference(backend, ports, warm_start):
    oracle = ReferenceBackend()
    for seed in range(3):
        request = random_request(seed, ports, warm_start)
        assert backend.run(request) == oracle.run(request)


@pytest.mark.parametrize("warm_start", [True, False])
def test_carry_in_matches_reference(backend, warm_start):
    oracle = ReferenceBackend()
    rng = np.random.default_rng(23)
    request = random_request(23, 2, warm_start)
    seeded = ShiftRequest(
        dbc=request.dbc, slot=request.slot, num_dbcs=request.num_dbcs,
        domains=request.domains, ports=2, warm_start=warm_start,
        init_offsets=rng.integers(0, request.domains, request.num_dbcs),
        init_aligned=rng.integers(0, 2, request.num_dbcs).astype(bool),
    )
    assert backend.run(seeded) == oracle.run(seeded)


@pytest.mark.parametrize("chunk", CHUNK_SIZES)
@pytest.mark.parametrize("warm_start", [True, False])
def test_cursor_chunk_size_invariance(backend, chunk, warm_start):
    """Chunked replay == monolithic replay, for any chunk size."""
    request = random_request(42, 4, warm_start, accesses=600)
    monolithic = backend.run(request)
    cursor = ShiftCursor(
        num_dbcs=request.num_dbcs, domains=request.domains, ports=4,
        warm_start=warm_start, backend=backend,
    )
    for start in range(0, request.accesses, chunk):
        cursor.replay_chunk(request.dbc[start:start + chunk],
                            request.slot[start:start + chunk])
    accumulated = cursor.result()
    assert accumulated.shifts == monolithic.shifts
    assert accumulated.per_dbc_shifts == monolithic.per_dbc_shifts
    assert np.array_equal(accumulated.final_offsets,
                          monolithic.final_offsets)
    assert np.array_equal(accumulated.final_aligned,
                          monolithic.final_aligned)


@pytest.mark.parametrize("fault", FAULT_MODELS, ids=_fault_id)
@pytest.mark.parametrize("ports", PORTS)
def test_faulted_replay_matches_reference(backend, ports, fault):
    """Fault draws are backend-independent: bit-identical observations.

    ``ShiftResult.__eq__`` covers the attached ``FaultObservation``
    (injected/misaligned counters, final drifts, corruption flag), so
    one ``==`` pins the whole faulted result, counters and state alike.
    """
    oracle = ReferenceBackend()
    for seed in range(2):
        base = random_request(seed, ports, True)
        request = ShiftRequest(
            dbc=base.dbc, slot=base.slot, num_dbcs=base.num_dbcs,
            domains=base.domains, ports=ports, warm_start=True,
            fault=fault,
        )
        assert backend.run(request) == oracle.run(request)


@pytest.mark.parametrize(
    "fault", [m for m in FAULT_MODELS if m is not None and not m.is_null],
    ids=_fault_id,
)
@pytest.mark.parametrize("carried", [False, True], ids=["fresh", "carried"])
@pytest.mark.parametrize("warm_start", [True, False], ids=["warm", "cold"])
@pytest.mark.parametrize("ports", (1, 3, 8))
def test_faulted_start_state_matches_reference(
    backend, ports, warm_start, carried, fault
):
    """Faulted replay from every kind of starting state.

    A cold start charges each DBC's first alignment, so a run's first
    offset change may itself fault; carried offsets, alignment and drift
    decide where each run starts and which first alignments are free.
    Many DBCs give many runs, so many first offset changes to fault.
    """
    oracle = ReferenceBackend()
    for seed in range(2):
        base = random_request(seed, ports, warm_start, num_dbcs=32)
        rng = np.random.default_rng(100 + seed)
        start = {}
        if carried:
            start = dict(
                init_offsets=rng.integers(
                    -(base.domains - 1), base.domains, base.num_dbcs
                ),
                init_aligned=rng.integers(0, 2, base.num_dbcs).astype(bool),
                init_drifts=rng.integers(-2, 3, base.num_dbcs),
                access_base=int(rng.integers(0, 10_000)),
            )
        request = ShiftRequest(
            dbc=base.dbc, slot=base.slot, num_dbcs=base.num_dbcs,
            domains=base.domains, ports=ports, warm_start=warm_start,
            fault=fault, **start,
        )
        assert backend.run(request) == oracle.run(request)


@pytest.mark.parametrize("fault", [m for m in FAULT_MODELS if m is not None],
                         ids=_fault_id)
@pytest.mark.parametrize("chunk", CHUNK_SIZES)
def test_faulted_cursor_chunk_size_invariance(backend, chunk, fault):
    """Fault draws key on the absolute access index, so any chunking of
    the same trace sees the same faults as one monolithic replay."""
    base = random_request(42, 4, True, accesses=600)
    request = ShiftRequest(
        dbc=base.dbc, slot=base.slot, num_dbcs=base.num_dbcs,
        domains=base.domains, ports=4, warm_start=True, fault=fault,
    )
    monolithic = backend.run(request)
    cursor = ShiftCursor(
        num_dbcs=request.num_dbcs, domains=request.domains, ports=4,
        warm_start=True, backend=backend, fault=fault,
    )
    for start in range(0, request.accesses, chunk):
        cursor.replay_chunk(request.dbc[start:start + chunk],
                            request.slot[start:start + chunk])
    accumulated = cursor.result()
    assert accumulated == monolithic
    if fault.is_null:
        assert accumulated.faults is None
    else:
        assert accumulated.faults is not None
        assert cursor.fault_injected == monolithic.faults.injected
        assert cursor.fault_misaligned == monolithic.faults.misaligned
        assert np.array_equal(cursor.drifts, monolithic.faults.final_drifts)
        assert cursor.scrub_shifts == monolithic.faults.corrective_shifts
        assert cursor.scrub_events == monolithic.faults.scrubs
        if fault.scrub_interval:
            assert cursor.scrub_events == request.accesses // fault.scrub_interval
            assert cursor.scrub_shifts > 0


def test_rate_zero_model_is_clean_path(backend):
    """A rate-0 model normalizes away: the request IS the clean request."""
    base = random_request(7, 2, True)
    clean = ShiftRequest(
        dbc=base.dbc, slot=base.slot, num_dbcs=base.num_dbcs,
        domains=base.domains, ports=2, warm_start=True,
    )
    zeroed = ShiftRequest(
        dbc=base.dbc, slot=base.slot, num_dbcs=base.num_dbcs,
        domains=base.domains, ports=2, warm_start=True,
        fault=FaultModel(rate=0.0, seed=123),
    )
    assert zeroed.fault is None
    result = backend.run(zeroed)
    assert result == backend.run(clean)
    assert result.faults is None


def test_empty_chunk_is_identity(backend):
    request = random_request(5, 2, True, accesses=50)
    before = backend.run(request)
    empty = np.array([], dtype=np.int64)
    resumed = ShiftRequest(
        dbc=empty, slot=empty, num_dbcs=request.num_dbcs,
        domains=request.domains, ports=2,
        init_offsets=np.asarray(before.final_offsets),
        init_aligned=np.asarray(before.final_aligned),
    )
    after = backend.run(resumed)
    assert after.shifts == 0
    assert np.array_equal(after.final_offsets, before.final_offsets)
    assert np.array_equal(after.final_aligned, before.final_aligned)
