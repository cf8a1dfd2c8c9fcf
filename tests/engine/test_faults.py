"""Unit tests for the deterministic fault-injection layer.

The cross-backend bit-identity matrix lives in
``test_backend_oracle.py``; here the :class:`FaultModel` itself is
pinned — validation, the counter-RNG determinism contract, null
normalization, drift/corruption semantics and scrubbing.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.engine import FaultModel, ShiftRequest, get_backend
from repro.errors import SimulationError


def _request(fault=None, init_drifts=None, accesses=200, num_dbcs=4,
             domains=32, seed=0, **kwargs):
    rng = np.random.default_rng(seed)
    return ShiftRequest(
        dbc=rng.integers(0, num_dbcs, accesses),
        slot=rng.integers(0, domains, accesses),
        num_dbcs=num_dbcs,
        domains=domains,
        fault=fault,
        init_drifts=init_drifts,
        **kwargs,
    )


# -- model validation --------------------------------------------------------

@pytest.mark.parametrize("rate", [-0.1, 1.5, float("nan"), float("inf")])
def test_invalid_rate_rejected(rate):
    with pytest.raises(SimulationError, match="probability"):
        FaultModel(rate=rate)


def test_invalid_skew_rejected():
    with pytest.raises(SimulationError, match="empty"):
        FaultModel(rate=0.1, dbc_skew=())
    with pytest.raises(SimulationError, match="finite"):
        FaultModel(rate=0.1, dbc_skew=(1.0, -2.0))
    with pytest.raises(SimulationError, match="finite"):
        FaultModel(rate=0.1, dbc_skew=(float("nan"),))


@pytest.mark.parametrize("kwargs", [
    {"rate": 0.0, "scrub_interval": 5},
    {"rate": 0.5, "dbc_skew": (0.0,), "scrub_interval": 5},
    {"rate": 0.1, "scrub_interval": 0},
], ids=["null-model", "null-skew", "zero-interval"])
def test_invalid_scrub_interval_rejected(kwargs):
    with pytest.raises(SimulationError, match="scrub_interval"):
        FaultModel(**kwargs)


def test_is_null():
    assert FaultModel(rate=0.0).is_null
    assert FaultModel(rate=0.5, dbc_skew=(0.0, 0.0)).is_null
    assert not FaultModel(rate=0.5).is_null
    assert not FaultModel(rate=0.5, dbc_skew=(0.0, 1.0)).is_null


def test_key_payload_is_canonical():
    assert FaultModel(rate=0.25, seed=3).key_payload() == [0.25, 3, None]
    assert FaultModel(rate=0.25, seed=3, dbc_skew=(1, 2)).key_payload() == \
        [0.25, 3, [1.0, 2.0]]


# -- counter-RNG determinism -------------------------------------------------

def test_pending_is_deterministic_and_chunk_splittable():
    model = FaultModel(rate=0.3, seed=11)
    dbc = np.zeros(1000, dtype=np.int64)
    whole = model.pending(dbc, 0)
    assert np.array_equal(whole, model.pending(dbc, 0))
    # Any split at the same absolute indices reproduces the same draws.
    for cut in (1, 137, 999):
        parts = np.concatenate(
            [model.pending(dbc[:cut], 0), model.pending(dbc[cut:], cut)]
        )
        assert np.array_equal(parts, whole)


def test_pending_depends_on_seed():
    dbc = np.zeros(500, dtype=np.int64)
    a = FaultModel(rate=0.3, seed=1).pending(dbc)
    b = FaultModel(rate=0.3, seed=2).pending(dbc)
    assert not np.array_equal(a, b)


def test_pending_rate_is_roughly_honored():
    model = FaultModel(rate=0.25, seed=5)
    draws = model.pending(np.zeros(20_000, dtype=np.int64))
    frac = np.count_nonzero(draws) / draws.size
    assert 0.22 < frac < 0.28
    assert set(np.unique(draws)) <= {-1, 0, 1}


def test_pending_skew_immunizes_zero_dbcs():
    model = FaultModel(rate=0.5, seed=7, dbc_skew=(0.0, 2.0))
    dbc = np.arange(1000, dtype=np.int64) % 4  # DBCs 0 and 2 hit skew 0.0
    draws = model.pending(dbc)
    assert not np.any(draws[dbc % 2 == 0])
    assert np.any(draws[dbc % 2 == 1])


def test_pending_rejects_negative_base_and_handles_empty():
    model = FaultModel(rate=0.1)
    with pytest.raises(SimulationError, match="access_base"):
        model.pending(np.zeros(3, dtype=np.int64), -1)
    assert model.pending(np.zeros(0, dtype=np.int64)).size == 0


# -- request normalization ---------------------------------------------------

def test_null_model_normalized_away():
    assert _request(fault=FaultModel(rate=0.0, seed=9)).fault is None
    assert _request(
        fault=FaultModel(rate=0.4, dbc_skew=(0.0,))
    ).fault is None


def test_init_drifts_require_a_fault_model():
    with pytest.raises(SimulationError, match="fault"):
        _request(init_drifts=np.array([1, 0, 0, 0]))
    # All-zero drifts carry no information: allowed and normalized away.
    assert _request(init_drifts=np.zeros(4, dtype=np.int64)).init_drifts is None


# -- drift and corruption semantics ------------------------------------------

def test_drift_carry_in_is_respected():
    """Seeded drifts flow into misalignment counting and final drifts."""
    backend = get_backend("reference")
    fault = FaultModel(rate=0.0001, seed=1)  # effectively never fires
    drifted = _request(fault=fault,
                       init_drifts=np.array([2, 0, 0, 0]), accesses=50)
    result = backend.run(drifted)
    # DBC 0 stays drifted for its whole run: every DBC-0 access misaligned.
    dbc0_accesses = int(np.count_nonzero(np.asarray(drifted.dbc) == 0))
    assert result.faults.misaligned >= dbc0_accesses
    assert result.faults.final_drifts[0] == 2


def test_huge_drift_flags_corruption():
    backend = get_backend("numpy")
    request = _request(fault=FaultModel(rate=0.0001, seed=1),
                       init_drifts=np.array([64, 0, 0, 0]),
                       domains=32, accesses=50)
    assert backend.run(request).faults.corrupted


def test_drift_histogram():
    from repro.engine.faults import drift_histogram

    assert drift_histogram(np.array([2, 0, -1, 2])) == ((-1, 1), (2, 2))
    assert drift_histogram(np.zeros(3, dtype=np.int64)) == ()


# -- scrubbing ----------------------------------------------------------------

#: A worked request: 12 accesses from absolute index 3, scrubbed every 5,
#: so scrubs fall after request accesses 1, 6 and 11. DBC 1 carries drift
#: in but is first touched after the first scrub.
SCRUB_DBC = np.array([0, 0, 1, 2, 1, 0, 2, 1, 1, 0, 2, 2])
SCRUB_SLOT = np.array([3, 9, 1, 7, 12, 0, 2, 5, 14, 6, 11, 4])
SCRUB_INIT = np.array([2, -1, 0])


@pytest.mark.parametrize("backend", ["reference", "numpy"])
@pytest.mark.parametrize("accesses,windows", [
    (12, ((0, 2), (2, 7), (7, 12))),   # ends on a scrub boundary
    (10, ((0, 2), (2, 7), (7, 10))),   # ends inside an open window
], ids=["on-boundary", "open-window"])
def test_scrubs_charge_each_window_drift(backend, accesses, windows):
    """Each scrub charges the |drift| an unscrubbed replay of its window
    leaves on every DBC, then the next window starts realigned."""
    engine = get_backend(backend)
    model = FaultModel(rate=0.5, seed=26)
    common = dict(num_dbcs=3, domains=16, warm_start=False)
    offsets = aligned = None
    drifts = SCRUB_INIT
    charges = []
    pieces = []
    for lo, hi in windows:
        piece = engine.run(ShiftRequest(
            dbc=SCRUB_DBC[lo:hi], slot=SCRUB_SLOT[lo:hi], fault=model,
            access_base=3 + lo, init_offsets=offsets, init_aligned=aligned,
            init_drifts=drifts, **common,
        ))
        pieces.append(piece)
        charges.append(int(np.abs(piece.faults.final_drifts).sum()))
        offsets, aligned = piece.final_offsets, piece.final_aligned
        drifts = np.zeros(3, dtype=np.int64)
    closed = [(3 + hi) % 5 == 0 for _lo, hi in windows]
    scrubbed = engine.run(ShiftRequest(
        dbc=SCRUB_DBC[:accesses], slot=SCRUB_SLOT[:accesses],
        fault=replace(model, scrub_interval=5), access_base=3,
        init_drifts=SCRUB_INIT, **common,
    )).faults
    assert charges[0] > 0 and sum(charges) > charges[0]
    assert scrubbed.scrubs == sum(closed)
    assert scrubbed.corrective_shifts == sum(
        c for c, done in zip(charges, closed) if done
    )
    assert scrubbed.injected == sum(p.faults.injected for p in pieces)
    assert scrubbed.misaligned == sum(p.faults.misaligned for p in pieces)
    expected_final = (np.zeros(3, dtype=np.int64) if closed[-1]
                      else pieces[-1].faults.final_drifts)
    assert np.array_equal(scrubbed.final_drifts, expected_final)
