"""Chunk-size invariance of the :class:`ShiftCursor`.

The cursor's contract: replaying a trace chunk by chunk — any chunk
size, either backend, any port count, cold or warm start — accumulates
bit-identical counters and final device state to one monolithic run of
the whole trace. This is what makes streamed replay a pure residency
change rather than a semantic one.
"""

import numpy as np
import pytest

from repro.engine import (
    ShiftCursor,
    ShiftRequest,
    available_backends,
    get_backend,
)
from repro.errors import SimulationError

N = 240
NUM_DBCS = 4
DOMAINS = 64


def random_accesses(seed=3, n=N):
    rng = np.random.default_rng(seed)
    return rng.integers(0, NUM_DBCS, n), rng.integers(0, DOMAINS, n)


def monolithic(dbc, slot, backend, ports, warm_start, **init):
    return get_backend(backend).run(ShiftRequest(
        dbc=dbc, slot=slot, num_dbcs=NUM_DBCS, domains=DOMAINS,
        ports=ports, warm_start=warm_start, **init,
    ))


def assert_same(cursor_result, mono):
    assert cursor_result.accesses == mono.accesses
    assert cursor_result.shifts == mono.shifts
    assert cursor_result.per_dbc_shifts == mono.per_dbc_shifts
    assert np.array_equal(cursor_result.final_offsets, mono.final_offsets)
    assert np.array_equal(cursor_result.final_aligned, mono.final_aligned)


class TestChunkInvariance:
    @pytest.mark.parametrize("backend", ["reference", "numpy"])
    @pytest.mark.parametrize("ports", [1, 2, 4, 8])
    @pytest.mark.parametrize("warm_start", [True, False])
    @pytest.mark.parametrize("chunk", [1, 7, 128, N])
    def test_matches_monolithic(self, backend, ports, warm_start, chunk):
        dbc, slot = random_accesses()
        mono = monolithic(dbc, slot, backend, ports, warm_start)
        cursor = ShiftCursor(NUM_DBCS, DOMAINS, ports=ports,
                             warm_start=warm_start, backend=backend)
        for start in range(0, N, chunk):
            cursor.replay_chunk(dbc[start:start + chunk],
                                slot[start:start + chunk])
        assert_same(cursor.result(), mono)
        assert cursor.accesses == N
        assert cursor.shifts == mono.shifts

    @pytest.mark.parametrize("backend", ["reference", "numpy"])
    @pytest.mark.parametrize("chunk", [1, 7, 128])
    def test_carried_init_state(self, backend, chunk):
        """A seeded cursor equals a monolithic run with the same carry."""
        dbc, slot = random_accesses(seed=9)
        rng = np.random.default_rng(4)
        init = dict(
            init_offsets=rng.integers(0, DOMAINS, NUM_DBCS),
            init_aligned=rng.random(NUM_DBCS) < 0.5,
        )
        mono = monolithic(dbc, slot, backend, 2, True, **init)
        cursor = ShiftCursor(NUM_DBCS, DOMAINS, ports=2, backend=backend,
                             **init)
        for start in range(0, N, chunk):
            cursor.replay_chunk(dbc[start:start + chunk],
                                slot[start:start + chunk])
        assert_same(cursor.result(), mono)

    def test_warm_start_composes_across_chunks(self):
        """A DBC first touched in a later chunk still aligns for free."""
        # DBC 0 is touched in chunk one, DBC 1 only in chunk two.
        dbc = np.array([0, 0, 1, 1])
        slot = np.array([5, 9, 7, 2])
        mono = monolithic(dbc, slot, "numpy", 1, True)
        cursor = ShiftCursor(NUM_DBCS, DOMAINS, ports=1, warm_start=True)
        cursor.replay_chunk(dbc[:2], slot[:2])
        cursor.replay_chunk(dbc[2:], slot[2:])
        assert_same(cursor.result(), mono)


class TestCursorApi:
    def test_chunk_result_is_chunk_local(self):
        dbc, slot = random_accesses(seed=5, n=20)
        cursor = ShiftCursor(NUM_DBCS, DOMAINS)
        first = cursor.replay_chunk(dbc[:10], slot[:10])
        second = cursor.replay_chunk(dbc[10:], slot[10:])
        assert first.accesses == second.accesses == 10
        assert cursor.shifts == first.shifts + second.shifts

    def test_fork_continues_state_with_zeroed_counters(self):
        dbc, slot = random_accesses(seed=5, n=20)
        whole = ShiftCursor(NUM_DBCS, DOMAINS)
        whole.replay_chunk(dbc[:10], slot[:10])
        fork = whole.fork()
        assert fork.accesses == fork.shifts == 0
        assert fork.access_base == 10
        second = fork.replay_chunk(dbc[10:], slot[10:])
        assert fork.shifts == second.shifts
        assert fork.per_dbc_shifts.tolist() == list(second.per_dbc_shifts)
        whole.replay_chunk(dbc[10:], slot[10:])
        assert np.array_equal(fork.offsets, whole.offsets)
        assert np.array_equal(fork.aligned, whole.aligned)

    def test_empty_chunk_is_a_noop(self):
        cursor = ShiftCursor(NUM_DBCS, DOMAINS)
        empty = np.empty(0, dtype=np.int64)
        cursor.replay_chunk(empty, empty)
        assert cursor.accesses == 0 and cursor.shifts == 0

    @pytest.mark.parametrize("backend", available_backends())
    def test_accepts_backend_instance(self, backend):
        instance = get_backend(backend)
        dbc, slot = random_accesses(seed=29, n=N)
        cursor = ShiftCursor(NUM_DBCS, DOMAINS, ports=4, backend=instance)
        for start in range(0, N, 100):
            cursor.replay_chunk(dbc[start:start + 100],
                                slot[start:start + 100])
        assert_same(cursor.result(), monolithic(dbc, slot, instance, 4, True))

    @pytest.mark.parametrize("name", ["auto", "numba"])
    def test_removed_backend_names_rejected(self, name):
        with pytest.raises(SimulationError, match="unknown engine backend"):
            ShiftCursor(NUM_DBCS, DOMAINS, backend=name)
