"""Bit-identity of the multi-port replay scans vs the oracle.

Multi-port replay runs one blocked scan per map representation at every
trace length: packed maps (``p**p <= 256``, here 3 and 4 ports) through
the table-composed scan, wider ports through ``_scan_collapse`` over
``(const, rows)`` map pairs, whose prefix states collapse to scalars at
the first constant map. The in-block length is
``min(_SCAN_BLOCK, ceil(sqrt(n)))``, so these tests pin lengths either
side of each block-size step, partial and spilling last blocks, and the
degenerate all-constant / constant-free map streams against the
per-access reference backend, together with the cached geometry tables
both scans read and the rule bounding them by the request.
"""

import numpy as np
import pytest

from repro.engine import ShiftRequest, get_backend
from repro.engine.numpy_backend import (
    _SCAN_BLOCK,
    _block_length,
    _gap_maps,
    _scan_collapse,
    _transition_tables,
    boundaries_array,
    positions_array,
)

REFERENCE = get_backend("reference")
NUMPY = get_backend("numpy")

SCAN_PORTS = [3, 5, 8]  # packed table at 3, constant collapse at 5 and 8

#: ``ceil(sqrt(n))`` steps up by one from ``k**2`` to ``k**2 + 1``; from
#: ``127**2 + 1`` on the block is the full ``_SCAN_BLOCK``.
BLOCK_STEP_LENGTHS = [
    n for k in (1, 2, 3, 7, 11, 64) for n in (k * k, k * k + 1)
] + [127 ** 2, 127 ** 2 + 1, 128 ** 2 + 1]


def assert_equivalent(request: ShiftRequest) -> None:
    ref = REFERENCE.run(request)
    vec = NUMPY.run(request)
    assert vec.shifts == ref.shifts
    assert vec.per_dbc_shifts == ref.per_dbc_shifts
    assert np.array_equal(vec.final_offsets, ref.final_offsets)


def request_for(slots, ports, dbcs=4, domains=128, seed=0, warm=True):
    rng = np.random.default_rng(seed)
    slots = np.asarray(slots, dtype=np.int64)
    return ShiftRequest(
        dbc=rng.integers(0, dbcs, slots.size),
        slot=slots,
        num_dbcs=dbcs,
        domains=domains,
        ports=ports,
        warm_start=warm,
    )


class TestBlockRule:
    """One scan per representation, its block sized from the input."""

    def test_block_length_steps(self):
        for k in range(1, _SCAN_BLOCK):
            assert _block_length(k * k) == k
            assert _block_length(k * k + 1) == k + 1
        assert _block_length(_SCAN_BLOCK ** 2 + 1) == _SCAN_BLOCK

    @pytest.mark.parametrize("warm", [True, False])
    @pytest.mark.parametrize("ports", [3, 4, 5, 8])
    @pytest.mark.parametrize("n", BLOCK_STEP_LENGTHS)
    def test_lengths_either_side_of_block_steps(self, n, ports, warm):
        # Carried head state; 64 domains keep most wide-port maps
        # non-constant, so constant-free blocks and their repair occur.
        rng = np.random.default_rng(n * 13 + ports)
        req = ShiftRequest(
            dbc=rng.integers(0, 3, n), slot=rng.integers(0, 64, n),
            num_dbcs=3, domains=64, ports=ports, warm_start=warm,
            init_offsets=rng.integers(-20, 21, 3),
            init_aligned=rng.integers(0, 2, 3).astype(bool),
        )
        assert NUMPY.run(req) == REFERENCE.run(req)


class TestScanPathDispatch:
    """Random traces, short and long, for each map representation."""

    @pytest.mark.parametrize("ports", SCAN_PORTS)
    @pytest.mark.parametrize("n", [1, 2, 64 ** 2, 64 ** 2 + 1, 12288])
    def test_random_traces(self, ports, n):
        rng = np.random.default_rng(n * 31 + ports)
        slots = rng.integers(0, 128, n)
        assert_equivalent(request_for(slots, ports, seed=n + ports))

    @pytest.mark.parametrize("ports", SCAN_PORTS)
    @pytest.mark.parametrize("warm", [True, False])
    def test_cold_and_warm_full_blocks(self, ports, warm):
        # A full-length block (n > 127**2) with a partial last block.
        rng = np.random.default_rng(5 + ports)
        slots = rng.integers(0, 64, 127 ** 2 + 500)
        assert_equivalent(
            request_for(slots, ports, domains=64, seed=ports, warm=warm)
        )

    @pytest.mark.parametrize("ports", SCAN_PORTS)
    def test_huge_track_maps_request_gaps(self, ports):
        # A few thousand accesses on a 200,000-domain track: shorter
        # than its 399,999 gaps, so the request maps its own gaps.
        rng = np.random.default_rng(17 + ports)
        slots = rng.integers(0, 200_000, 66 ** 2 + 1)
        assert_equivalent(
            request_for(slots, ports, domains=200_000, seed=ports)
        )

    @pytest.mark.parametrize("ports", [2, 4, 8])
    def test_full_blocks_with_carried_state(self, ports):
        # Full-length blocks at each scan: the forward fill at 2 ports,
        # the packed table at 4, constant collapse at 8; cold start and
        # carried head state.
        rng = np.random.default_rng(ports)
        n = 127 ** 2 + 1500
        req = ShiftRequest(
            dbc=rng.integers(0, 6, n), slot=rng.integers(0, 64, n),
            num_dbcs=6, domains=64, ports=ports,
            init_offsets=rng.integers(-20, 21, 6),
            init_aligned=rng.integers(0, 2, 6).astype(bool),
            warm_start=False,
        )
        assert NUMPY.run(req) == REFERENCE.run(req)


class TestBlockBoundaries:
    """Lengths straddling a multiple of the full 128-access block."""

    @pytest.mark.parametrize("ports", SCAN_PORTS)
    @pytest.mark.parametrize(
        "extra", [_SCAN_BLOCK - 1, _SCAN_BLOCK, _SCAN_BLOCK + 1]
    )
    def test_partial_exact_and_spilling_last_block(self, ports, extra):
        # Partial, exact, and spilling last block of 128.
        n = (_SCAN_BLOCK - 1) * _SCAN_BLOCK + extra
        rng = np.random.default_rng(n + ports)
        slots = rng.integers(0, 128, n)
        assert_equivalent(request_for(slots, ports, seed=n))

    @pytest.mark.parametrize("ports", SCAN_PORTS)
    @pytest.mark.parametrize("n", [127, 128, 129, 255, 256, 257])
    def test_scan_collapse_directly_at_small_boundaries(self, ports, n):
        # Drive the collapse scan itself on a random map stream and
        # cross-check it with sequential evaluation of the same maps.
        rng = np.random.default_rng(n * 7 + ports)
        rows_tbl, const_tbl = _gap_maps(128, ports)
        gaps = rng.integers(0, rows_tbl.shape[0], n)
        rows = rows_tbl[gaps]
        const = const_tbl[gaps]
        const[0] = rows[0, 0]  # element 0 must be a reset (constant) map
        rows[0] = const[0]
        chosen = _scan_collapse(const.copy(), rows.copy(), ports)
        # Oracle: sequential evaluation of the same map stream.
        state = 0
        for i in range(n):
            state = int(const[i]) if const[i] >= 0 else int(rows[i, state])
            assert chosen[i] == state


class TestDegenerateMapStreams:
    @pytest.mark.parametrize("ports", SCAN_PORTS)
    def test_no_constant_stream(self, ports):
        # A pinned slot yields gap-0 identity maps everywhere: not one
        # constant after the first access, the collapse scan's worst
        # case (5 and 8 ports). 64**2 accesses make 63 constant-free
        # blocks in a row (the depth-capped repair), 128**2 + 1 make
        # 128 (its doubling fallback).
        for n in (64 ** 2, 128 ** 2 + 1):
            slots = np.full(n, 64, dtype=np.int64)
            assert_equivalent(request_for(slots, ports, dbcs=1, seed=ports))

    @pytest.mark.parametrize("ports", SCAN_PORTS)
    def test_all_constant_stream(self, ports):
        # Alternating track extremes: every gap map is constant.
        n = 67 ** 2 + 1
        slots = np.empty(n, dtype=np.int64)
        slots[::2] = 0
        slots[1::2] = 127
        assert_equivalent(request_for(slots, ports, dbcs=1, seed=ports))

    @pytest.mark.parametrize("ports", SCAN_PORTS)
    def test_mixed_runs_of_identity_maps(self, ports):
        # Long constant-free stretches interleaved with resets: covers
        # the depth-limited forward fill across many blocks.
        rng = np.random.default_rng(23 + ports)
        pieces = []
        for _ in range(12):
            pieces.append(np.full(int(rng.integers(1, 900)),
                                  int(rng.integers(0, 128))))
            pieces.append(rng.integers(0, 128, int(rng.integers(1, 50))))
        slots = np.concatenate(pieces)
        assert_equivalent(request_for(slots, ports, dbcs=2, seed=ports))


class TestCachedGeometryTables:
    """Per-(domains, ports) tables are built once and shared."""

    def test_tables_are_cached_and_frozen(self):
        for fn in (positions_array, boundaries_array, _transition_tables):
            a = fn(128, 4)
            assert fn(128, 4) is a  # identity: no rebuild per matrix cell
            assert not a.flags.writeable

    @pytest.mark.parametrize("ports", [2, 3, 4, 8])
    @pytest.mark.parametrize("domains,n,tabled", [
        (200_000, 10, False),  # a short replay on a huge track
        (3_000, 5_998, False),  # one access fewer than the 5,999 gaps
        (3_000, 5_999, True),  # as many accesses as gaps
        (2_048, 10, True),  # 4,095 gaps: tabled whatever the length
    ])
    def test_gap_table_bounded_by_request(self, domains, n, tabled, ports):
        def table_calls():
            return sum(
                info.hits + info.misses
                for info in (_gap_maps.cache_info(),
                             _transition_tables.cache_info())
            )

        rng = np.random.default_rng(domains + n + ports)
        req = request_for(
            rng.integers(0, domains, n), ports, domains=domains, seed=ports
        )
        before = table_calls()
        got = NUMPY.run(req)
        assert (table_calls() > before) == tabled
        assert got == REFERENCE.run(req)

    def test_transition_table_shapes(self):
        packed = _transition_tables(64, 2)     # packed: one int per gap
        assert packed.shape == (127,)
        rows, const = _gap_maps(64, 8)         # wide: rows plus const lane
        assert rows.shape == (127, 8)
        assert const.shape == (127,)
        # Constant lane agrees with the rows it summarizes.
        is_const = rows[:, 0] == rows[:, -1]
        assert np.array_equal(const >= 0, is_const)
        assert np.array_equal(const[is_const], rows[is_const, 0])
