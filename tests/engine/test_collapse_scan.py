"""Bit-identity of the multi-port replay scans vs the oracle.

Wide ports (``p**p > 256``) replay through ``_scan_collapse``: maps are
``(const, rows)`` pairs, prefix states collapse to scalars at the first
constant map, and the blocked chase tracks O(blocks) scalars instead of
map rows. These tests pin every dispatch path — Hillis–Steele doubling
(``n <= _DOUBLING_MAX``), the collapse chase beyond it, block-boundary
lengths, and the degenerate all-constant / constant-free map streams —
against the per-access reference backend, across ``p in {3, 5, 8}``.
The blocked scan past ``_DOUBLING_MAX`` is also pinned at 2 and 4 ports
(the packed-table path), together with the cached geometry tables both
paths read.
"""

import numpy as np
import pytest

from repro.engine import ShiftRequest, get_backend
from repro.engine.numpy_backend import (
    _DOUBLING_MAX,
    _SCAN_BLOCK,
    _gap_maps,
    _scan_collapse,
    _transition_tables,
    boundaries_array,
    positions_array,
)

REFERENCE = get_backend("reference")
NUMPY = get_backend("numpy")

WIDE_PORTS = [3, 5, 8]  # all beyond the packed table (p**p > 256)


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


class TestScanPathDispatch:
    """Both scan paths, either side of the doubling/collapse switch."""

    @pytest.mark.parametrize("ports", WIDE_PORTS)
    @pytest.mark.parametrize(
        "n", [1, 2, _DOUBLING_MAX, _DOUBLING_MAX + 1, 3 * _DOUBLING_MAX]
    )
    def test_random_traces(self, ports, n):
        rng = np.random.default_rng(n * 31 + ports)
        slots = rng.integers(0, 128, n)
        assert_equivalent(request_for(slots, ports, seed=n + ports))

    @pytest.mark.parametrize("ports", WIDE_PORTS)
    @pytest.mark.parametrize("warm", [True, False])
    def test_cold_and_warm_beyond_doubling(self, ports, warm):
        rng = np.random.default_rng(5 + ports)
        slots = rng.integers(0, 64, _DOUBLING_MAX + 500)
        assert_equivalent(
            request_for(slots, ports, domains=64, seed=ports, warm=warm)
        )

    @pytest.mark.parametrize("ports", WIDE_PORTS)
    def test_huge_track_skips_gap_table(self, ports):
        # 2K-1 beyond the table-span floor: maps resolved per access,
        # same collapse scan.
        rng = np.random.default_rng(17 + ports)
        slots = rng.integers(0, 200_000, _DOUBLING_MAX + 300)
        assert_equivalent(
            request_for(slots, ports, domains=200_000, seed=ports)
        )

    @pytest.mark.parametrize("ports", [2, 4, 8])
    def test_blocked_scan_matches_doubling_scale(self, ports):
        # One request past _DOUBLING_MAX exercises the blocked two-level
        # scan (packed for ports <= 4, explicit maps for 8).
        rng = np.random.default_rng(ports)
        n = _DOUBLING_MAX + 1500
        req = ShiftRequest(
            dbc=rng.integers(0, 6, n), slot=rng.integers(0, 64, n),
            num_dbcs=6, domains=64, ports=ports,
            init_offsets=rng.integers(-20, 21, 6),
            init_aligned=rng.integers(0, 2, 6).astype(bool),
            warm_start=False,
        )
        assert NUMPY.run(req) == REFERENCE.run(req)


class TestBlockBoundaries:
    """Lengths straddling the chase's 128-access block structure."""

    @pytest.mark.parametrize("ports", WIDE_PORTS)
    @pytest.mark.parametrize(
        "extra", [_SCAN_BLOCK - 1, _SCAN_BLOCK, _SCAN_BLOCK + 1]
    )
    def test_boundary_lengths_beyond_doubling(self, ports, extra):
        n = _DOUBLING_MAX + extra  # partial, exact, and spilling last block
        rng = np.random.default_rng(n + ports)
        slots = rng.integers(0, 128, n)
        assert_equivalent(request_for(slots, ports, seed=n))

    @pytest.mark.parametrize("ports", WIDE_PORTS)
    @pytest.mark.parametrize("n", [127, 128, 129, 255, 256, 257])
    def test_scan_collapse_directly_at_small_boundaries(self, ports, n):
        # The backend routes small n through doubling; drive the collapse
        # scan itself at single/partial-block shapes and cross-check.
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
    @pytest.mark.parametrize("ports", WIDE_PORTS)
    def test_no_constant_stream(self, ports):
        # A pinned slot yields gap-0 identity maps everywhere: not one
        # constant after the first access, the collapse scan's worst
        # case (exercises the constant-free block repair).
        slots = np.full(_DOUBLING_MAX + 400, 64, dtype=np.int64)
        assert_equivalent(request_for(slots, ports, dbcs=1, seed=ports))

    @pytest.mark.parametrize("ports", WIDE_PORTS)
    def test_all_constant_stream(self, ports):
        # Alternating track extremes: every gap map is constant.
        n = _DOUBLING_MAX + 400
        slots = np.empty(n, dtype=np.int64)
        slots[::2] = 0
        slots[1::2] = 127
        assert_equivalent(request_for(slots, ports, dbcs=1, seed=ports))

    @pytest.mark.parametrize("ports", WIDE_PORTS)
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
