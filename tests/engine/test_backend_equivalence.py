"""Property-style equivalence tests: numpy backend vs per-access oracle.

The acceptance bar of the engine refactor: on randomized traces across
port counts, warm/cold starts and initial device states, the
vectorized backend must reproduce the reference backend's shift counts,
per-DBC split and final device state exactly.
"""

import numpy as np
import pytest

from repro.engine import ShiftRequest, get_backend

REFERENCE = get_backend("reference")
NUMPY = get_backend("numpy")


def assert_equivalent(request: ShiftRequest) -> None:
    ref = REFERENCE.run(request)
    vec = NUMPY.run(request)
    assert vec.accesses == ref.accesses
    assert vec.shifts == ref.shifts
    assert vec.per_dbc_shifts == ref.per_dbc_shifts
    assert np.array_equal(vec.final_offsets, ref.final_offsets)
    assert np.array_equal(vec.final_aligned, ref.final_aligned)


def random_request(rng, ports, warm_start, with_init=False):
    domains = int(rng.choice([ports, 8, 16, 63, 64, 257]))
    num_dbcs = int(rng.integers(1, 6))
    n = int(rng.integers(0, 300))
    kwargs = {}
    if with_init:
        kwargs["init_offsets"] = rng.integers(
            -(domains - 1), domains, num_dbcs
        )
        kwargs["init_aligned"] = rng.random(num_dbcs) < 0.5
    return ShiftRequest(
        dbc=rng.integers(0, num_dbcs, n),
        slot=rng.integers(0, domains, n),
        num_dbcs=num_dbcs,
        domains=domains,
        ports=ports,
        warm_start=warm_start,
        **kwargs,
    )


class TestRandomizedEquivalence:
    @pytest.mark.parametrize("ports", [1, 2, 4])
    @pytest.mark.parametrize("warm_start", [True, False])
    def test_cold_and_warm_across_ports(self, ports, warm_start):
        rng = np.random.default_rng(1000 * ports + warm_start)
        for _ in range(30):
            assert_equivalent(random_request(rng, ports, warm_start))

    @pytest.mark.parametrize("ports", [1, 2, 4])
    def test_nontrivial_initial_state(self, ports):
        rng = np.random.default_rng(77 + ports)
        for _ in range(30):
            assert_equivalent(
                random_request(rng, ports, bool(rng.random() < 0.5),
                               with_init=True)
            )

    def test_many_ports_fallback_scan(self):
        # ports > 4 exceeds the packed-monoid table and exercises the
        # constant-collapse scan, the same at every length (block-size
        # steps are covered in test_collapse_scan.py).
        rng = np.random.default_rng(321)
        for _ in range(10):
            assert_equivalent(
                random_request(rng, 8, bool(rng.random() < 0.5),
                               with_init=bool(rng.random() < 0.5))
            )


class TestDegenerateSequences:
    @pytest.mark.parametrize("ports", [1, 2, 4])
    @pytest.mark.parametrize("warm_start", [True, False])
    def test_empty_request(self, ports, warm_start):
        request = ShiftRequest(
            dbc=np.array([], dtype=np.int64),
            slot=np.array([], dtype=np.int64),
            num_dbcs=3, domains=16, ports=ports, warm_start=warm_start,
        )
        assert_equivalent(request)
        result = NUMPY.run(request)
        assert result.shifts == 0
        assert result.per_dbc_shifts == (0, 0, 0)
        assert not result.final_aligned.any()

    @pytest.mark.parametrize("ports", [1, 2, 4])
    @pytest.mark.parametrize("warm_start", [True, False])
    def test_single_access(self, ports, warm_start):
        request = ShiftRequest(
            dbc=np.array([1]), slot=np.array([13]),
            num_dbcs=2, domains=16, ports=ports, warm_start=warm_start,
        )
        assert_equivalent(request)
        result = NUMPY.run(request)
        if warm_start:
            assert result.shifts == 0
        else:
            assert result.shifts > 0
        assert tuple(result.final_aligned) == (False, True)

    def test_repeated_same_slot_is_free_after_alignment(self):
        request = ShiftRequest(
            dbc=np.zeros(10, dtype=np.int64),
            slot=np.full(10, 7, dtype=np.int64),
            num_dbcs=1, domains=16, ports=2, warm_start=False,
        )
        assert_equivalent(request)
        ref = REFERENCE.run(request)
        # only the initial alignment is charged
        assert ref.shifts == NUMPY.run(request).shifts
        assert ref.shifts == abs(7 - min([4, 12], key=lambda p: abs(7 - p)))


class TestChainedState:
    """Splitting one request into chained batches must not change anything."""

    @pytest.mark.parametrize("ports", [1, 4])
    def test_split_equals_whole(self, ports):
        rng = np.random.default_rng(9 + ports)
        for _ in range(10):
            whole = random_request(rng, ports, True)
            n = whole.accesses
            if n < 2:
                continue
            cut = int(rng.integers(1, n))
            head = ShiftRequest(
                dbc=whole.dbc[:cut], slot=whole.slot[:cut],
                num_dbcs=whole.num_dbcs, domains=whole.domains,
                ports=ports,
            )
            for backend in (REFERENCE, NUMPY):
                first = backend.run(head)
                tail = ShiftRequest(
                    dbc=whole.dbc[cut:], slot=whole.slot[cut:],
                    num_dbcs=whole.num_dbcs, domains=whole.domains,
                    ports=ports,
                    init_offsets=first.final_offsets,
                    init_aligned=first.final_aligned,
                )
                second = backend.run(tail)
                total = backend.run(whole)
                assert first.shifts + second.shifts == total.shifts
                assert np.array_equal(second.final_offsets,
                                      total.final_offsets)


class TestSimulatorThroughBackends:
    """The two backends agree end-to-end through the simulator facade."""

    @pytest.mark.parametrize("ports", [1, 2, 4])
    def test_fig3_reports_match(self, fig3_trace, ports):
        from repro.core.placement import Placement
        from repro.rtm.geometry import RTMConfig
        from repro.rtm.sim import simulate
        placement = Placement([("a", "g", "b", "d", "h"), ("e", "i", "c", "f")])
        config = RTMConfig(dbcs=2, domains_per_track=512,
                           ports_per_track=ports)
        ref = simulate(fig3_trace, placement, config, backend="reference")
        vec = simulate(fig3_trace, placement, config, backend="numpy")
        assert ref == vec
        if ports == 1:
            assert ref.shifts == 39
