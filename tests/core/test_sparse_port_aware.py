"""Unit tests for sparse placements and port-aware intra layouts."""

import numpy as np
import pytest

from repro.core.cost import shift_cost
from repro.core.intra import (
    port_aware_layout,
    port_spread_layout,
    pyramid_order,
    shifts_reduce_order,
)
from repro.core.placement import Placement
from repro.errors import PlacementError
from repro.rtm.geometry import RTMConfig
from repro.rtm.sim import simulate
from repro.trace.sequence import AccessSequence
from repro.trace.trace import MemoryTrace


def bimodal_sequence(cluster: int = 6, length: int = 120, seed: int = 0):
    """Accesses alternating between two variable clusters."""
    rng = np.random.default_rng(seed)
    a = [f"a{i}" for i in range(cluster)]
    b = [f"b{i}" for i in range(cluster)]
    acc = []
    for _ in range(length // 2):
        acc.append(a[int(rng.integers(0, cluster))])
        acc.append(b[int(rng.integers(0, cluster))])
    return AccessSequence(acc, variables=a + b)


class TestSparsePlacement:
    def test_none_slots_are_holes(self):
        p = Placement([("a", None, "b")])
        assert p.location_of("a") == (0, 0)
        assert p.location_of("b") == (0, 2)
        assert p.variables == {"a", "b"}

    def test_hole_distance_counts_in_cost(self):
        seq = AccessSequence(list("abab"))
        dense = Placement([("a", "b")])
        sparse = Placement([("a", None, None, "b")])
        assert shift_cost(seq, dense) == 3
        assert shift_cost(seq, sparse) == 9

    def test_all_holes_rejected(self):
        with pytest.raises(PlacementError):
            Placement([(None, None)])

    def test_simulator_accepts_sparse(self):
        seq = AccessSequence(list("abab"))
        sparse = Placement([("a", None, "b")])
        config = RTMConfig(dbcs=1, domains_per_track=8)
        report = simulate(MemoryTrace(seq), sparse, config)
        assert report.shifts == shift_cost(seq, sparse)

    def test_duplicate_across_holes_rejected(self):
        with pytest.raises(PlacementError):
            Placement([("a", None), (None, "a")])


class TestPortSpread:
    def test_layout_length_and_coverage(self):
        seq = bimodal_sequence()
        layout = port_spread_layout(seq, list(seq.variables), 64, 2)
        assert len(layout) == 64
        placed = [v for v in layout if v is not None]
        assert sorted(placed) == sorted(seq.variables)

    def test_single_port_falls_back_dense(self):
        seq = bimodal_sequence()
        layout = port_spread_layout(seq, list(seq.variables), 64, 1)
        assert None not in layout

    def test_no_room_falls_back_dense(self):
        seq = bimodal_sequence(cluster=4, length=40)
        layout = port_spread_layout(seq, list(seq.variables), 8, 2)
        assert len([v for v in layout if v is not None]) == 8

    def test_too_many_variables_rejected(self):
        seq = bimodal_sequence()
        with pytest.raises(PlacementError):
            port_spread_layout(seq, list(seq.variables), 8, 2)


class TestPortAware:
    def test_wins_on_bimodal_alternation(self):
        seq = bimodal_sequence()
        vs = list(seq.variables)
        dense = Placement([shifts_reduce_order(seq, vs)])
        aware = Placement([port_aware_layout(seq, vs, 64, 2)])
        d = shift_cost(seq, dense, ports=2, domains=64)
        a = shift_cost(seq, aware, ports=2, domains=64)
        assert a < d

    def test_never_worse_than_dense(self):
        from repro.trace.generators.synthetic import zipf_sequence
        for s in range(5):
            seq = zipf_sequence(20, 150, rng=s)
            vs = list(seq.variables)
            dense = Placement([shifts_reduce_order(seq, vs)])
            aware = Placement([port_aware_layout(seq, vs, 64, 4)])
            assert shift_cost(seq, aware, ports=4, domains=64) <= \
                shift_cost(seq, dense, ports=4, domains=64)

    def test_single_port_returns_dense_sr(self):
        seq = bimodal_sequence()
        vs = list(seq.variables)
        assert port_aware_layout(seq, vs, 64, 1) == shifts_reduce_order(seq, vs)


class TestPyramid:
    def test_hottest_in_the_middle(self):
        seq = AccessSequence(list("hhhhhmmmcc"))
        order = pyramid_order(seq, ["h", "m", "c"])
        assert order[1] == "h"

    def test_permutation(self, small_sequence):
        vs = list(small_sequence.variables)
        assert sorted(pyramid_order(small_sequence, vs)) == sorted(vs)

    def test_registered(self):
        from repro.core.intra import INTRA_HEURISTICS
        assert "Pyramid" in INTRA_HEURISTICS

    def test_single_variable(self, small_sequence):
        assert pyramid_order(small_sequence, ["v00"]) == ["v00"]
