"""Unit tests for sparse placements and the pyramid intra layout."""

import pytest

from repro.core.cost import shift_cost
from repro.core.intra import pyramid_order
from repro.core.placement import Placement
from repro.errors import PlacementError
from repro.rtm.geometry import RTMConfig
from repro.rtm.sim import simulate
from repro.trace.sequence import AccessSequence
from repro.trace.trace import MemoryTrace


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
