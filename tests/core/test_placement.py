"""Unit tests for the Placement representation."""

import numpy as np
import pytest

from repro.core.placement import Placement
from repro.errors import CapacityError, PlacementError
from repro.trace.sequence import AccessSequence


@pytest.fixture
def placement():
    return Placement([("a", "b"), ("c",), ()])


class TestConstruction:
    def test_basic(self, placement):
        assert placement.num_dbcs == 3
        assert placement.variables == {"a", "b", "c"}

    def test_empty_placement_rejected(self):
        with pytest.raises(PlacementError):
            Placement([])
        with pytest.raises(PlacementError):
            Placement([(), ()])

    def test_duplicate_variable_rejected(self):
        with pytest.raises(PlacementError, match="twice"):
            Placement([("a",), ("a",)])


class TestAccessors:
    def test_location_of(self, placement):
        assert placement.location_of("a") == (0, 0)
        assert placement.location_of("b") == (0, 1)
        assert placement.location_of("c") == (1, 0)

    def test_dbc_and_slot_shortcuts(self, placement):
        assert placement.dbc_of("b") == 0
        assert placement.slot_of("b") == 1

    def test_unknown_variable(self, placement):
        with pytest.raises(PlacementError):
            placement.location_of("zz")

    def test_equality_and_hash(self):
        a = Placement([("x",), ("y",)])
        b = Placement([("x",), ("y",)])
        c = Placement([("y",), ("x",)])
        assert a == b and hash(a) == hash(b)
        assert a != c
        assert a != "something"

    def test_repr(self, placement):
        assert "3 vars" in repr(placement)


class TestValidation:
    def test_validate_for_matching_sequence(self, placement):
        seq = AccessSequence(["a", "b", "c"], variables=["a", "b", "c"])
        placement.validate_for(seq, num_dbcs=3, capacity=2)

    def test_missing_variable_detected(self, placement):
        seq = AccessSequence(["a"], variables=["a", "b", "c", "d"])
        with pytest.raises(PlacementError, match="missing"):
            placement.validate_for(seq)

    def test_extra_variable_detected(self, placement):
        seq = AccessSequence(["a", "b"], variables=["a", "b"])
        with pytest.raises(PlacementError, match="extra"):
            placement.validate_for(seq)

    def test_dbc_budget_enforced(self, placement):
        seq = AccessSequence(["a", "b", "c"], variables=["a", "b", "c"])
        with pytest.raises(CapacityError):
            placement.validate_for(seq, num_dbcs=2)

    def test_capacity_enforced(self, placement):
        seq = AccessSequence(["a", "b", "c"], variables=["a", "b", "c"])
        with pytest.raises(CapacityError):
            placement.validate_for(seq, capacity=1)


class TestConversions:
    def test_as_arrays(self, placement):
        seq = AccessSequence(["a", "c", "b"], variables=["a", "b", "c"])
        dbc_of, pos_of = placement.as_arrays(seq)
        np.testing.assert_array_equal(dbc_of, [0, 0, 1])
        np.testing.assert_array_equal(pos_of, [0, 1, 0])

    def test_as_arrays_requires_coverage(self, placement):
        seq = AccessSequence(["a", "z"], variables=["a", "z"])
        with pytest.raises(PlacementError, match="unplaced"):
            placement.as_arrays(seq)

    def test_as_arrays_ignores_extra_placed_vars(self, placement):
        seq = AccessSequence(["a"], variables=["a"])
        dbc_of, pos_of = placement.as_arrays(seq)
        assert dbc_of.shape == (1,)

    def test_padded(self, placement):
        wide = placement.padded(5)
        assert wide.num_dbcs == 5
        assert wide.dbc_lists()[3] == ()

    def test_padded_to_own_width_is_itself(self, placement):
        assert placement.padded(placement.num_dbcs) is placement

    def test_padded_cannot_shrink(self, placement):
        with pytest.raises(PlacementError):
            placement.padded(2)
