"""Unit tests for the analytic shift-cost model."""

import pytest

from repro.core.cost import per_dbc_shift_costs, shift_cost
from repro.core.placement import Placement
from repro.errors import PlacementError
from repro.trace.sequence import AccessSequence


class TestSingleDBC:
    def test_alternation_cost(self):
        seq = AccessSequence(list("ababab"))
        assert shift_cost(seq, Placement([("a", "b")])) == 5

    def test_distance_scales_with_separation(self):
        seq = AccessSequence(list("abab"))
        assert shift_cost(seq, Placement([("a", "x", "b"), ()])) == 0 + 2 * 3
        # a@0, b@2: three transitions of distance 2... wait: a->b,b->a,a->b = 6

    def test_self_accesses_free(self):
        seq = AccessSequence(list("aaaa"))
        assert shift_cost(seq, Placement([("a",)])) == 0

    def test_first_access_free(self):
        seq = AccessSequence(["b"], variables=["a", "b"])
        assert shift_cost(seq, Placement([("a", "b")])) == 0

    def test_empty_sequence_costs_nothing(self):
        seq = AccessSequence([], variables=["a"])
        assert shift_cost(seq, Placement([("a",)])) == 0


class TestMultiDBC:
    def test_per_dbc_split(self, fig3_sequence):
        placement = Placement([("a", "g", "b", "d", "h"), ("e", "i", "c", "f")])
        assert per_dbc_shift_costs(fig3_sequence, placement) == [24, 15]

    def test_cross_dbc_transitions_free(self):
        seq = AccessSequence(list("abababab"))
        split = Placement([("a",), ("b",)])
        assert shift_cost(seq, split) == 0

    def test_empty_dbc_costs_zero(self, fig3_sequence):
        placement = Placement([tuple("abcdefghi"), ()])
        costs = per_dbc_shift_costs(fig3_sequence, placement)
        assert costs[1] == 0


class TestMultiPort:
    def test_needs_domains(self, fig3_sequence):
        placement = Placement([tuple("abcdefghi")])
        with pytest.raises(PlacementError, match="domains"):
            shift_cost(fig3_sequence, placement, ports=2)

    def test_multi_port_never_worse(self, small_sequence):
        placement = Placement([tuple(small_sequence.variables)])
        single = shift_cost(small_sequence, placement, ports=1)
        multi = shift_cost(small_sequence, placement, ports=4, domains=64)
        assert multi <= single

    def test_slot_outside_track_rejected(self):
        seq = AccessSequence(list("abc"))
        placement = Placement([("a", "b", "c")])  # slot 2 on a 2-domain track
        with pytest.raises(PlacementError):
            shift_cost(seq, placement, ports=2, domains=2)

    def test_ports_at_extremes(self):
        # two ports on a 64-track: 0<->63 ping-pong costs ~31 per hop pair
        seq = AccessSequence(list("ab" * 10))
        vars64 = ["a"] + [f"x{i}" for i in range(62)] + ["b"]
        seq = AccessSequence(list("ab" * 10), variables=vars64)
        placement = Placement([tuple(vars64)])
        single = shift_cost(seq, placement, ports=1)
        dual = shift_cost(seq, placement, ports=2, domains=64)
        assert dual < single


class TestGeometry:
    """Passing the track length validates slots and keeps warm costs."""

    def test_warm_cost_ignores_domains(self, fig3_sequence):
        placement = Placement([("a", "g", "b", "d", "h"), ("e", "i", "c", "f")])
        assert shift_cost(fig3_sequence, placement, domains=512) == \
            shift_cost(fig3_sequence, placement)

    def test_single_port_slot_validated_when_domains_given(self):
        seq = AccessSequence(list("abc"))
        placement = Placement([("a", "b", "c")])
        with pytest.raises(PlacementError):
            shift_cost(seq, placement, domains=2)


class TestInvariance:
    def test_dbc_order_irrelevant(self, fig3_sequence):
        a = Placement([("a", "g", "b", "d", "h"), ("e", "i", "c", "f")])
        b = Placement([("e", "i", "c", "f"), ("a", "g", "b", "d", "h")])
        assert shift_cost(fig3_sequence, a) == shift_cost(fig3_sequence, b)

    def test_reversal_within_dbc_preserves_cost(self, fig3_sequence):
        a = Placement([("a", "g", "b", "d", "h"), ("e", "i", "c", "f")])
        b = Placement([("h", "d", "b", "g", "a"), ("e", "i", "c", "f")])
        assert shift_cost(fig3_sequence, a) == shift_cost(fig3_sequence, b)

    def test_unaccessed_variables_do_not_add_cost(self):
        seq = AccessSequence(list("abab"), variables=list("ab") + ["z"])
        with_z_far = Placement([("a", "b", "z")])
        assert shift_cost(seq, with_z_far) == 3
