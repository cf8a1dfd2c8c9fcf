"""Unit tests for the per-DBC device state machine."""

import pytest

from repro.errors import SimulationError
from repro.rtm.device import DBCState


class TestWarmStart:
    def test_first_access_free(self):
        dbc = DBCState(64)
        assert dbc.access(40) == 0

    def test_second_access_costs_distance(self):
        dbc = DBCState(64)
        dbc.access(40)
        assert dbc.access(45) == 5

    def test_same_location_costs_nothing(self):
        dbc = DBCState(64)
        dbc.access(10)
        assert dbc.access(10) == 0


class TestColdStart:
    def test_first_access_charged_from_port(self):
        dbc = DBCState(64)
        cost = dbc.access(40, warm_start=False)
        assert cost == abs(40 - 32)  # single port at the track centre

    def test_cold_ge_warm_total(self):
        pattern = [3, 60, 3, 31, 31, 12]
        warm = DBCState(64)
        cold = DBCState(64)
        w = sum(warm.access(x) for x in pattern)
        c = sum(cold.access(x, warm_start=False) for x in pattern)
        assert c >= w


class TestMultiPort:
    def test_two_ports_halve_long_hops(self):
        one = DBCState(64, ports=1)
        two = DBCState(64, ports=2)
        pattern = [0, 63, 0, 63]
        c1 = sum(one.access(x) for x in pattern)
        c2 = sum(two.access(x) for x in pattern)
        assert c2 < c1


class TestInvariants:
    def test_location_bounds_checked(self):
        dbc = DBCState(16)
        with pytest.raises(SimulationError):
            dbc.access(16)
        with pytest.raises(SimulationError):
            dbc.access(-1)

    def test_offset_stays_in_envelope(self):
        dbc = DBCState(32)
        for loc in (0, 31, 0, 31, 15, 16):
            dbc.access(loc)
            assert abs(dbc.offset) <= 31
