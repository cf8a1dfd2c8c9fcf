"""Unit tests for port placement and selection."""

import pytest

from repro.errors import GeometryError
from repro.engine.semantics import port_positions, select_port


class TestPortPositions:
    def test_single_port_centred(self):
        assert port_positions(64, 1) == (32,)

    def test_two_ports_quartiles(self):
        assert port_positions(64, 2) == (16, 48)

    def test_four_ports_even_spread(self):
        assert port_positions(64, 4) == (8, 24, 40, 56)

    def test_positions_within_track(self):
        for domains in (3, 7, 64, 512):
            for ports in (1, 2, 3):
                if ports <= domains:
                    for p in port_positions(domains, ports):
                        assert 0 <= p < domains

    def test_port_count_validation(self):
        with pytest.raises(GeometryError):
            port_positions(8, 0)
        with pytest.raises(GeometryError):
            port_positions(8, 9)
        with pytest.raises(GeometryError):
            port_positions(0, 1)

    def test_positions_strictly_increasing(self):
        for domains in (2, 5, 17, 64):
            for ports in (1, 2, min(domains, 4)):
                pos = port_positions(domains, ports)
                assert list(pos) == sorted(set(pos))


class TestSelectPort:
    def test_single_port_distance(self):
        (p,) = port_positions(64, 1)
        port, delta = select_port((p,), offset=0, location=40)
        assert port == 0
        assert delta == 40 - p

    def test_nearest_picks_closer_port(self):
        positions = (16, 48)
        port, delta = select_port(positions, offset=0, location=50)
        assert port == 1
        assert delta == 2

    def test_nearest_accounts_for_offset(self):
        positions = (16, 48)
        # offset +30: port0 aligned at 46, port1 at 78
        port, delta = select_port(positions, offset=30, location=47)
        assert port == 0
        assert delta == 1

    def test_alignment_invariant(self):
        """offset + position of chosen port always equals the location."""
        positions = port_positions(64, 4)
        offset = 0
        for loc in (0, 5, 63, 32, 31, 1):
            port, delta = select_port(positions, offset, loc)
            offset += delta
            assert positions[port] + offset == loc
