"""Unit tests for the online-swapping controller (related work [20])."""

import pytest

from repro.core.placement import Placement
from repro.errors import PlacementError, SimulationError
from repro.rtm.geometry import RTMConfig
from repro.rtm.swapping import SwappingController
from repro.trace.sequence import AccessSequence
from repro.trace.trace import MemoryTrace


@pytest.fixture
def config():
    return RTMConfig(dbcs=2, domains_per_track=16)


def run(config, placement, accesses, **kw):
    seq = AccessSequence(accesses, variables=sorted(set(accesses)))
    # strip placement to the sequence's variables
    ctrl = SwappingController(config, placement, **kw)
    return ctrl.execute(MemoryTrace(seq))


class TestMigration:
    def test_hot_variable_migrates(self, config):
        # 'h' is accessed constantly but placed at slot 0, far from the
        # track centre; it should migrate inward after the threshold.
        placement = Placement([("h", "x1", "x2", "x3"), ()])
        seq = AccessSequence(["h"] * 20 + ["x3", "h"] * 3,
                             variables=["h", "x1", "x2", "x3"])
        ctrl = SwappingController(config, placement, threshold=4)
        report, stats = ctrl.execute(MemoryTrace(seq))
        assert stats.swaps >= 1
        new_dbc, new_slot = ctrl.location_of("h")
        assert new_dbc == 0
        assert new_slot > 0  # moved toward the centre (port home)

    def test_variable_on_home_slot_stays(self):
        # 'c' sits on the home slot (domains // 2 = 2). Moving it outward
        # would only swap it back on its next access, paying each swap.
        config = RTMConfig(dbcs=1, domains_per_track=4)
        ctrl = SwappingController(
            config, Placement([("a", "b", "c", "d")]), threshold=1
        )
        report, stats = ctrl.execute(
            MemoryTrace(AccessSequence(list("cccc"), variables=list("abcd")))
        )
        assert (stats.swaps, report.shifts) == (0, 0)
        assert ctrl.location_of("c") == (0, 2)
        assert report.runtime_ns == pytest.approx(3.37, abs=0.01)

    def test_no_swaps_below_threshold(self, config):
        placement = Placement([("a", "b"), ()])
        seq = AccessSequence(["a", "b"], variables=["a", "b"])
        ctrl = SwappingController(config, placement, threshold=10)
        _, stats = ctrl.execute(MemoryTrace(seq))
        assert stats.swaps == 0

    def test_swap_costs_accounted(self, config):
        placement = Placement([("h", "x1", "x2", "x3"), ()])
        seq = AccessSequence(["h"] * 30, variables=["h", "x1", "x2", "x3"])
        ctrl = SwappingController(config, placement, threshold=2)
        report, stats = ctrl.execute(MemoryTrace(seq))
        # swap reads/writes priced into energy (beyond the trace's own)
        assert report.read_energy_pj > report.reads * 0  # smoke
        if stats.swaps:
            assert report.shifts >= stats.swap_shifts
            assert stats.swap_reads == stats.swap_writes == 2 * stats.swaps

    def test_counters_decay_at_saturation(self, config):
        placement = Placement([("a", "b"), ()])
        seq = AccessSequence(["a"] * 200, variables=["a", "b"])
        ctrl = SwappingController(config, placement, threshold=4, saturate=16)
        ctrl.execute(MemoryTrace(seq))
        assert ctrl._counters["a"] < 200  # decayed, not unbounded


class TestValidation:
    def test_bad_threshold(self, config):
        placement = Placement([("a",), ()])
        with pytest.raises(SimulationError):
            SwappingController(config, placement, threshold=0)
        with pytest.raises(SimulationError):
            SwappingController(config, placement, threshold=8, saturate=4)

    def test_capacity_enforced(self):
        tiny = RTMConfig(dbcs=1, domains_per_track=2)
        with pytest.raises(PlacementError):
            SwappingController(tiny, Placement([("a", "b", "c")]))

    def test_duplicate_rejected(self, config):
        class Fake:
            def dbc_lists(self):
                return [("a",), ("a",)]

        with pytest.raises(PlacementError):
            SwappingController(config, Fake())

    def test_unknown_variable_rejected(self, config):
        placement = Placement([("a",), ()])
        ctrl = SwappingController(config, placement)
        seq = AccessSequence(["z"], variables=["z"])
        with pytest.raises(SimulationError):
            ctrl.execute(MemoryTrace(seq))


class TestComparability:
    def test_swapping_helps_a_bad_static_placement(self, config):
        """On a hot-variable-at-the-edge layout, swapping recovers shifts."""
        from repro.rtm.sim import simulate
        variables = [f"x{i}" for i in range(8)] + ["h"]
        # 'h' interacts with x0 constantly but is placed at the far end.
        accesses = ["x0", "h"] * 60
        seq = AccessSequence(accesses, variables=variables)
        placement = Placement([tuple(variables), ()])
        static = simulate(MemoryTrace(seq), placement, config)
        ctrl = SwappingController(config, placement, threshold=3)
        dynamic, stats = ctrl.execute(MemoryTrace(seq))
        assert stats.swaps >= 1
        assert dynamic.shifts < static.shifts


class TestPerCallReports:
    def test_reused_controller_reports_each_call(self):
        """On a reused controller each report's per-DBC shifts are its
        own call's, so they sum to its shifts."""
        config = RTMConfig(dbcs=2, domains_per_track=8)
        placement = Placement([("a", "b", "c"), ("d", "e")])
        ctrl = SwappingController(config, placement, threshold=1)
        traces = [MemoryTrace(AccessSequence(list(accesses), variables=list("abcde")))
                  for accesses in ("abcadeab", "cbaedc")]
        reports = [ctrl.execute(trace)[0] for trace in traces]
        assert (reports[1].shifts, reports[1].per_dbc_shifts) == (7, (5, 2))
        for report in reports + [reports[0] + reports[1]]:
            assert sum(report.per_dbc_shifts) == report.shifts
