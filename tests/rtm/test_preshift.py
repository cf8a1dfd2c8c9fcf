"""Unit tests for the proactive-alignment controller."""

import pytest

from repro.core.placement import Placement
from repro.errors import PlacementError, SimulationError
from repro.rtm.geometry import RTMConfig
from repro.rtm.preshift import PreshiftController, PreshiftPolicy
from repro.trace.sequence import AccessSequence
from repro.trace.trace import MemoryTrace


@pytest.fixture
def config():
    return RTMConfig(dbcs=1, domains_per_track=16)


def execute(config, placement, accesses, policy):
    seq = AccessSequence(accesses, variables=None)
    ctrl = PreshiftController(config, placement, policy=policy)
    return ctrl.execute(MemoryTrace(seq))


class TestPolicies:
    def test_none_policy_has_no_idle_shifts(self, config):
        placement = Placement([("a", "b", "c", "d")])
        report = execute(config, placement, list("adadad"), PreshiftPolicy.NONE)
        assert report.idle_shifts == 0
        assert report.demand_shifts > 0

    def test_stride_policy_hides_streaming_shifts(self, config):
        """A strided sweep is perfectly predictable: demand shifts vanish."""
        placement = Placement([tuple("abcdefgh")])
        sweep = list("abcdefgh")
        none = execute(config, placement, sweep, PreshiftPolicy.NONE)
        stride = execute(config, placement, sweep, PreshiftPolicy.STRIDE)
        assert stride.demand_shifts < none.demand_shifts
        assert stride.latency_ns < none.latency_ns

    def test_idle_shifts_cost_energy(self, config):
        placement = Placement([tuple("abcdefgh")])
        sweep = list("abcdefgh")
        none = execute(config, placement, sweep, PreshiftPolicy.NONE)
        stride = execute(config, placement, sweep, PreshiftPolicy.STRIDE)
        # total shift work (energy) can exceed the demand-only baseline
        assert stride.shift_energy_pj >= none.shift_energy_pj * 0.5
        assert stride.total_shifts >= none.demand_shifts

    def test_centre_policy_bounds_worst_case(self, config):
        placement = Placement([tuple("abcdefgh")])
        # ping-pong between the two ends: centring halves each demand hop
        pattern = list("ah" * 10)
        none = execute(config, placement, pattern, PreshiftPolicy.NONE)
        centre = execute(config, placement, pattern, PreshiftPolicy.CENTRE)
        assert centre.demand_shifts < none.demand_shifts

    def test_policy_accepts_strings(self, config):
        placement = Placement([("a", "b")])
        ctrl = PreshiftController(config, placement, policy="centre")
        assert ctrl.policy is PreshiftPolicy.CENTRE


class TestValidation:
    def test_capacity_enforced(self):
        tiny = RTMConfig(dbcs=1, domains_per_track=2)
        with pytest.raises(PlacementError):
            PreshiftController(tiny, Placement([("a", "b", "c")]))

    def test_unknown_variable(self, config):
        ctrl = PreshiftController(config, Placement([("a",)]))
        seq = AccessSequence(["z"])
        with pytest.raises(SimulationError):
            ctrl.execute(MemoryTrace(seq))

    def test_too_many_dbcs(self, config):
        with pytest.raises(PlacementError):
            PreshiftController(config, Placement([("a",), ("b",)]))


class TestReport:
    def test_total_shifts_sum(self, config):
        placement = Placement([tuple("abcd")])
        report = execute(config, placement, list("abcdabcd"),
                         PreshiftPolicy.STRIDE)
        assert report.total_shifts == report.demand_shifts + report.idle_shifts

    def test_accesses_counted(self, config):
        placement = Placement([tuple("abcd")])
        report = execute(config, placement, list("abcd"), PreshiftPolicy.NONE)
        assert report.accesses == 4


@pytest.mark.parametrize("policy", list(PreshiftPolicy))
def test_streamed_trace_replays_as_in_memory(tmp_path, policy):
    import numpy as np

    from repro.core.policies import get_policy
    from repro.trace.streaming import stream_address_trace

    path = tmp_path / "app.trc"
    words = np.random.default_rng(4).integers(0, 24, 300)
    path.write_text("".join(f"0x{0x400 + 8 * w:x}\n" for w in words))
    streamed = stream_address_trace(path, chunk=7)
    config = RTMConfig(dbcs=2, domains_per_track=64)
    placement = get_policy("AFD-OFU").place(streamed.placement_sequence(), 2, 64)
    reports = [
        PreshiftController(config, placement, policy=policy).execute(trace)
        for trace in (streamed, streamed.materialize())
    ]
    assert reports[0] == reports[1]
    assert reports[0].accesses == 300
