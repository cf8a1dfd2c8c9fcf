"""Unit tests for the controller, simulator and reports."""

from dataclasses import replace

import pytest

from repro.core.placement import Placement
from repro.core.cost import shift_cost
from repro.errors import PlacementError, SimulationError
from repro.rtm.controller import RTMController
from repro.rtm.geometry import RTMConfig, iso_capacity_sweep
from repro.rtm.preshift import PreshiftController
from repro.rtm.report import SimReport
from repro.rtm.sim import simulate, simulate_program
from repro.rtm.swapping import SwappingController
from repro.rtm.timing import destiny_params
from repro.trace import trace as trace_module
from repro.trace.sequence import AccessSequence
from repro.trace.trace import MemoryTrace

from tests.paperdata import FIG3_ACCESSES, FIG3_VARIABLES


@pytest.fixture
def config():
    return RTMConfig(dbcs=2, tracks_per_dbc=32, domains_per_track=512)


@pytest.fixture
def fig3_placement(fig3_sequence):
    return Placement([("a", "g", "b", "d", "h"), ("e", "i", "c", "f")])


class TestController:
    def test_fig3_afd_costs_39_shifts(self, config, fig3_trace, fig3_placement):
        report = simulate(fig3_trace, fig3_placement, config)
        assert report.shifts == 39
        assert report.per_dbc_shifts == (24, 15)

    def test_location_mapping(self, config, fig3_placement):
        ctrl = RTMController(config, fig3_placement)
        assert ctrl.location_of("a") == (0, 0)
        assert ctrl.location_of("f") == (1, 3)
        with pytest.raises(SimulationError):
            ctrl.location_of("zz")

    def test_too_many_dbcs_rejected(self, config, fig3_sequence):
        placement = Placement([("a",), ("b",), ("c",)] +
                              [tuple()] * 0 + [("d", "e", "f", "g", "h", "i")])
        with pytest.raises(PlacementError):
            RTMController(config, placement)

    def test_overfull_dbc_rejected(self, fig3_sequence):
        tiny = RTMConfig(dbcs=2, domains_per_track=4)
        placement = Placement([tuple("abcde"), tuple("fghi")])
        with pytest.raises(PlacementError):
            RTMController(tiny, placement)

    def test_duplicate_variable_rejected(self, config):
        class FakePlacement:
            def dbc_lists(self):
                return [("a",), ("a",)]

        with pytest.raises(PlacementError):
            RTMController(config, FakePlacement())

    def test_chained_executes_count_their_own_shifts(self):
        """A reused controller continues one device, and each report
        counts its own call's shifts, per DBC as in total."""
        ctrl = RTMController(RTMConfig(dbcs=2, domains_per_track=8),
                             Placement([("a", "b", "c"), ("d", "e")]))
        first = ctrl.execute(MemoryTrace.from_accesses(list("abcadeab")))
        second = ctrl.execute(MemoryTrace.from_accesses(list("cbaedc")))
        assert (first.shifts, second.shifts) == (6, 6)
        for report in (first, second, first + second):
            assert sum(report.per_dbc_shifts) == report.shifts

    def test_reset_between_traces(self, config, fig3_trace, fig3_placement):
        ctrl = RTMController(config, fig3_placement)
        first = ctrl.execute(fig3_trace)
        ctrl.reset()
        second = ctrl.execute(fig3_trace)
        assert first.shifts == second.shifts


class _Lists:
    """A placement-like object holding arbitrary (even invalid) DBC lists."""

    def __init__(self, *dbcs):
        self._dbcs = dbcs

    def dbc_lists(self):
        return self._dbcs


class TestSharedPlacementCheck:
    """Every trace controller rejects a malformed placement the same way."""

    TINY = RTMConfig(dbcs=2, domains_per_track=2)

    @pytest.mark.parametrize("controller", [
        RTMController, PreshiftController, SwappingController,
    ])
    @pytest.mark.parametrize("placement,message", [
        (_Lists(("a",), ("b",), ("c",)),
         "placement uses 3 DBCs but the device has 2"),
        (_Lists(("a", None, "b")),
         "DBC 0 holds 3 variables but has only 2 locations"),
        (_Lists(("a",), (None, "a")), "variable 'a' placed twice"),
    ], ids=["too-many-dbcs", "over-capacity", "placed-twice"])
    def test_same_message(self, controller, placement, message):
        with pytest.raises(PlacementError) as excinfo:
            controller(self.TINY, placement)
        assert str(excinfo.value) == message


class TestSimulatorAgreement:
    @pytest.mark.parametrize("dbcs", [2, 4, 8, 16])
    def test_sim_matches_analytic_cost(self, dbcs, small_sequence):
        sweep = {c.dbcs: c for c in iso_capacity_sweep()}
        config = sweep[dbcs]
        from repro.core.policies import get_policy
        placement = get_policy("DMA-SR").place(
            small_sequence, dbcs, config.locations_per_dbc
        )
        trace = MemoryTrace(small_sequence)
        report = simulate(trace, placement, config)
        assert report.shifts == shift_cost(small_sequence, placement)

    def test_multiport_sim_matches_analytic(self, small_sequence):
        config = RTMConfig(dbcs=2, domains_per_track=64, ports_per_track=4)
        from repro.core.policies import get_policy
        placement = get_policy("DMA-SR").place(small_sequence, 2, 64)
        trace = MemoryTrace(small_sequence)
        report = simulate(trace, placement, config)
        assert report.shifts == shift_cost(
            small_sequence, placement, ports=4, domains=64
        )

    def test_cold_start_not_cheaper(self, config, fig3_trace, fig3_placement):
        warm = simulate(fig3_trace, fig3_placement, config)
        cold = simulate(fig3_trace, fig3_placement, config, warm_start=False)
        assert cold.shifts >= warm.shifts


class TestEnergyAccounting:
    def test_energy_components(self, config, fig3_trace, fig3_placement):
        p = destiny_params(2)
        report = simulate(fig3_trace, fig3_placement, config)
        assert report.read_energy_pj == pytest.approx(
            report.reads * p.read_energy_pj
        )
        assert report.write_energy_pj == pytest.approx(
            report.writes * p.write_energy_pj
        )
        assert report.shift_energy_pj == pytest.approx(39 * p.shift_energy_pj)
        assert report.leakage_energy_pj == pytest.approx(
            p.leakage_mw * report.runtime_ns
        )

    def test_runtime_composition(self, config, fig3_trace, fig3_placement):
        p = destiny_params(2)
        report = simulate(fig3_trace, fig3_placement, config)
        expected = (
            report.reads * p.read_latency_ns
            + report.writes * p.write_latency_ns
            + report.shifts * p.shift_latency_ns
        )
        assert report.runtime_ns == pytest.approx(expected)

    def test_total_energy_is_breakdown_sum(self, config, fig3_trace, fig3_placement):
        report = simulate(fig3_trace, fig3_placement, config)
        assert report.total_energy_pj == pytest.approx(
            sum(report.energy_breakdown().values())
        )

    def test_fewer_shifts_means_less_energy(self, config, fig3_trace, fig3_sequence):
        afd = Placement([("a", "g", "b", "d", "h"), ("e", "i", "c", "f")])
        dma = Placement([("b", "c", "d", "e", "h"), ("a", "g", "i", "f")])
        r_afd = simulate(fig3_trace, afd, config)
        r_dma = simulate(fig3_trace, dma, config)
        assert r_dma.shifts < r_afd.shifts
        assert r_dma.total_energy_pj < r_afd.total_energy_pj
        assert r_dma.runtime_ns < r_afd.runtime_ns


class TestSimReport:
    def test_addition(self, config, fig3_trace, fig3_placement):
        r = simulate(fig3_trace, fig3_placement, config)
        combined = r + r
        assert combined.shifts == 2 * r.shifts
        assert combined.accesses == 2 * r.accesses
        assert combined.total_energy_pj == pytest.approx(2 * r.total_energy_pj)
        assert combined.area_mm2 == r.area_mm2
        assert combined.per_dbc_shifts == (48, 30)

    def test_sum_builtin(self, config, fig3_trace, fig3_placement):
        r = simulate(fig3_trace, fig3_placement, config)
        total = sum([r, r, r])
        assert total.shifts == 3 * r.shifts

    def test_mismatched_dbcs_rejected(self):
        with pytest.raises(SimulationError, match="DBCs"):
            SimReport(dbcs=2) + SimReport(dbcs=4)
        with pytest.raises(SimulationError, match="areas"):
            SimReport(dbcs=2, area_mm2=1.0) + SimReport(dbcs=2, area_mm2=2.0)

    def test_shifts_per_access(self):
        r = SimReport(dbcs=2, accesses=10, shifts=25)
        assert r.shifts_per_access == 2.5
        assert SimReport(dbcs=2).shifts_per_access == 0.0

    def test_summary_text(self, config, fig3_trace, fig3_placement):
        r = simulate(fig3_trace, fig3_placement, config)
        assert "39 shifts" in r.summary()

    def test_simulate_program_sums(self, config, fig3_trace, fig3_placement):
        single = simulate(fig3_trace, fig3_placement, config)
        double = simulate_program(
            [(fig3_trace, fig3_placement), (fig3_trace, fig3_placement)], config
        )
        assert double.shifts == 2 * single.shifts

    def test_simulate_program_empty_rejected(self, config):
        with pytest.raises(SimulationError):
            simulate_program([], config)


class TestFaultedSimulation:
    @pytest.fixture
    def fault(self):
        from repro.engine import FaultModel

        return FaultModel(rate=0.2, seed=3)

    def test_faults_never_change_charged_counters(
        self, config, fig3_trace, fig3_placement, fault
    ):
        """Open-loop shifting: the controller charges what it believes."""
        clean = simulate(fig3_trace, fig3_placement, config)
        faulted = simulate(fig3_trace, fig3_placement, config, fault=fault)
        assert faulted.shifts == clean.shifts == 39
        assert faulted.per_dbc_shifts == clean.per_dbc_shifts
        assert faulted.fault_injected > 0
        assert faulted.fault_misaligned > 0
        assert 0.0 < faulted.misaligned_fraction <= 1.0

    def test_rate_zero_report_is_bit_identical(
        self, config, fig3_trace, fig3_placement
    ):
        from repro.engine import FaultModel

        clean = simulate(fig3_trace, fig3_placement, config)
        zeroed = simulate(fig3_trace, fig3_placement, config,
                          fault=FaultModel(rate=0.0, seed=9))
        assert zeroed == clean

    def test_split_execution_draws_same_faults(
        self, config, fig3_trace, fig3_placement, fault
    ):
        """Fault draws key on the controller's lifetime access index."""
        ctrl = RTMController(config, fig3_placement, fault=fault)
        whole = ctrl.execute(fig3_trace) + ctrl.execute(fig3_trace)
        ctrl2 = RTMController(config, fig3_placement, fault=fault)
        again = ctrl2.execute(fig3_trace) + ctrl2.execute(fig3_trace)
        assert whole == again
        assert whole.fault_injected > 0

    def test_scrubbing_charges_device_shifts(
        self, config, fig3_trace, fig3_placement, fault
    ):
        plain = simulate(fig3_trace, fig3_placement, config, fault=fault)
        scrubbed = simulate(fig3_trace, fig3_placement, config,
                            fault=replace(fault, scrub_interval=5))
        # Placement traffic is untouched; the scrubs are priced on top.
        assert scrubbed.shifts == plain.shifts
        assert scrubbed.scrub_events == len(fig3_trace) // 5
        assert scrubbed.scrub_shifts > 0
        assert scrubbed.runtime_ns > plain.runtime_ns
        assert scrubbed.shift_energy_pj > plain.shift_energy_pj

    def test_report_surfaces_drift_histogram(
        self, config, fig3_trace, fig3_placement, fault
    ):
        report = simulate(fig3_trace, fig3_placement, config, fault=fault)
        counted = sum(c for _d, c in report.drift_histogram)
        assert 0 < counted <= config.dbcs
        assert all(d != 0 for d, _c in report.drift_histogram)
        assert "faults:" in report.summary()

    def test_reset_clears_fault_state(
        self, config, fig3_trace, fig3_placement, fault
    ):
        ctrl = RTMController(config, fig3_placement, fault=fault)
        first = ctrl.execute(fig3_trace)
        ctrl.reset()
        again = ctrl.execute(fig3_trace)
        assert again == first


class TestUnplacedVariables:
    """Only accessed variables need a location (``f`` is left out here;
    Fig. 3 first touches it at access 13)."""

    @pytest.fixture
    def partial(self):
        return Placement([("a", "g", "b", "d", "h"), ("e", "i", "c")])

    @pytest.fixture
    def declares_f(self):
        """Fig. 3's first 13 accesses: ``f`` declared, never accessed."""
        seq = AccessSequence(FIG3_ACCESSES[:13], variables=FIG3_VARIABLES)
        return MemoryTrace(seq)

    def test_declared_but_unaccessed_variable_may_stay_unplaced(
        self, config, partial, declares_f, fig3_placement
    ):
        assert (simulate(declares_f, partial, config)
                == simulate(declares_f, fig3_placement, config))

    def test_accessed_unplaced_variable_is_named(
        self, config, partial, fig3_trace
    ):
        with pytest.raises(SimulationError, match="variable 'f' has no location"):
            RTMController(config, partial).execute(fig3_trace)

    @pytest.mark.parametrize("faulted", [False, True])
    def test_failed_replay_leaves_controller_state(
        self, config, partial, declares_f, fig3_trace, faulted, monkeypatch
    ):
        from repro.engine import FaultModel

        # Chunks of 2: six chunks replay before the one touching ``f``.
        monkeypatch.setattr(trace_module, "REPLAY_CHUNK", 2)
        kwargs = {}
        if faulted:
            kwargs = {"fault": FaultModel(rate=0.2, seed=3, scrub_interval=5)}
        ctrl = RTMController(config, partial, **kwargs)
        with pytest.raises(SimulationError, match="'f'"):
            ctrl.execute(fig3_trace)
        fresh = RTMController(config, partial, **kwargs)
        assert ctrl.execute(declares_f) == fresh.execute(declares_f)


class TestReplayChunkSize:
    """In-memory traces replay in chunks; the size never shows."""

    @pytest.mark.parametrize("backend", ["reference", "numpy"])
    @pytest.mark.parametrize("ports", [1, 2, 4])
    @pytest.mark.parametrize("faulted", [False, True])
    def test_report_invariant_to_replay_chunk(
        self, small_sequence, backend, ports, faulted, monkeypatch
    ):
        from repro.core.policies import get_policy
        from repro.engine import FaultModel

        config = RTMConfig(dbcs=2, tracks_per_dbc=1, domains_per_track=64,
                           ports_per_track=ports)
        placement = get_policy("DMA-SR").place(small_sequence, 2, 64)
        trace = MemoryTrace.with_write_ratio(small_sequence, 0.3, rng=5)
        kwargs = {"backend": backend}
        if faulted:
            kwargs.update(fault=FaultModel(rate=0.2, seed=3, scrub_interval=7))
        expected = simulate(trace, placement, config, **kwargs)
        for chunk in (1, 7):
            monkeypatch.setattr(trace_module, "REPLAY_CHUNK", chunk)
            assert len(list(trace.chunks())) == -(-len(trace) // chunk)
            assert simulate(trace, placement, config, **kwargs) == expected

    def test_chunks_are_read_only_views(self, fig3_trace, monkeypatch):
        monkeypatch.setattr(trace_module, "REPLAY_CHUNK", 10)
        chunks = list(fig3_trace.chunks())
        assert [(c.start, len(c)) for c in chunks] == [(0, 10), (10, 10),
                                                       (20, 4)]
        for c in chunks:
            assert not c.codes.flags.writeable
            assert not c.writes.flags.writeable
            assert not c.codes.flags.owndata  # a view, not a copy
