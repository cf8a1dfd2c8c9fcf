"""Integration tests: full flows across trace -> core -> rtm -> eval."""

import pytest

from repro.core.cost import shift_cost
from repro.core.policies import PAPER_POLICIES, get_policy
from repro.eval.profiles import EvalProfile
from repro.eval.runner import run_matrix, run_policy_on_program
from repro.rtm.geometry import iso_capacity_sweep
from repro.rtm.sim import simulate
from repro.trace.generators.offsetstone import load_benchmark
from repro.trace.io import parse_traces, render_traces

MINI = EvalProfile(
    name="mini",
    suite_scale=0.12,
    ga_options={"mu": 6, "lam": 6, "generations": 3},
    rw_iterations=15,
    benchmarks=("dct", "gzip"),
)


class TestSuiteThroughSimulator:
    """Every generated program x every config x every paper policy."""

    @pytest.mark.parametrize("policy_name", PAPER_POLICIES)
    def test_policy_handles_whole_mini_suite(self, policy_name):
        from repro.eval.runner import policy_specs
        [(_, options)] = policy_specs([policy_name], MINI)
        policy = get_policy(policy_name, **options)
        for name in MINI.benchmarks:
            program = load_benchmark(name, scale=MINI.suite_scale,
                                     seed=MINI.seed)
            for config in iso_capacity_sweep():
                cell = run_policy_on_program(program, policy, config, rng=3)
                assert cell.shifts == cell.report.shifts
                assert cell.report.accesses == program.total_accesses


class TestTraceFileToSimulation:
    """Text trace file -> parse -> place -> simulate, like the CLI does."""

    def test_roundtripped_trace_places_identically(self, tmp_path):
        program = load_benchmark("dct", scale=0.12, seed=1)
        trace = program.traces[0]
        text = render_traces([trace])
        (back,) = parse_traces(text)
        config = iso_capacity_sweep()[1]  # 4 DBCs
        policy = get_policy("DMA-SR")
        p1 = policy.place(trace.sequence, config.dbcs, config.locations_per_dbc)
        p2 = policy.place(back.sequence, config.dbcs, config.locations_per_dbc)
        assert p1 == p2
        assert simulate(trace, p1, config).shifts == \
            simulate(back, p2, config).shifts


class TestCrossPolicyConsistency:
    def test_all_policies_agree_on_problem_shape(self, small_sequence):
        """Placements differ; variable coverage and capacity must not."""
        for name in ("AFD", "DMA", "AFD-OFU", "DMA-OFU", "DMA-Chen",
                     "DMA-SR", "DMA-TSP", "MDMA-SR"):
            placement = get_policy(name).place(small_sequence, 4, 64)
            placement.validate_for(small_sequence, num_dbcs=4, capacity=64)

    def test_matrix_and_direct_cells_agree(self):
        matrix = run_matrix(("AFD-OFU",), MINI,
                            configs=iso_capacity_sweep(dbc_counts=(4,)))
        program = load_benchmark("dct", scale=MINI.suite_scale, seed=MINI.seed)
        config = iso_capacity_sweep(dbc_counts=(4,))[0]
        direct = run_policy_on_program(
            program, get_policy("AFD-OFU"), config
        )
        assert matrix[("dct", "AFD-OFU", 4)].shifts == direct.shifts


class TestAnalyticModelIsTheFitness:
    """The quantity the optimizers minimize is what the device executes."""

    def test_ga_result_cost_matches_simulator(self, small_sequence):
        from repro.core.ga import GAConfig, GeneticPlacer
        from repro.trace.trace import MemoryTrace
        config = iso_capacity_sweep(dbc_counts=(4,))[0]
        ga = GeneticPlacer(
            small_sequence, 4, config.locations_per_dbc,
            GAConfig(mu=8, lam=8, generations=4), rng=5,
        )
        result = ga.run()
        report = simulate(MemoryTrace(small_sequence), result.placement, config)
        assert report.shifts == result.cost

    def test_better_analytic_cost_never_hurts_energy(self, small_sequence):
        from repro.trace.trace import MemoryTrace
        config = iso_capacity_sweep(dbc_counts=(4,))[0]
        cap = config.locations_per_dbc
        trace = MemoryTrace(small_sequence)
        afd = get_policy("AFD-OFU").place(small_sequence, 4, cap)
        dma = get_policy("DMA-SR").place(small_sequence, 4, cap)
        c_afd = shift_cost(small_sequence, afd)
        c_dma = shift_cost(small_sequence, dma)
        r_afd = simulate(trace, afd, config)
        r_dma = simulate(trace, dma, config)
        if c_dma < c_afd:
            assert r_dma.total_energy_pj < r_afd.total_energy_pj
            assert r_dma.runtime_ns < r_afd.runtime_ns
