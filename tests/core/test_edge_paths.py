"""Edge-path coverage for corners the main suites do not reach."""

from repro.core.cost import shift_cost
from repro.core.ga import GAConfig, GeneticPlacer
from repro.core.placement import Placement
from repro.trace.sequence import AccessSequence


class TestGADegenerateInstances:
    def test_single_variable_sequence(self):
        seq = AccessSequence(["a", "a", "a"])
        result = GeneticPlacer(
            seq, 2, 4, GAConfig(mu=4, lam=4, generations=2), rng=0
        ).run()
        assert result.cost == 0

    def test_crossover_with_single_variable(self):
        seq = AccessSequence(["a"])
        placer = GeneticPlacer(
            seq, 2, 4, GAConfig(mu=4, lam=4, generations=1), rng=0
        )
        a, b = placer.random_individual(), placer.random_individual()
        for child in placer.crossover(a, b):
            placer.validate_individual(child)

    def test_single_dbc_device(self):
        seq = AccessSequence(list("abcab"))
        result = GeneticPlacer(
            seq, 1, 8, GAConfig(mu=6, lam=6, generations=3), rng=1
        ).run()
        result.placement.validate_for(seq, num_dbcs=1, capacity=8)

    def test_empty_sequence_with_variables(self):
        seq = AccessSequence([], variables=["a", "b"])
        result = GeneticPlacer(
            seq, 2, 2, GAConfig(mu=4, lam=4, generations=1), rng=2
        ).run()
        assert result.cost == 0


class TestPlacementEdge:
    def test_single_slot_dbcs(self):
        seq = AccessSequence(list("abab"))
        placement = Placement([("a",), ("b",)])
        assert shift_cost(seq, placement) == 0

    def test_very_sparse_layout_simulates(self):
        from repro.rtm.geometry import RTMConfig
        from repro.rtm.sim import simulate
        from repro.trace.trace import MemoryTrace
        seq = AccessSequence(list("ab" * 5))
        layout = ["a"] + [None] * 30 + ["b"]
        placement = Placement([layout])
        config = RTMConfig(dbcs=1, domains_per_track=32)
        report = simulate(MemoryTrace(seq), placement, config)
        assert report.shifts == shift_cost(seq, placement)
        assert report.shifts == 31 * 9  # 9 hops of distance 31


class TestExactPruning:
    def test_exact_handles_duplicate_heavy_sequences(self):
        from repro.core.exact import exact_optimal_placement
        seq = AccessSequence(list("aaaaabbbbb"))
        placement, cost = exact_optimal_placement(seq, 2, 2)
        assert cost == 0  # one variable per DBC: all transitions free...
        # (a->b transitions cross DBCs, which cost nothing)

    def test_exact_single_variable(self):
        from repro.core.exact import exact_optimal_placement
        seq = AccessSequence(["a"] * 4)
        placement, cost = exact_optimal_placement(seq, 2, 1)
        assert cost == 0


class TestReportingEdge:
    def test_render_without_paper_numbers(self):
        from repro.eval.experiments import ExperimentResult
        from repro.eval.reporting import render_experiment
        result = ExperimentResult(
            experiment_id="x", title="T", header=["a"], rows=[[1]],
            summary={"extra": 1.0},
        )
        text = render_experiment(result)
        assert "additional measurements" in text
        assert "paper vs measured" not in text

    def test_results_dir_env_override(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_RESULTS_DIR", str(tmp_path / "custom"))
        import importlib

        import repro.eval.reporting as reporting
        importlib.reload(reporting)
        try:
            from repro.eval.experiments import experiment_table1
            path = reporting.save_experiment(experiment_table1())
            assert str(tmp_path / "custom") in str(path)
        finally:
            monkeypatch.delenv("REPRO_RESULTS_DIR")
            importlib.reload(reporting)
