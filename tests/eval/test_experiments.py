"""Unit tests for the experiment definitions (table/figure regeneration)."""

from dataclasses import replace

import numpy as np
import pytest

from repro.eval.experiments import (
    experiment_fig3,
    experiment_fig4,
    experiment_fig5,
    experiment_fig6,
    experiment_sec4b_gap,
    experiment_sec4c,
    experiment_table1,
    fig3_sequence,
)
from repro.eval.profiles import EvalProfile
from repro.eval.reporting import render_experiment, save_experiment
from repro.eval.runner import run_matrix

TINY = EvalProfile(
    name="tiny",
    suite_scale=0.12,
    ga_options={"mu": 8, "lam": 8, "generations": 4},
    rw_iterations=30,
    benchmarks=("adpcm", "bison", "jpeg"),
)


@pytest.fixture(scope="module")
def tiny_matrix():
    policies = ("AFD-OFU", "DMA-OFU", "DMA-Chen", "DMA-SR", "GA", "RW")
    return run_matrix(policies, TINY)


class TestTable1:
    def test_values_match_paper_exactly(self):
        result = experiment_table1()
        for key, expected in result.paper.items():
            assert result.summary[key] == pytest.approx(expected), key

    def test_all_nine_rows(self):
        assert len(experiment_table1().rows) == 9


class TestFig3:
    def test_headline_numbers(self):
        result = experiment_fig3()
        assert result.summary["afd_total"] == 39
        assert result.summary["afd_s0"] == 24
        assert result.summary["afd_s1"] == 15
        assert result.summary["vdj_freq_sum"] == 11
        assert result.summary["dma_total"] == 10
        assert result.summary["improvement_x"] >= 3.54

    def test_sequence_matches_conftest(self, fig3_sequence_fixture=None):
        assert "".join(fig3_sequence().accesses) == "ababcacaddaiefefgeghgihi"


class TestFig4:
    def test_ga_normalization_is_identity(self, tiny_matrix):
        result = experiment_fig4(TINY, matrix=tiny_matrix)
        for q in (2, 4, 8, 16):
            assert result.summary[f"norm_GA@{q}"] == pytest.approx(1.0)

    def test_rows_cover_benchmarks_and_configs(self, tiny_matrix):
        result = experiment_fig4(TINY, matrix=tiny_matrix)
        assert len(result.rows) == len(TINY.benchmarks) * 4

    def test_dma_improves_on_afd(self, tiny_matrix):
        result = experiment_fig4(TINY, matrix=tiny_matrix)
        improvements = [
            result.summary[f"dma_vs_afd_x@{q}"] for q in (4, 8, 16)
        ]
        assert all(x >= 0.95 for x in improvements)
        assert max(x for x in improvements) > 1.05

    def test_paper_keys_have_measurements(self, tiny_matrix):
        result = experiment_fig4(TINY, matrix=tiny_matrix)
        for key in result.paper:
            assert key in result.summary


class TestFig5:
    def test_afd_total_normalized_to_one(self, tiny_matrix):
        result = experiment_fig5(TINY, matrix=tiny_matrix)
        afd_rows = [r for r in result.rows if r[1] == "AFD-OFU"]
        for row in afd_rows:
            assert row[5] == pytest.approx(1.0)

    def test_dma_sr_saves_energy(self, tiny_matrix):
        result = experiment_fig5(TINY, matrix=tiny_matrix)
        for q in (2, 4, 8):
            assert result.summary[f"dma_sr_energy_saving_pct@{q}"] > 0

    def test_breakdown_sums_to_total(self, tiny_matrix):
        result = experiment_fig5(TINY, matrix=tiny_matrix)
        for row in result.rows:
            assert row[2] + row[3] + row[4] == pytest.approx(row[5], abs=1e-3)

    def test_leakage_share_grows_with_dbcs(self, tiny_matrix):
        result = experiment_fig5(TINY, matrix=tiny_matrix)
        shares = [result.summary[f"leakage_share_afd@{q}"] for q in (2, 16)]
        assert shares[1] > shares[0]


class TestFig6:
    def test_area_column_matches_table1_ratios(self, tiny_matrix):
        result = experiment_fig6(TINY, matrix=tiny_matrix)
        assert result.summary["area_x@2"] == pytest.approx(1.0)
        assert result.summary["area_x@16"] == pytest.approx(0.0279 / 0.0159)

    def test_area_rises_with_dbc_count(self, tiny_matrix):
        result = experiment_fig6(TINY, matrix=tiny_matrix)
        areas = [result.summary[f"area_x@{q}"] for q in (2, 4, 8, 16)]
        assert areas == sorted(areas)

    def test_best_energy_config_not_extreme(self, tiny_matrix):
        result = experiment_fig6(TINY, matrix=tiny_matrix)
        assert result.summary["best_energy_dbcs"] in (2.0, 4.0, 8.0, 16.0)


class TestSec4c:
    def test_rows_for_three_policies(self, tiny_matrix):
        result = experiment_sec4c(TINY, matrix=tiny_matrix)
        assert [r[0] for r in result.rows] == ["DMA-OFU", "DMA-Chen", "DMA-SR"]

    def test_sr_improves_latency_somewhere(self, tiny_matrix):
        result = experiment_sec4c(TINY, matrix=tiny_matrix)
        values = [result.summary[f"dma_sr_latency_pct@{q}"] for q in (2, 4, 8, 16)]
        assert max(values) > 0


class TestSec4bGap:
    def test_gap_experiment_runs(self):
        result = experiment_sec4b_gap(TINY, num_dbcs=4, long_generations=6)
        assert "heuristic_gap_pct" in result.summary
        assert result.summary["ga_cost"] <= result.summary["best_heuristic_cost"]

    def test_invalid_dbcs_rejected(self):
        from repro.errors import ExperimentError
        with pytest.raises(ExperimentError):
            experiment_sec4b_gap(TINY, num_dbcs=5)

    def test_streamed_workload_matches_in_memory(self, tmp_path):
        path = tmp_path / "app.trc"
        rng = np.random.default_rng(4)
        path.write_text("".join(
            f"0x{0x400 + 8 * a:x}\n" for a in rng.integers(0, 24, 300)
        ))
        summaries = [
            experiment_sec4b_gap(
                replace(TINY, workloads=(spec,)), num_dbcs=4,
                long_generations=3,
            ).summary
            for spec in (f"file:{path}", f"file:{path},stream=1")
        ]
        assert summaries[0] == summaries[1]


class TestReporting:
    def test_render_contains_paper_vs_measured(self, tiny_matrix):
        result = experiment_fig4(TINY, matrix=tiny_matrix)
        text = render_experiment(result)
        assert "paper vs measured" in text
        assert "dma_vs_afd_x@4" in text

    def test_render_truncation(self, tiny_matrix):
        result = experiment_fig4(TINY, matrix=tiny_matrix)
        text = render_experiment(result, max_rows=2)
        assert "more rows" in text

    def test_save_experiment_writes_file(self, tmp_path):
        result = experiment_table1()
        path = save_experiment(result, results_dir=tmp_path)
        assert path.exists()
        assert "Table I" in path.read_text()
