"""Unit tests for the library-level ablation experiments."""

from dataclasses import replace

import numpy as np

from repro.eval.ablations import (
    ablation_faults,
    ablation_multiset,
    ablation_ports,
    ablation_swapping,
)
from repro.eval.profiles import EvalProfile

TINY = EvalProfile(
    name="tiny", suite_scale=0.12, rw_iterations=10,
    benchmarks=("cc65", "jpeg"),
)


class TestPorts:
    def test_structure_and_relations(self):
        result = ablation_ports(TINY, benchmarks=("cc65",), ports=(1, 2))
        assert len(result.rows) == 2
        for pt in (1, 2):
            assert result.summary[f"dma_sr_vs_afd_x@{pt}p"] > 0.8

    def test_more_ports_never_increase_cost(self):
        result = ablation_ports(TINY, benchmarks=("jpeg",), ports=(1, 2, 4))
        for column in range(1, 4):
            values = [row[column] for row in result.rows]
            assert values == sorted(values, reverse=True)


class TestMultiset:
    def test_extension_wins_on_phased(self):
        result = ablation_multiset(TINY, seeds=(0, 1))
        assert result.summary["multi_vs_single_x"] > 1.0

    def test_rows_per_seed(self):
        result = ablation_multiset(TINY, seeds=(0, 1, 2))
        assert len(result.rows) == 3


class TestSwapping:
    def test_static_dma_beats_swapped_afd(self):
        result = ablation_swapping(TINY, benchmark="cc65")
        assert result.summary["dma_vs_swapped_afd_x"] >= 1.0

    def test_rows_cover_all_schemes(self):
        result = ablation_swapping(TINY, benchmark="jpeg")
        assert [r[0] for r in result.rows] == \
            ["AFD-OFU", "AFD-OFU+swap", "DMA-SR"]

    def test_streamed_workload_matches_in_memory(self, tmp_path):
        path = tmp_path / "app.trc"
        rng = np.random.default_rng(4)
        path.write_text("".join(
            f"0x{0x400 + 8 * a:x}\n" for a in rng.integers(0, 24, 300)
        ))
        bare, streamed = (
            ablation_swapping(replace(TINY, workloads=(spec,)))
            for spec in (f"file:{path}", f"file:{path},stream=1")
        )
        assert streamed.rows == bare.rows
        assert streamed.summary == bare.summary


class TestDbcSweep:
    def test_sweep_covers_interpolated_points(self):
        from repro.eval.ablations import ablation_dbc_sweep
        result = ablation_dbc_sweep(TINY, benchmarks=("cc65",),
                                    dbc_counts=(2, 4, 8))
        assert [row[0] for row in result.rows] == [2, 4, 8]
        assert result.summary["best_energy_dbcs"] in (2.0, 4.0, 8.0)

    def test_iso_capacity_maintained(self):
        from repro.eval.ablations import ablation_dbc_sweep
        result = ablation_dbc_sweep(TINY, benchmarks=("cc65",),
                                    dbc_counts=(2, 4, 8, 16))
        for row in result.rows:
            assert row[0] * row[1] * 32 == 4096 * 8

    def test_odd_splits_skipped(self):
        from repro.eval.ablations import ablation_dbc_sweep
        result = ablation_dbc_sweep(TINY, benchmarks=("cc65",),
                                    dbc_counts=(3, 4))  # 3 doesn't divide
        assert [row[0] for row in result.rows] == [4]


class TestFaults:
    def test_structure_and_ranking(self):
        result = ablation_faults(TINY, benchmarks=("cc65",),
                                 rates=(0.0, 0.05))
        assert len(result.rows) == 2 * 3  # rates x policies
        ranks = sorted(
            int(v) for k, v in result.summary.items() if k.startswith("rank_")
        )
        assert ranks == [1, 2, 3]
        assert result.summary["top_rate"] == 0.05
        assert "Most graceful" in result.notes

    def test_clean_rows_observe_nothing(self):
        result = ablation_faults(TINY, benchmarks=("cc65",),
                                 rates=(0.0, 0.05))
        clean = [r for r in result.rows if r[0] == "0"]
        assert clean and all(
            r[3] == 0 and r[4] == 0 and r[6] == "no" for r in clean
        )

    def test_faults_never_change_charged_shifts(self):
        """The believed-dynamics invariance, observed end to end."""
        result = ablation_faults(TINY, benchmarks=("jpeg",),
                                 rates=(0.0, 0.1))
        by_policy = {}
        for rate, policy, shifts, *_rest in result.rows:
            by_policy.setdefault(policy, set()).add(shifts)
        for policy, shift_counts in by_policy.items():
            assert len(shift_counts) == 1, policy

    def test_scrubbing_charges_extra_shifts(self):
        result = ablation_faults(TINY, benchmarks=("cc65",),
                                 rates=(0.05,), scrub_interval=25)
        assert any(row[3] > 0 for row in result.rows)  # scrub shifts
        assert "scrub every 25" in result.title


class TestCLIWiring:
    def test_cli_runs_ablation(self, capsys, monkeypatch):
        from repro.cli import main_experiment
        monkeypatch.setenv("REPRO_PROFILE", "smoke")
        assert main_experiment(["ablation-multiset"]) == 0
        out = capsys.readouterr().out
        assert "Multi-set DMA" in out
