"""Integration tests: the matrix runner on top of the persistent store.

Covers the PR's acceptance semantics: hit/miss counters split by cache
layer, kill-and-resume equal to a cold run bit-identically, disjoint
shards whose union (and whose merged stores) reproduce the unsharded
matrix, offline regeneration, and schema-version invalidation through
the runner.
"""

import pytest

import repro.eval.runner as runner_module
from repro.errors import ExperimentError
from repro.eval.experiments import (
    enqueue_matrix,
    experiment_fig4,
    populate_matrix,
)
from repro.eval.profiles import EvalProfile
from repro.eval.reporting import render_experiment, render_experiment_json
from repro.eval.runner import (
    clear_cell_cache,
    last_matrix_stats,
    parse_shard,
    run_matrix,
    run_policy_on_program,
)
from repro.rtm.geometry import iso_capacity_sweep
from repro.store import ExperimentStore
from repro.store import schema

TINY = EvalProfile(
    name="tiny",
    suite_scale=0.12,
    ga_options={"mu": 6, "lam": 6, "generations": 3},
    rw_iterations=20,
    benchmarks=("adpcm", "dct"),
)

CONFIGS = iso_capacity_sweep(dbc_counts=(2, 4))
POLICIES = ("DMA-SR", "GA")  # one deterministic, one seed-keyed


class TestCacheCounters:
    def test_counters_pinned_across_cache_layers(self, tmp_path):
        """2 benchmarks x 2 configs x 2 policies = 8 cells, layer by layer."""
        clear_cell_cache()
        path = tmp_path / "s.db"
        cold = run_matrix(POLICIES, TINY, configs=CONFIGS, store=path)
        stats = last_matrix_stats()
        assert (stats.cells_total, stats.hits_memory,
                stats.hits_store, stats.computed) == (8, 0, 0, 8)
        assert stats.hits == 0

        warm_memory = run_matrix(POLICIES, TINY, configs=CONFIGS, store=path)
        stats = last_matrix_stats()
        assert (stats.cells_total, stats.hits_memory,
                stats.hits_store, stats.computed) == (8, 8, 0, 0)

        clear_cell_cache()
        warm_store = run_matrix(POLICIES, TINY, configs=CONFIGS, store=path)
        stats = last_matrix_stats()
        assert (stats.cells_total, stats.hits_memory,
                stats.hits_store, stats.computed) == (8, 0, 8, 0)
        assert stats.hits == 8

        assert warm_memory == cold
        assert warm_store == cold  # floats included: serde is exact

    def test_counters_without_store(self):
        clear_cell_cache()
        run_matrix(("DMA-SR",), TINY, configs=CONFIGS)
        stats = last_matrix_stats()
        assert (stats.cells_total, stats.hits_memory,
                stats.hits_store, stats.computed) == (4, 0, 0, 4)
        run_matrix(("DMA-SR",), TINY, configs=CONFIGS)
        assert last_matrix_stats().hits_memory == 4

    def test_store_hit_refills_memory_cache(self, tmp_path):
        clear_cell_cache()
        path = tmp_path / "s.db"
        run_matrix(("DMA-SR",), TINY, configs=CONFIGS, store=path)
        clear_cell_cache()
        run_matrix(("DMA-SR",), TINY, configs=CONFIGS, store=path)
        run_matrix(("DMA-SR",), TINY, configs=CONFIGS, store=path)
        assert last_matrix_stats().hits_memory == 4


class TestResume:
    def test_killed_run_resumes_bit_identically(self, tmp_path, monkeypatch):
        clear_cell_cache()
        cold = run_matrix(POLICIES, TINY, configs=CONFIGS, use_cache=False)

        path = tmp_path / "s.db"
        calls = []

        def dies_after_three(program, policy, config, **kwargs):
            if len(calls) == 3:
                raise KeyboardInterrupt("simulated kill")
            calls.append(program.name)
            return run_policy_on_program(program, policy, config, **kwargs)

        monkeypatch.setattr(runner_module, "run_policy_on_program",
                            dies_after_three)
        clear_cell_cache()
        with pytest.raises(KeyboardInterrupt):
            run_matrix(POLICIES, TINY, configs=CONFIGS, store=path)
        monkeypatch.undo()

        with ExperimentStore(path) as store:
            assert len(store) == 3  # completed cells survived the kill
            (run,) = store.runs()
            assert run["status"] == "failed"

        clear_cell_cache()
        resumed = run_matrix(POLICIES, TINY, configs=CONFIGS, store=path)
        stats = last_matrix_stats()
        assert stats.hits_store == 3
        assert stats.computed == 5
        assert resumed == cold  # bit-identical to the never-killed run

        with ExperimentStore(path) as store:
            runs = store.runs()
            assert sorted(r["status"] for r in runs) == ["complete", "failed"]

    def test_resume_preserves_seed_assignment(self, tmp_path):
        """A store warmed by a partial policy list still hits: deterministic
        cells share keys across matrix shapes, stochastic ones re-run."""
        clear_cell_cache()
        path = tmp_path / "s.db"
        run_matrix(("DMA-SR",), TINY, configs=CONFIGS, store=path)
        clear_cell_cache()
        run_matrix(POLICIES, TINY, configs=CONFIGS, store=path)
        stats = last_matrix_stats()
        assert stats.hits_store == 4   # the deterministic DMA-SR cells
        assert stats.computed == 4     # the seed-keyed GA cells


class TestSharding:
    def test_parse_shard(self):
        assert parse_shard("0/2") == (0, 2)
        assert parse_shard("3/4") == (3, 4)
        for bad in ("2/2", "-1/2", "0/0", "x/y", "1"):
            with pytest.raises(ValueError):
                parse_shard(bad)

    def test_shards_partition_the_matrix(self):
        clear_cell_cache()
        full = run_matrix(POLICIES, TINY, configs=CONFIGS, use_cache=False)
        parts = []
        total_cells = 0
        for i in range(3):
            clear_cell_cache()
            part = run_matrix(POLICIES, TINY, configs=CONFIGS,
                              shard=(i, 3), use_cache=False)
            stats = last_matrix_stats()
            assert stats.cells_total + stats.sharded_out == 8
            total_cells += stats.cells_total
            parts.append(part)
        assert total_cells == 8  # disjoint and covering
        merged = {}
        for part in parts:
            assert not set(part) & set(merged)
            merged.update(part)
        assert merged == full  # union bit-identical to the unsharded run

    def test_merged_shard_stores_regenerate_unsharded(self, tmp_path):
        clear_cell_cache()
        full = run_matrix(POLICIES, TINY, configs=CONFIGS, use_cache=False)
        a, b = tmp_path / "a.db", tmp_path / "b.db"
        clear_cell_cache()
        run_matrix(POLICIES, TINY, configs=CONFIGS, shard="0/2", store=a)
        clear_cell_cache()
        run_matrix(POLICIES, TINY, configs=CONFIGS, shard="1/2", store=b)
        merged_path = tmp_path / "m.db"
        with ExperimentStore(merged_path) as merged:
            merged.merge_from(a)
            merged.merge_from(b)
            assert len(merged) == 8
        clear_cell_cache()
        regenerated = run_matrix(POLICIES, TINY, configs=CONFIGS,
                                 store=merged_path, offline=True)
        assert last_matrix_stats().computed == 0
        assert regenerated == full


class TestOffline:
    def test_offline_cold_store_raises(self, tmp_path):
        clear_cell_cache()
        with pytest.raises(ExperimentError, match="missing from the store"):
            run_matrix(POLICIES, TINY, configs=CONFIGS,
                       store=tmp_path / "cold.db", offline=True)

    def test_offline_warm_store_serves_everything(self, tmp_path):
        clear_cell_cache()
        path = tmp_path / "s.db"
        cold = run_matrix(POLICIES, TINY, configs=CONFIGS, store=path)
        clear_cell_cache()
        warm = run_matrix(POLICIES, TINY, configs=CONFIGS, store=path,
                          offline=True)
        assert warm == cold


class TestSchemaInvalidation:
    def test_stale_store_recomputes_cleanly(self, tmp_path, monkeypatch):
        clear_cell_cache()
        path = tmp_path / "s.db"
        cold = run_matrix(POLICIES, TINY, configs=CONFIGS, store=path)
        monkeypatch.setattr(schema, "SCHEMA_VERSION", schema.SCHEMA_VERSION + 1)
        clear_cell_cache()
        again = run_matrix(POLICIES, TINY, configs=CONFIGS, store=path)
        stats = last_matrix_stats()
        assert stats.hits_store == 0  # stale rows discarded, not misread
        assert stats.computed == 8
        assert again == cold


class TestExperimentRegeneration:
    def test_fig4_warm_rerun_is_byte_identical(self, tmp_path):
        """The acceptance criterion, at library level: zero recomputation
        and byte-identical report output against a warm store."""
        from dataclasses import replace

        # 2 benchmarks x 4 configs x 6 paper policies
        cells = 2 * 4 * 6
        profile = replace(TINY, store=str(tmp_path / "s.db"))
        clear_cell_cache()
        cold = experiment_fig4(profile)
        assert last_matrix_stats().computed == cells
        clear_cell_cache()
        warm = experiment_fig4(profile)
        stats = last_matrix_stats()
        assert stats.computed == 0
        assert stats.hits_store == stats.cells_total == cells
        assert render_experiment(warm) == render_experiment(cold)
        assert render_experiment_json(warm) == render_experiment_json(cold)

    def test_populate_matrix_fills_store_for_report(self, tmp_path):
        from dataclasses import replace

        from repro.eval.experiments import experiment_fig6

        path = str(tmp_path / "s.db")
        clear_cell_cache()
        stats = populate_matrix("fig6", TINY, store=path)
        assert stats.computed == stats.cells_total > 0
        clear_cell_cache()
        profile = replace(TINY, store=path, offline=True)
        result = experiment_fig6(profile)
        assert last_matrix_stats().computed == 0
        assert result.rows

    def test_populate_matrix_rejects_non_matrix_experiment(self):
        with pytest.raises(ExperimentError, match="not a matrix experiment"):
            populate_matrix("table1", TINY)

    def test_enqueue_matrix_rejects_non_matrix_experiment(self, tmp_path):
        with pytest.raises(ExperimentError, match="not a matrix experiment"):
            enqueue_matrix("table1", TINY, store=str(tmp_path / "s.db"))

    def test_serve_rejects_non_matrix_experiment_before_any_work(
        self, tmp_path
    ):
        from repro.eval.service import serve_loop

        path = tmp_path / "s.db"
        with pytest.raises(ExperimentError, match="not a matrix experiment"):
            serve_loop(path, ["fig6", "table1"], TINY)
        assert not path.exists()  # validated before the store opened


class TestFaultedCellKeys:
    def test_faulted_and_clean_cells_coexist_and_resume_warm(self, tmp_path):
        """Fault params are content-addressed: clean and faulted sweeps
        share one store under distinct keys, and each resumes 100% warm."""
        from dataclasses import replace

        clear_cell_cache()
        path = tmp_path / "s.db"
        clean = run_matrix(("DMA-SR",), TINY, configs=CONFIGS, store=path)
        faulted_profile = replace(TINY, fault_rate=0.05)
        faulted = run_matrix(("DMA-SR",), faulted_profile, configs=CONFIGS,
                             store=path)
        stats = last_matrix_stats()
        assert stats.computed == 4  # no false hits on the clean cells
        with ExperimentStore(path) as s:
            assert len(s) == 8  # 4 clean + 4 faulted rows
        assert all(c.report.fault_injected == 0 for c in clean.values())
        assert any(c.report.fault_injected > 0 for c in faulted.values())

        clear_cell_cache()
        again = run_matrix(("DMA-SR",), TINY, configs=CONFIGS, store=path)
        stats = last_matrix_stats()
        assert (stats.hits_store, stats.computed) == (4, 0)
        assert again == clean
        clear_cell_cache()
        again = run_matrix(("DMA-SR",), faulted_profile, configs=CONFIGS,
                           store=path)
        stats = last_matrix_stats()
        assert (stats.hits_store, stats.computed) == (4, 0)
        assert again == faulted  # bit-identical, drift histogram included

    def test_fault_params_distinguish_keys(self, tmp_path):
        """Rate, seed-bearing model and scrub cadence all key separately."""
        from dataclasses import replace

        clear_cell_cache()
        path = tmp_path / "s.db"
        variants = (
            replace(TINY, fault_rate=0.05),
            replace(TINY, fault_rate=0.1),
            replace(TINY, fault_rate=0.05, scrub_interval=50),
        )
        for profile in variants:
            run_matrix(("DMA-SR",), profile, configs=CONFIGS, store=path)
            assert last_matrix_stats().computed == 4
        with ExperimentStore(path) as s:
            assert len(s) == 12


class TestEnqueueMode:
    """``run_matrix(enqueue=True)``: submit instead of simulate."""

    def test_enqueue_worker_drain_offline_bit_identical(self, tmp_path):
        from repro.eval.service import worker_loop
        from repro.store import WorkQueue

        clear_cell_cache()
        path = tmp_path / "s.db"
        submitted = run_matrix(POLICIES, TINY, configs=CONFIGS, store=path,
                               enqueue=True)
        stats = last_matrix_stats()
        assert submitted == {}  # nothing computed locally
        assert (stats.cells_total, stats.enqueued, stats.computed) == (8, 8, 0)

        outcome = worker_loop(path, drain=True, batch=3, lease_s=30)
        assert (outcome["computed"], outcome["failed"]) == (8, 0)

        clear_cell_cache()
        via_queue = run_matrix(POLICIES, TINY, configs=CONFIGS, store=path,
                               offline=True)
        stats = last_matrix_stats()
        # Remotely computed cells are store hits, all credited to the queue.
        assert (stats.hits_store, stats.hits_queue, stats.computed) == (8, 8, 0)

        clear_cell_cache()
        cold = run_matrix(POLICIES, TINY, configs=CONFIGS, workers=1)
        assert via_queue == cold  # dataclass eq: every float bit-exact

    def test_enqueue_skips_warm_cells(self, tmp_path):
        clear_cell_cache()
        path = tmp_path / "s.db"
        run_matrix(("DMA-SR",), TINY, configs=CONFIGS, store=path)
        clear_cell_cache()
        run_matrix(POLICIES, TINY, configs=CONFIGS, store=path, enqueue=True)
        stats = last_matrix_stats()
        # The 4 DMA-SR cells are warm; only GA's 4 cells hit the queue.
        assert (stats.hits_store, stats.enqueued) == (4, 4)
        assert stats.hits_queue == 0  # warm cells were computed locally

    def test_enqueue_resubmission_is_idempotent(self, tmp_path):
        from repro.store import ExperimentStore, WorkQueue

        clear_cell_cache()
        path = tmp_path / "s.db"
        for _ in range(2):
            run_matrix(POLICIES, TINY, configs=CONFIGS, store=path,
                       enqueue=True)
        with ExperimentStore(path) as store:
            assert WorkQueue(store).counts()["open"] == 8

    def test_enqueue_requires_store(self):
        with pytest.raises(ExperimentError, match="store"):
            run_matrix(POLICIES, TINY, configs=CONFIGS, enqueue=True)

    def test_enqueue_conflicts_with_offline(self, tmp_path):
        with pytest.raises(ExperimentError, match="offline"):
            run_matrix(POLICIES, TINY, configs=CONFIGS,
                       store=tmp_path / "s.db", enqueue=True, offline=True)

    def test_enqueue_refuses_explicit_programs(self, tmp_path):
        from repro.eval.runner import load_suite

        with pytest.raises(ExperimentError, match="workload"):
            run_matrix(POLICIES, TINY, configs=CONFIGS,
                       store=tmp_path / "s.db", enqueue=True,
                       programs=load_suite(TINY))
