"""Unit tests for the experiment matrix runner."""

import json
import os
import sqlite3
import subprocess
import sys
from contextlib import closing
from dataclasses import FrozenInstanceError, replace
from pathlib import Path

import pytest

import repro
from repro.core.policies import get_policy
from repro.engine import NumpyBackend
from repro.engine.faults import FaultModel
from repro.errors import ExperimentError, SolverError
from repro.eval.profiles import EvalProfile
from repro.eval.runner import (
    CellRecipe,
    clear_cell_cache,
    last_matrix_stats,
    load_suite,
    policy_specs,
    run_matrix,
    run_policy_on_program,
)
from repro.rtm.geometry import RTMConfig, iso_capacity_sweep
from repro.trace.generators.offsetstone import load_benchmark
from repro.workloads import WorkloadContext

TINY = EvalProfile(
    name="tiny",
    suite_scale=0.12,
    ga_options={"mu": 6, "lam": 6, "generations": 3},
    rw_iterations=20,
    benchmarks=("adpcm", "dct"),
)


@pytest.fixture(scope="module")
def tiny_matrix():
    return run_matrix(("AFD-OFU", "DMA-SR"), TINY,
                      configs=iso_capacity_sweep(dbc_counts=(2, 4)))


class TestRunPolicyOnProgram:
    def test_cell_aggregates_all_traces(self):
        bench = load_benchmark("adpcm", scale=0.12, seed=TINY.seed)
        config = iso_capacity_sweep(dbc_counts=(4,))[0]
        cell = run_policy_on_program(bench, get_policy("DMA-SR"), config)
        assert cell.report.accesses == bench.total_accesses
        assert cell.benchmark == "adpcm"
        assert cell.dbcs == 4
        assert cell.policy == "DMA-SR"

    def test_analytic_equals_simulated_shifts(self):
        bench = load_benchmark("dct", scale=0.12, seed=TINY.seed)
        config = iso_capacity_sweep(dbc_counts=(4,))[0]
        cell = run_policy_on_program(bench, get_policy("AFD-OFU"), config)
        assert cell.shifts == cell.report.shifts


class TestRunMatrix:
    def test_all_cells_present(self, tiny_matrix):
        keys = set(tiny_matrix)
        assert ("adpcm", "AFD-OFU", 2) in keys
        assert ("dct", "DMA-SR", 4) in keys
        assert len(keys) == 2 * 2 * 2

    def test_cells_deterministic_across_runs(self, tiny_matrix):
        again = run_matrix(("AFD-OFU", "DMA-SR"), TINY,
                           configs=iso_capacity_sweep(dbc_counts=(2, 4)))
        for key, cell in tiny_matrix.items():
            assert again[key].shifts == cell.shifts

    def test_metrics_positive(self, tiny_matrix):
        for cell in tiny_matrix.values():
            assert cell.report.runtime_ns > 0
            assert cell.report.total_energy_pj > 0


class TestBuildPolicies:
    def test_load_suite_respects_benchmark_list(self):
        suite = load_suite(TINY)
        assert [b.name for b in suite] == ["adpcm", "dct"]

    def test_specs_are_picklable_recipes(self):
        import pickle
        specs = policy_specs(("GA", "RW", "DMA-SR"), TINY)
        assert specs == [
            ("GA", {"mu": 6, "lam": 6, "generations": 3}),
            ("RW", {"iterations": 20}),
            ("DMA-SR", {}),
        ]
        rebuilt = [get_policy(n, **kw) for n, kw in pickle.loads(
            pickle.dumps(specs))]
        assert [p.name for p in rebuilt] == ["GA", "RW", "DMA-SR"]

    def test_search_scale_grows_ga_population_and_rw_budget(self):
        scaled = replace(TINY, search_scale=3.0)
        specs = dict(policy_specs(("GA", "RW", "DMA-SR"), scaled))
        assert specs["GA"]["mu"] == 18
        assert specs["GA"]["lam"] == 18
        assert specs["GA"]["generations"] == 3  # iterations not scaled
        assert specs["RW"]["iterations"] == 60
        assert specs["DMA-SR"] == {}

    def test_search_scale_uses_paper_defaults_when_unset(self):
        scaled = replace(TINY, ga_options={}, search_scale=0.5)
        specs = dict(policy_specs(("GA",), scaled))
        assert specs["GA"] == {"mu": 50, "lam": 50}

    def test_default_scale_leaves_specs_untouched(self):
        # The matrix runner's cell cache keys hash the specs; scale 1.0
        # must be a no-op so existing cached cells stay valid.
        assert policy_specs(("GA", "RW"), TINY) == [
            ("GA", {"mu": 6, "lam": 6, "generations": 3}),
            ("RW", {"iterations": 20}),
        ]


class TestParallelMatrix:
    CONFIGS = iso_capacity_sweep(dbc_counts=(2, 4))
    # GA/RW exercise the per-cell RNG streams; DMA-SR the deterministic path.
    POLICIES = ("DMA-SR", "GA", "RW")

    def test_workers_do_not_change_results(self):
        serial = run_matrix(self.POLICIES, replace(TINY, workers=1),
                            configs=self.CONFIGS, use_cache=False)
        parallel = run_matrix(self.POLICIES, replace(TINY, workers=4),
                              configs=self.CONFIGS, use_cache=False)
        assert set(serial) == set(parallel)
        for key, cell in serial.items():
            other = parallel[key]
            assert other.shifts == cell.shifts
            assert other.report == cell.report  # bit-identical, floats too

    def test_backends_agree_through_the_matrix(self):
        ref = run_matrix(("DMA-SR",),
                         replace(TINY, engine_backend="reference"),
                         configs=self.CONFIGS, use_cache=False)
        vec = run_matrix(("DMA-SR",), replace(TINY, engine_backend="numpy"),
                         configs=self.CONFIGS, use_cache=False)
        for key, cell in ref.items():
            assert vec[key].shifts == cell.shifts
            assert vec[key].report == cell.report

    def test_workers_zero_means_all_cores(self):
        cells = run_matrix(("DMA-SR",), replace(TINY, workers=0),
                           configs=iso_capacity_sweep(dbc_counts=(2,)),
                           use_cache=False)
        assert len(cells) == 2

    def test_negative_workers_rejected(self):
        with pytest.raises(ExperimentError):
            run_matrix(("DMA-SR",), replace(TINY, workers=-1),
                       configs=self.CONFIGS)


class TestCellCache:
    CONFIGS = iso_capacity_sweep(dbc_counts=(2,))

    def test_repeat_runs_served_from_cache(self, monkeypatch):
        clear_cell_cache()
        first = run_matrix(("DMA-SR", "GA"), TINY, configs=self.CONFIGS,
                           use_cache=True)

        def boom(*args, **kwargs):  # any recomputation is a cache miss
            raise AssertionError("cell recomputed despite cache")

        monkeypatch.setattr("repro.eval.runner.run_policy_on_program", boom)
        again = run_matrix(("DMA-SR", "GA"), TINY, configs=self.CONFIGS,
                           use_cache=True)
        assert set(again) == set(first)
        for key, cell in first.items():
            assert again[key].report == cell.report

    def test_deterministic_cells_shared_across_matrix_shapes(self, monkeypatch):
        # Policy subsets reshuffle seed streams; deterministic cells must
        # still hit (their key omits the seed), stochastic ones must not.
        clear_cell_cache()
        run_matrix(("DMA-SR", "GA"), TINY, configs=self.CONFIGS,
                   use_cache=True)
        calls = []
        import repro.eval.runner as runner_module
        real = run_policy_on_program

        def spy(program, policy, config, **kwargs):
            calls.append(policy.name)
            return real(program, policy, config, **kwargs)

        monkeypatch.setattr(runner_module, "run_policy_on_program", spy)
        run_matrix(("AFD-OFU", "DMA-SR"), TINY, configs=self.CONFIGS,
                   use_cache=True)
        assert "DMA-SR" not in calls  # reused despite the new matrix shape
        assert "AFD-OFU" in calls

    def test_cache_can_be_bypassed(self, monkeypatch):
        clear_cell_cache()
        run_matrix(("DMA-SR",), TINY, configs=self.CONFIGS, use_cache=True)
        calls = []
        import repro.eval.runner as runner_module
        real = run_policy_on_program

        def spy(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(runner_module, "run_policy_on_program", spy)
        run_matrix(("DMA-SR",), TINY, configs=self.CONFIGS, use_cache=False)
        assert calls  # recomputed


class TestFaultedMatrix:
    CONFIGS = iso_capacity_sweep(dbc_counts=(2, 4))

    def _faulted(self, **kw):
        return replace(TINY, fault_rate=0.05, **kw)

    def test_workers_do_not_change_faulted_results(self):
        profile = self._faulted(scrub_interval=50)
        serial = run_matrix(("DMA-SR",), replace(profile, workers=1),
                            configs=self.CONFIGS, use_cache=False)
        parallel = run_matrix(("DMA-SR",), replace(profile, workers=2),
                              configs=self.CONFIGS, use_cache=False)
        assert set(serial) == set(parallel)
        for key, cell in serial.items():
            assert parallel[key].report == cell.report
        assert any(c.report.fault_injected for c in serial.values())

    def test_backends_agree_on_faulted_cells(self):
        profile = self._faulted()
        ref = run_matrix(("DMA-SR",),
                         replace(profile, engine_backend="reference"),
                         configs=self.CONFIGS, use_cache=False)
        vec = run_matrix(("DMA-SR",), replace(profile, engine_backend="numpy"),
                         configs=self.CONFIGS, use_cache=False)
        for key, cell in ref.items():
            assert vec[key].report == cell.report

    def test_invalid_fault_rate_fails_pointedly(self):
        with pytest.raises(ExperimentError, match="fault_rate"):
            run_matrix(("DMA-SR",), replace(TINY, fault_rate=2.0),
                       configs=self.CONFIGS, use_cache=False)

    def test_scrub_without_fault_fails_pointedly(self):
        with pytest.raises(ExperimentError, match="scrub_interval"):
            run_matrix(("DMA-SR",), replace(TINY, scrub_interval=10),
                       configs=self.CONFIGS, use_cache=False)


class TestCellRecipe:
    CONFIGS = iso_capacity_sweep(dbc_counts=(2, 4))

    def test_queue_payloads_round_trip_and_rekey(self, tmp_path):
        from repro.workloads import resolve_workload

        path = str(tmp_path / "s.db")
        profile = replace(TINY, fault_rate=0.05, scrub_interval=50)
        run_matrix(("DMA-SR", "GA"), profile, configs=self.CONFIGS,
                   store=path, enqueue=True, use_cache=False)
        with closing(sqlite3.connect(path)) as conn:
            rows = conn.execute("SELECT key, job FROM queue").fetchall()
        assert len(rows) == 8
        for key, text in rows:
            recipe = CellRecipe.from_json(json.loads(text))
            assert json.dumps(recipe.to_json(), sort_keys=True) == text
            program = resolve_workload(recipe.workload, recipe.context)
            assert recipe.key(program) == key

    def test_backend_instance_keys_cells_by_name(self, tmp_path):
        """An instance used to key cells by its repr, which embeds a
        memory address: no store hit ever crossed processes."""
        path = str(tmp_path / "s.db")
        clear_cell_cache()
        run_matrix(("DMA-SR", "GA"),
                   replace(TINY, engine_backend=NumpyBackend()),
                   configs=self.CONFIGS, store=path)
        clear_cell_cache()
        run_matrix(("DMA-SR", "GA"), replace(TINY, engine_backend="numpy"),
                   configs=self.CONFIGS, store=path)
        stats = last_matrix_stats()
        assert stats.cells_total == stats.hits_store == 8

    def test_unregistered_backend_instance_rejected(self):
        class Custom:
            name = "custom"

            def run(self, request):
                raise AssertionError("never reached")

        with pytest.raises(ExperimentError, match="unknown engine backend"):
            run_matrix(("DMA-SR",), replace(TINY, engine_backend=Custom()),
                       configs=self.CONFIGS, use_cache=False)

    @pytest.mark.parametrize("policy,change", [
        ("RW", {"rw_iterations": 0}),
        ("GA", {"ga_options": {**TINY.ga_options, "patience": 0}}),
    ])
    def test_invalid_search_options_fail_before_anything_is_queued(
        self, tmp_path, policy, change
    ):
        path = str(tmp_path / "s.db")
        with pytest.raises(SolverError):
            run_matrix((policy,), replace(TINY, **change), configs=self.CONFIGS,
                       store=path, enqueue=True, use_cache=False)
        with closing(sqlite3.connect(path)) as conn:
            assert conn.execute("SELECT COUNT(*) FROM queue").fetchone() == (0,)

    # -- the recipe itself ---------------------------------------------------

    GA = ("GA", {"mu": 6, "lam": 6, "generations": 3})

    @pytest.fixture(scope="class")
    def adpcm(self):
        return load_benchmark("adpcm", scale=0.12, seed=TINY.seed)

    def recipe(self, **changes):
        """A faulted, scrubbed GA recipe for the 4-DBC geometry."""
        base = CellRecipe(
            self.GA, self.CONFIGS[1], 11, "numpy",
            FaultModel(rate=0.01, seed=7, scrub_interval=64),
            "adpcm", WorkloadContext.from_profile(TINY),
        )
        return replace(base, **changes)

    def test_recipe_is_frozen(self):
        with pytest.raises(FrozenInstanceError):
            self.recipe().seed = 12

    @pytest.mark.parametrize("policy,seeded", [
        (("DMA-SR", {}), False),
        (GA, True),
    ], ids=["deterministic", "stochastic"])
    def test_key_hashes_seed_only_for_stochastic_policies(self, adpcm, policy,
                                                          seeded):
        recipe = self.recipe(policy=policy)
        reseeded = replace(recipe, seed=recipe.seed + 1)
        assert (recipe.key(adpcm) != reseeded.key(adpcm)) == seeded

    @pytest.mark.parametrize("change", [
        {"policy": ("GA", {"mu": 8, "lam": 6, "generations": 3})},
        {"config": RTMConfig(dbcs=4, domains_per_track=64,
                             ports_per_track=2)},
        {"seed": 12},
        {"backend": "reference"},
        {"backend": None},
        {"fault": FaultModel(rate=0.02, seed=7, scrub_interval=64)},
        {"fault": FaultModel(rate=0.01, seed=8, scrub_interval=64)},
        {"fault": FaultModel(rate=0.01, seed=7, scrub_interval=32)},
        {"fault": None},
    ], ids=["policy-options", "geometry", "seed", "backend", "no-backend",
            "fault-rate", "fault-seed", "scrub-interval", "clean"])
    def test_every_recipe_field_moves_the_key(self, adpcm, change):
        assert self.recipe(**change).key(adpcm) != self.recipe().key(adpcm)

    def test_key_ignores_how_the_workload_is_named(self, adpcm):
        """The key hashes the resolved program, so a registry cell and the
        same program passed explicitly share one store entry."""
        explicit = self.recipe(workload=None, context=None)
        assert explicit.key(adpcm) == self.recipe().key(adpcm)

    @pytest.mark.parametrize("faulted", [False, True],
                             ids=["clean", "faulted"])
    def test_compute_is_run_policy_on_program(self, adpcm, faulted):
        recipe = self.recipe()
        if not faulted:
            recipe = replace(recipe, fault=None)
        direct = run_policy_on_program(
            adpcm, get_policy(self.GA[0], **self.GA[1]), recipe.config,
            rng=recipe.seed, backend="numpy", fault=recipe.fault,
        )
        assert recipe.compute(adpcm) == direct

    def test_payload_round_trip_is_lossless(self):
        recipe = self.recipe()
        payload = json.loads(json.dumps(recipe.to_json(), sort_keys=True))
        assert CellRecipe.from_json(payload) == recipe

    def test_payload_without_optional_fields_decodes_clean(self):
        """Rows queued before backends and faults were recorded carry none
        of those fields: they decode to a clean default-backend recipe."""
        payload = self.recipe().to_json()
        for field in ("backend", "fault", "scrub_interval"):
            del payload[field]
        recipe = CellRecipe.from_json(payload)
        assert (recipe.backend, recipe.fault) == (None, None)
        assert recipe == self.recipe(backend=None, fault=None)

    def test_worker_computes_the_recipe_cell(self):
        from repro.eval.service import compute_job
        from repro.workloads import resolve_workload

        recipe = self.recipe()
        program = resolve_workload(recipe.workload, recipe.context)
        cell = compute_job(recipe.to_json(), expected_key=recipe.key(program))
        assert cell == recipe.compute(program)

    def test_backend_instance_store_hits_across_processes(self, tmp_path):
        """The reported failure: one cell keyed three ways in three
        processes. A store filled by another process with its own
        backend instance must serve every cell."""
        path = str(tmp_path / "s.db")
        fill = (
            "from dataclasses import replace\n"
            "from repro.engine import NumpyBackend\n"
            "from repro.eval.profiles import EvalProfile\n"
            "from repro.eval.runner import run_matrix\n"
            "from repro.rtm.geometry import iso_capacity_sweep\n"
            "profile = EvalProfile(name='tiny', suite_scale=0.12,\n"
            "    ga_options={'mu': 6, 'lam': 6, 'generations': 3},\n"
            "    rw_iterations=20, benchmarks=('adpcm', 'dct'))\n"
            "run_matrix(('DMA-SR', 'GA'),\n"
            "    replace(profile, engine_backend=NumpyBackend()),\n"
            "    configs=iso_capacity_sweep(dbc_counts=(2, 4)),\n"
            f"    store={path!r})\n"
        )
        src = str(Path(repro.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        subprocess.run([sys.executable, "-c", fill], env=env, check=True,
                       timeout=300)
        clear_cell_cache()
        run_matrix(("DMA-SR", "GA"),
                   replace(TINY, engine_backend=NumpyBackend()),
                   configs=self.CONFIGS, store=path)
        stats = last_matrix_stats()
        assert stats.cells_total == stats.hits_store == 8

    def test_manifest_records_backend_name_and_provenance(self, tmp_path):
        import platform

        from repro import __version__
        from repro.store import SCHEMA_VERSION, ExperimentStore

        path = str(tmp_path / "s.db")
        run_matrix(("DMA-SR",), replace(TINY, engine_backend=NumpyBackend()),
                   configs=self.CONFIGS, store=path, use_cache=False)
        with closing(ExperimentStore(path)) as store:
            manifest = store.runs()[0]["manifest"]
        assert manifest["backend"] == "numpy"
        assert manifest["package_version"] == __version__
        assert manifest["schema_version"] == SCHEMA_VERSION
        assert manifest["python"] == platform.python_version()

    @pytest.mark.parametrize("name", ["auto", "numba"])
    @pytest.mark.parametrize("via", ["profile"])
    def test_removed_backend_names_rejected(self, name, via):
        profile = replace(TINY, engine_backend=name)
        with pytest.raises(ExperimentError, match="unknown engine backend"):
            run_matrix(("DMA-SR",), profile, configs=self.CONFIGS,
                       use_cache=False)
