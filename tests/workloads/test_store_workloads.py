"""External-trace workloads through the persistent store (acceptance path).

An external ``file:`` workload must behave exactly like a synthetic one:
populate the store, survive kill-and-resume bit-identically, and
regenerate its results offline with zero simulation.
"""

from dataclasses import replace

import pytest

import repro.eval.runner as runner_module
from repro.errors import ExperimentError
from repro.eval.profiles import EvalProfile
from repro.eval.runner import (
    clear_cell_cache,
    last_matrix_stats,
    run_matrix,
    run_policy_on_program,
)
from repro.rtm.geometry import iso_capacity_sweep
from repro.store import ExperimentStore
from repro.trace.io import write_traces
from repro.trace.trace import MemoryTrace
from repro.trace.generators.synthetic import phased_sequence

CONFIGS = iso_capacity_sweep(dbc_counts=(2, 4))
POLICIES = ("DMA-SR", "GA")  # one deterministic, one seed-keyed


@pytest.fixture
def external_profile(tmp_path):
    """A profile whose whole suite is one external trace file."""
    seqs = [
        phased_sequence(4, 5, 40, shared_vars=2, rng=s, name=f"p{s}")
        for s in (0, 1)
    ]
    path = tmp_path / "app.trc"
    write_traces(path, [MemoryTrace(s) for s in seqs])
    return EvalProfile(
        name="external",
        suite_scale=1.0,
        ga_options={"mu": 6, "lam": 6, "generations": 3},
        rw_iterations=20,
        workloads=(f"file:{path}@interleave=2",),
    )


class TestExternalTraceStore:
    def test_populates_resumes_and_regenerates(
        self, tmp_path, external_profile, monkeypatch
    ):
        store_path = tmp_path / "s.db"

        # Reference run: no store, no cache.
        clear_cell_cache()
        cold = run_matrix(POLICIES, external_profile, configs=CONFIGS,
                          use_cache=False)
        assert len(cold) == 4  # 1 workload x 2 configs x 2 policies

        # Kill mid-run; completed cells must survive on disk.
        calls = []

        def dies_after_two(program, policy, config, **kwargs):
            if len(calls) == 2:
                raise KeyboardInterrupt("simulated kill")
            calls.append(program.name)
            return run_policy_on_program(program, policy, config, **kwargs)

        monkeypatch.setattr(runner_module, "run_policy_on_program",
                            dies_after_two)
        clear_cell_cache()
        with pytest.raises(KeyboardInterrupt):
            run_matrix(POLICIES, external_profile, configs=CONFIGS,
                       store=store_path)
        monkeypatch.undo()
        with ExperimentStore(store_path) as store:
            assert len(store) == 2

        # Resume: stored cells hit, the rest compute, bit-identical.
        clear_cell_cache()
        resumed = run_matrix(POLICIES, external_profile, configs=CONFIGS,
                             store=store_path)
        stats = last_matrix_stats()
        assert stats.hits_store == 2 and stats.computed == 2
        assert resumed == cold

        # Offline regeneration: zero simulation.
        clear_cell_cache()
        offline = run_matrix(POLICIES, replace(external_profile, offline=True),
                             configs=CONFIGS, store=store_path)
        assert last_matrix_stats().computed == 0
        assert offline == cold

    def test_changed_trace_file_misses_the_store(
        self, tmp_path, external_profile
    ):
        store_path = tmp_path / "s.db"
        clear_cell_cache()
        run_matrix(("DMA-SR",), external_profile, configs=CONFIGS,
                   store=store_path)
        # Rewrite the trace file: the content-addressed keys must change.
        spec = external_profile.workloads[0]
        path = spec[len("file:"):].split("@")[0]
        seq = phased_sequence(3, 4, 30, rng=9, name="other")
        write_traces(path, [MemoryTrace(seq)])
        clear_cell_cache()
        with pytest.raises(ExperimentError, match="missing from the store"):
            run_matrix(("DMA-SR",), replace(external_profile, offline=True),
                       configs=CONFIGS, store=store_path)

    def test_manifest_records_workload_specs(self, tmp_path, external_profile):
        store_path = tmp_path / "s.db"
        clear_cell_cache()
        run_matrix(("DMA-SR",), external_profile, configs=CONFIGS,
                   store=store_path)
        with ExperimentStore(store_path) as store:
            (run,) = store.runs()
        assert run["manifest"]["profile"]["workloads"] == list(
            external_profile.workloads
        )

    def test_sharded_external_workload(self, tmp_path, external_profile):
        clear_cell_cache()
        full = run_matrix(POLICIES, external_profile, configs=CONFIGS,
                          use_cache=False)
        merged = {}
        for i in range(2):
            clear_cell_cache()
            part = run_matrix(POLICIES, external_profile, configs=CONFIGS,
                              shard=(i, 2), use_cache=False)
            assert not set(part) & set(merged)
            merged.update(part)
        assert merged == full
