"""``stream=1`` file workloads: a residency knob, never a semantic one.

The acceptance path for streamed workloads: identical matrix cells and
store keys as the in-memory ``stream=0`` run (a stream=1 rerun must be
100% store hits), kill-and-resume mid-stream, and clean rejection of
the combinations streaming cannot honour.
"""

from dataclasses import replace

import numpy as np
import pytest

import repro.eval.runner as runner_module
from repro.errors import WorkloadError
from repro.eval.profiles import EvalProfile
from repro.eval.runner import (
    clear_cell_cache,
    last_matrix_stats,
    run_matrix,
    run_policy_on_program,
)
from repro.rtm.geometry import iso_capacity_sweep
from repro.store import ExperimentStore
from repro.workloads import (
    WorkloadContext,
    resolve_workloads,
    workload_fingerprint,
)

CONFIGS = iso_capacity_sweep(dbc_counts=(2, 4))
POLICIES = ("DMA-SR", "GA")  # one deterministic, one seed-keyed


def write_trace_file(path, seed=0, accesses=800, words=40):
    rng = np.random.default_rng(seed)
    probs = 1.0 / np.arange(1, words + 1) ** 1.2
    probs /= probs.sum()
    idx = rng.choice(words, size=accesses, p=probs)
    path.write_text("".join(f"0x{0x400 + 8 * a:x}\n" for a in idx))
    return path


def profile_for(spec):
    return EvalProfile(
        name="stream-acceptance",
        suite_scale=1.0,
        ga_options={"mu": 6, "lam": 6, "generations": 3},
        rw_iterations=20,
        workloads=(spec,),
    )


@pytest.fixture
def trace_file(tmp_path):
    return write_trace_file(tmp_path / "app.trc")


class TestResolution:
    def test_streamed_program_has_streaming_trace(self, trace_file):
        ctx = WorkloadContext()
        (program,) = resolve_workloads(
            (f"file:{trace_file},stream=1,chunk=100",), ctx
        )
        (trace,) = program.traces
        assert hasattr(trace, "chunks")
        assert trace.chunk == 100

    def test_program_name_ignores_residency_params(self, trace_file):
        ctx = WorkloadContext()
        (inmem,) = resolve_workloads((f"file:{trace_file}",), ctx)
        (stream,) = resolve_workloads(
            (f"file:{trace_file},stream=1,chunk=64",), ctx
        )
        assert stream.name == inmem.name

    def test_every_stream_spelling_is_one_workload(self, trace_file):
        programs = resolve_workloads(
            (f"file:{trace_file}", f"file:{trace_file},stream=0",
             f"file:{trace_file},stream=1"),
            WorkloadContext(),
        )
        assert len({p.name for p in programs}) == 1
        assert len({workload_fingerprint(p) for p in programs}) == 1

    def test_window_stays_in_the_name(self, trace_file):
        """window changes placements, so it must stay key-relevant."""
        ctx = WorkloadContext()
        (plain,) = resolve_workloads(
            (f"file:{trace_file},stream=1",), ctx
        )
        (windowed,) = resolve_workloads(
            (f"file:{trace_file},stream=1,window=200",), ctx
        )
        assert windowed.name != plain.name
        assert "window=200" in windowed.name

    def test_chunk_without_stream_rejected(self, trace_file):
        with pytest.raises(WorkloadError, match="only apply with stream=1"):
            resolve_workloads(
                (f"file:{trace_file},chunk=64",), WorkloadContext()
            )

    def test_transforms_rejected_for_streaming(self, trace_file):
        with pytest.raises(WorkloadError, match="stream=0"):
            resolve_workloads(
                (f"file:{trace_file},stream=1@interleave=2",),
                WorkloadContext(),
            )

    def test_native_files_cannot_stream(self, tmp_path, trace_file):
        from repro.trace.io import load_traces, write_traces

        native = tmp_path / "native.trc"
        write_traces(native, load_traces(trace_file))
        with pytest.raises(WorkloadError, match="address traces"):
            resolve_workloads(
                (f"file:{native},stream=1",), WorkloadContext()
            )


class TestMatrixEquivalence:
    def test_streamed_cells_equal_inmem_cells(self, trace_file):
        inmem = profile_for(f"file:{trace_file},word=8")
        stream = profile_for(f"file:{trace_file},word=8,stream=1,chunk=97")
        clear_cell_cache()
        a = run_matrix(POLICIES, inmem, configs=CONFIGS, use_cache=False)
        clear_cell_cache()
        b = run_matrix(POLICIES, stream, configs=CONFIGS, use_cache=False)
        assert set(a) == set(b)
        for key in a:
            assert a[key].shifts == b[key].shifts
            assert a[key].report == b[key].report

    def test_streamed_run_hits_inmem_store_cells(self, tmp_path, trace_file):
        """stream=1 against a stream=0-populated store: 100% hits."""
        store_path = tmp_path / "s.db"
        inmem = profile_for(f"file:{trace_file},word=8")
        stream = profile_for(f"file:{trace_file},word=8,stream=1,chunk=97")
        clear_cell_cache()
        cold = run_matrix(POLICIES, inmem, configs=CONFIGS, store=store_path)
        clear_cell_cache()
        warm = run_matrix(POLICIES, stream, configs=CONFIGS, store=store_path)
        stats = last_matrix_stats()
        assert stats.computed == 0
        assert stats.hits_store == len(cold) == 4
        assert warm == cold

    def test_stream_zero_store_serves_stream_one(self, tmp_path, trace_file):
        store_path = tmp_path / "s.db"
        explicit = profile_for(f"file:{trace_file},word=8,stream=0")
        stream = profile_for(f"file:{trace_file},word=8,stream=1")
        clear_cell_cache()
        cold = run_matrix(POLICIES, explicit, configs=CONFIGS,
                          store=store_path)
        clear_cell_cache()
        warm = run_matrix(POLICIES, stream, configs=CONFIGS, store=store_path)
        stats = last_matrix_stats()
        assert stats.computed == 0
        assert stats.hits_store == len(cold) == 4
        assert warm == cold

    def test_kill_mid_stream_resumes_bit_identically(
        self, tmp_path, trace_file, monkeypatch
    ):
        store_path = tmp_path / "s.db"
        stream = profile_for(f"file:{trace_file},word=8,stream=1,chunk=97")
        clear_cell_cache()
        cold = run_matrix(POLICIES, stream, configs=CONFIGS, use_cache=False)

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
            run_matrix(POLICIES, stream, configs=CONFIGS, store=store_path)
        monkeypatch.undo()
        with ExperimentStore(store_path) as store:
            assert len(store) == 2

        clear_cell_cache()
        resumed = run_matrix(POLICIES, stream, configs=CONFIGS,
                             store=store_path)
        stats = last_matrix_stats()
        assert stats.hits_store == 2 and stats.computed == 2
        assert resumed == cold

    def test_streamed_workers_match_serial(self, trace_file):
        """Streaming traces survive the pool's pickling round-trip."""
        stream = profile_for(f"file:{trace_file},word=8,stream=1,chunk=97")
        clear_cell_cache()
        serial = run_matrix(POLICIES, stream, configs=CONFIGS,
                            use_cache=False)
        clear_cell_cache()
        pooled = run_matrix(POLICIES, replace(stream, workers=2),
                            configs=CONFIGS, use_cache=False)
        assert pooled == serial
