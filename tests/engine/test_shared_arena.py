"""SharedTraceArena: zero-copy rehydration, lifecycle, and fallbacks.

The arena serializes a suite's unique traces once into one
``multiprocessing.shared_memory`` block; pool workers attach views
instead of unpickling copies. These tests pin the rehydration's
equality with the originals, the zero-copy property itself, the
create → attach → close → unlink lifecycle (including a simulated
worker crash), the pickling fallback when shm is unavailable, and the
worker-state reset regression in the pool initializer.
"""

import glob
import multiprocessing
import os
from dataclasses import replace

import numpy as np
import pytest

from repro.engine.compile import (
    SharedTraceArena,
    compile_access_arrays,
    trace_fingerprint,
    try_create_arena,
)
from repro.trace.generators.offsetstone import BenchmarkProgram
from repro.trace.sequence import AccessSequence
from repro.trace.trace import MemoryTrace


def shm_segments():
    return set(glob.glob("/dev/shm/*"))


def make_program(name="prog", seed=0, traces=2, accesses=300):
    rng = np.random.default_rng(seed)
    out = []
    variables = tuple(f"v{i}" for i in range(12))
    for t in range(traces):
        codes = rng.integers(0, len(variables), accesses)
        seq = AccessSequence.from_codes(
            variables, codes.astype(np.int64), name=f"{name}_t{t}"
        )
        writes = rng.random(accesses) < 0.3
        out.append(MemoryTrace(seq, writes))
    return BenchmarkProgram(name=name, domain="synthetic", traces=tuple(out))


@pytest.fixture
def suite():
    return [make_program("a", seed=1), make_program("b", seed=2, traces=3)]


class TestRehydration:
    def test_programs_roundtrip_equal(self, suite):
        arena = SharedTraceArena.create(suite)
        try:
            attached = SharedTraceArena.attach(arena.spec)
            rebuilt = attached.programs()
            assert [p.name for p in rebuilt] == [p.name for p in suite]
            assert [p.domain for p in rebuilt] == [p.domain for p in suite]
            for orig, copy in zip(suite, rebuilt):
                for t_orig, t_copy in zip(orig.traces, copy.traces):
                    assert t_orig == t_copy
                    assert t_orig.sequence.name == t_copy.sequence.name
                    assert trace_fingerprint(t_orig) == trace_fingerprint(
                        t_copy
                    )
        finally:
            arena.dispose()

    def test_views_are_zero_copy_and_frozen(self, suite):
        arena = SharedTraceArena.create(suite)
        try:
            rebuilt = SharedTraceArena.attach(arena.spec).programs()
            trace = rebuilt[0].traces[0]
            codes = trace.sequence.codes
            assert not codes.flags.writeable
            assert not codes.flags.owndata  # a view, not a copy
            assert not trace.writes.flags.writeable
            assert not trace.writes.flags.owndata
        finally:
            arena.dispose()

    def test_duplicate_traces_share_one_entry(self):
        program = make_program("dup", seed=3, traces=1)
        twice = BenchmarkProgram(
            name="twice", domain="synthetic",
            traces=program.traces + program.traces,
        )
        arena = SharedTraceArena.create([twice])
        try:
            assert len(arena.spec.entries) == 1
            rebuilt = SharedTraceArena.attach(arena.spec).programs()
            t0, t1 = rebuilt[0].traces
            assert t0 is t1  # one rehydrated object, two references
        finally:
            arena.dispose()

    def test_compiled_arrays_match_original(self, suite):
        from repro.core.policies import get_policy

        arena = SharedTraceArena.create(suite)
        try:
            rebuilt = SharedTraceArena.attach(arena.spec).programs()
            policy = get_policy("AFD")
            for orig, copy in zip(suite, rebuilt):
                seq_o = orig.traces[0].sequence
                seq_c = copy.traces[0].sequence
                placement = policy.place(seq_o, 4, 16)
                a = compile_access_arrays(seq_o, placement)
                b = compile_access_arrays(seq_c, placement)
                assert np.array_equal(a[0], b[0])
                assert np.array_equal(a[1], b[1])
        finally:
            arena.dispose()


class TestLifecycle:
    def test_dispose_unlinks_segment(self, suite):
        before = shm_segments()
        arena = SharedTraceArena.create(suite)
        assert shm_segments() != before  # segment exists while live
        spec = arena.spec
        arena.dispose()
        assert shm_segments() == before
        with pytest.raises(FileNotFoundError):
            SharedTraceArena.attach(spec)

    def test_dispose_is_idempotent(self, suite):
        arena = SharedTraceArena.create(suite)
        arena.dispose()
        arena.dispose()  # second call must be a no-op, not an error

    def test_worker_crash_leaves_no_segment(self, suite):
        before = shm_segments()
        arena = SharedTraceArena.create(suite)
        try:
            proc = multiprocessing.get_context().Process(
                target=_attach_and_die, args=(arena.spec,)
            )
            proc.start()
            proc.join(timeout=60)
            assert proc.exitcode == 1
        finally:
            arena.dispose()
        assert shm_segments() == before

    def test_create_failure_cleans_up(self, monkeypatch):
        # A trace that errors mid-serialization must not leak the block.
        before = shm_segments()
        program = make_program("boom", seed=4)
        bad = program.traces[0]
        monkeypatch.setattr(
            type(bad), "writes",
            property(lambda self: (_ for _ in ()).throw(RuntimeError("io"))),
        )
        with pytest.raises(RuntimeError):
            SharedTraceArena.create([program])
        assert shm_segments() == before


def _attach_and_die(spec):  # pragma: no cover - child process body
    SharedTraceArena.attach(spec)
    os._exit(1)


class TestFallback:
    def test_try_create_returns_none_without_shm(self, suite, monkeypatch):
        import multiprocessing.shared_memory as shm_mod

        def refuse(*args, **kwargs):
            raise OSError("no /dev/shm in this container")

        monkeypatch.setattr(shm_mod, "SharedMemory", refuse)
        assert try_create_arena(suite) is None

    def test_matrix_falls_back_to_pickling(self, suite, monkeypatch):
        import multiprocessing.shared_memory as shm_mod

        from repro.eval.profiles import SMOKE_PROFILE
        from repro.eval.runner import clear_cell_cache, run_matrix
        from repro.rtm.geometry import RTMConfig

        cfg = [RTMConfig(dbcs=4, tracks_per_dbc=1, domains_per_track=64,
                         ports_per_track=2)]
        clear_cell_cache()
        profile = replace(SMOKE_PROFILE, workers=2, shared_traces=False)
        want = run_matrix(["AFD"], profile, configs=cfg, programs=suite,
                          use_cache=False)

        def refuse(*args, **kwargs):
            raise OSError("no shm")

        monkeypatch.setattr(shm_mod, "SharedMemory", refuse)
        clear_cell_cache()
        profile = replace(SMOKE_PROFILE, workers=2, shared_traces=True)
        got = run_matrix(["AFD"], profile, configs=cfg, programs=suite,
                         use_cache=False)
        assert set(got) == set(want)
        for k in want:
            assert got[k].shifts == want[k].shifts
            assert got[k].report == want[k].report


class TestResidency:
    """Only in-memory traces go into the arena."""

    def test_in_memory_suite_gets_an_arena(self, suite):
        arena = try_create_arena(suite)
        assert arena is not None
        arena.dispose()

    def test_any_streamed_trace_skips_the_arena(self, suite, tmp_path):
        from repro.trace.streaming import stream_address_trace

        path = tmp_path / "s.trc"
        path.write_text("r 0x10\nw 0x20\nr 0x10\n")
        streamed = stream_address_trace(path, chunk=2)
        mixed = BenchmarkProgram(
            name="mixed", domain="file",
            traces=(suite[0].traces[0], streamed),
        )
        assert try_create_arena([*suite, mixed]) is None


class TestMatrixIntegration:
    def test_shared_matrix_bit_identical_and_leak_free(self, suite):
        from repro.eval.profiles import SMOKE_PROFILE
        from repro.eval.runner import clear_cell_cache, run_matrix
        from repro.rtm.geometry import RTMConfig

        cfg = [RTMConfig(dbcs=4, tracks_per_dbc=1, domains_per_track=64,
                         ports_per_track=2)]
        before = shm_segments()
        clear_cell_cache()
        profile = replace(SMOKE_PROFILE, workers=2, shared_traces=False)
        off = run_matrix(["AFD", "DMA"], profile, configs=cfg, programs=suite,
                         use_cache=False)
        clear_cell_cache()
        profile = replace(SMOKE_PROFILE, workers=2, shared_traces=True)
        on = run_matrix(["AFD", "DMA"], profile, configs=cfg, programs=suite,
                        use_cache=False)
        assert set(on) == set(off)
        for k in off:
            assert on[k].shifts == off[k].shifts
            assert on[k].report == off[k].report
        assert shm_segments() == before


class TestWorkerStateReset:
    """Regression: consecutive pools in one process leaked worker state."""

    def test_init_worker_clears_previous_suite(self, suite):
        from repro.eval.runner import _WORKER, _init_worker

        first = [make_program("old", seed=9)]
        _init_worker(first)
        # Populate the compile caches as a worker's cell jobs would.
        from repro.core.policies import get_policy

        seq = first[0].traces[0].sequence
        placement = get_policy("AFD").place(seq, 4, 16)
        compile_access_arrays(seq, placement)
        trace_fingerprint(first[0].traces[0])
        assert compile_access_arrays.cache_info().currsize > 0

        _init_worker(suite)
        assert [p.name for p in _WORKER["programs"]] == ["a", "b"]
        # The previous suite's compiled arrays are gone, not leaked.
        assert compile_access_arrays.cache_info().currsize == 0
        assert trace_fingerprint.cache_info().currsize == 0
        _WORKER.clear()

    def test_init_worker_closes_stale_arena_attachment(self, suite):
        from repro.eval.runner import _WORKER, _init_worker

        arena = SharedTraceArena.create(suite)
        try:
            _init_worker((), arena_spec=arena.spec)
            assert "arena" in _WORKER
            stale = _WORKER["arena"]
            # Next pool's initializer must close the old mapping.
            _init_worker(suite)
            assert "arena" not in _WORKER
            assert stale._shm.buf is None or True  # close attempted
        finally:
            _WORKER.clear()
            arena.dispose()
