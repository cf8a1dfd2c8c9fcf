"""Streaming ingestion and replay (repro.trace.streaming).

The acceptance bar: a :class:`StreamingTrace` is bit-identical *in
content* to the monolithic ingestion of the same file — variables,
codes, writes, fingerprint — and replaying it chunk by chunk through
the controller reproduces the monolithic :class:`SimReport` exactly,
for every chunk size and backend.
"""

import gzip
import os
import pickle

import numpy as np
import pytest

from repro.core.placement import Placement
from repro.engine.compile import trace_fingerprint
from repro.errors import TraceError, TraceFormatError
from repro.rtm.geometry import RTMConfig
from repro.rtm.sim import simulate
from repro.trace.io import read_address_trace
from repro.trace.streaming import StreamingTrace, stream_address_trace


def write_trace_file(path, seed=0, accesses=600, words=24, gz=False):
    """A zipf-ish raw address trace with explicit read/write flags."""
    rng = np.random.default_rng(seed)
    probs = 1.0 / np.arange(1, words + 1) ** 1.2
    probs /= probs.sum()
    idx = rng.choice(words, size=accesses, p=probs)
    w = rng.random(accesses) < 0.3
    lines = "".join(
        f"{'w' if wr else 'r'},0x{0x400 + 8 * a:x}\n" for a, wr in zip(idx, w)
    )
    opener = gzip.open if gz else open
    with opener(path, "wt", encoding="utf-8") as fh:
        fh.write(lines)
    return path


@pytest.fixture
def trace_file(tmp_path):
    return write_trace_file(tmp_path / "app.trc")


INGEST_VARIANTS = [
    {},
    {"word_bytes": 16},
    {"max_vars": 8},
    {"min_count": 3},
    {"limit": 100},
    {"max_vars": 6, "min_count": 2, "limit": 400, "word_bytes": 16},
]


class TestIngestionIdentity:
    @pytest.mark.parametrize("kwargs", INGEST_VARIANTS)
    def test_content_matches_monolithic(self, trace_file, kwargs):
        mono = read_address_trace(trace_file, **kwargs)
        streamed = stream_address_trace(trace_file, chunk=64, **kwargs)
        assert streamed.name == mono.name == "app"
        assert streamed.variables == mono.sequence.variables
        assert len(streamed) == len(mono)
        twin = streamed.materialize()
        assert np.array_equal(twin.sequence.codes, mono.sequence.codes)
        assert np.array_equal(twin.writes, mono.writes)
        assert streamed.content_fingerprint == trace_fingerprint(mono)

    def test_gzip_source_is_identical(self, tmp_path):
        plain = write_trace_file(tmp_path / "z.trc", seed=2)
        gzed = write_trace_file(tmp_path / "z2.trc.gz", seed=2, gz=True)
        a = stream_address_trace(plain, chunk=50)
        b = stream_address_trace(gzed, chunk=50)
        assert a.content_fingerprint == b.content_fingerprint
        assert b.name == "z2"  # .trc.gz stripped to the stem

    def test_chunk_size_never_changes_content(self, trace_file):
        prints = {
            stream_address_trace(trace_file, chunk=c).content_fingerprint
            for c in (1, 7, 64, 10_000)
        }
        assert len(prints) == 1

    def test_census_batch_boundaries(self, tmp_path):
        """A trace longer than one census batch still ingests identically."""
        from repro.trace import streaming

        path = write_trace_file(tmp_path / "b.trc", seed=3, accesses=700)
        mono = read_address_trace(path)
        real = streaming._BATCH
        try:
            streaming._BATCH = 256  # force multiple census batches
            streamed = stream_address_trace(path, chunk=300)
            assert streamed.content_fingerprint == trace_fingerprint(mono)
        finally:
            streaming._BATCH = real


class TestChunks:
    def test_fixed_size_chunks_reassemble(self, trace_file):
        streamed = stream_address_trace(trace_file, chunk=100)
        chunks = list(streamed.chunks())
        assert streamed.num_chunks == len(chunks) == 6
        assert [len(c) for c in chunks] == [100] * 6
        assert [c.start for c in chunks] == [0, 100, 200, 300, 400, 500]
        twin = streamed.materialize()
        assert np.array_equal(
            np.concatenate([c.codes for c in chunks]), twin.sequence.codes
        )
        assert np.array_equal(
            np.concatenate([c.writes for c in chunks]), twin.writes
        )

    def test_chunks_are_read_only(self, trace_file):
        chunk = next(stream_address_trace(trace_file, chunk=10).chunks())
        with pytest.raises(ValueError):
            chunk.codes[0] = 1

    def test_no_sequence_or_writes_face(self, trace_file):
        """A streamed trace speaks only the replay protocol."""
        streamed = stream_address_trace(trace_file, chunk=10)
        assert not hasattr(streamed, "sequence")
        assert not hasattr(streamed, "writes")

    def test_placement_sequence_window(self, trace_file):
        streamed = stream_address_trace(trace_file, chunk=10)
        full = streamed.placement_sequence()
        assert len(full) == len(streamed)
        head = streamed.placement_sequence(window=40)
        assert len(head) == 40
        # The universe stays the full one so every variable gets placed.
        assert head.variables == streamed.variables
        windowed = stream_address_trace(trace_file, chunk=10, window=40)
        assert len(windowed.placement_sequence()) == 40


class TestSpillLifecycle:
    def test_pickle_roundtrip_replays_identically(self, trace_file):
        streamed = stream_address_trace(trace_file, chunk=64)
        copy = pickle.loads(pickle.dumps(streamed))
        assert copy.content_fingerprint == streamed.content_fingerprint
        assert np.array_equal(
            copy.materialize().sequence.codes,
            streamed.materialize().sequence.codes,
        )
        # The copy borrows the creator's spill and must never delete it.
        spill = streamed._spill_path
        del copy
        assert os.path.exists(spill)

    def test_spill_rebuilds_after_loss(self, trace_file):
        streamed = stream_address_trace(trace_file, chunk=64)
        before = streamed.materialize()
        os.remove(streamed._spill_path)
        after = streamed.materialize()  # transparently rebuilt
        assert np.array_equal(
            before.sequence.codes, after.sequence.codes
        )

    def test_changed_file_fails_fingerprint_on_rebuild(self, trace_file):
        streamed = stream_address_trace(trace_file, chunk=64)
        os.remove(streamed._spill_path)
        write_trace_file(trace_file, seed=99)
        with pytest.raises(TraceError, match="content changed"):
            list(streamed.chunks())

    def test_spill_removed_with_the_trace(self, trace_file):
        streamed = stream_address_trace(trace_file, chunk=64)
        spill = streamed._spill_path
        assert os.path.exists(spill)
        streamed._finalizer()
        assert not os.path.exists(spill)


class TestValidation:
    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "e.trc"
        path.write_text("# nothing\n")
        with pytest.raises(TraceFormatError, match="no accesses"):
            stream_address_trace(path, chunk=8)

    def test_everything_filtered_rejected(self, tmp_path):
        path = tmp_path / "f.trc"
        path.write_text("0x10\n0x20\n0x30\n")
        with pytest.raises(TraceError, match="min_count"):
            stream_address_trace(path, chunk=8, min_count=2)

    @pytest.mark.parametrize("kwargs", [
        {"chunk": 0},
        {"chunk": 8, "word_bytes": 0},
        {"chunk": 8, "min_count": 0},
        {"chunk": 8, "max_vars": 0},
        {"chunk": 8, "limit": 0},
        {"chunk": 8, "window": 0},
    ])
    def test_bad_parameters_rejected(self, trace_file, kwargs):
        with pytest.raises(TraceError):
            stream_address_trace(trace_file, **kwargs)


@pytest.fixture
def bad_after_one_batch(tmp_path):
    """65,536 valid lines of varying length, then a malformed one.

    The census reads the file in batches of 65,536 accesses, so the
    first batch ends exactly before the bad line; varying lengths put
    that line in the middle of a parse block.
    """
    rng = np.random.default_rng(5)
    n = 65_536
    lines = [
        f"{t}: {'W' if w else 'R'} 0x{a:x} {s}\n"
        for t, w, a, s in zip(
            rng.integers(1, 10 ** rng.integers(1, 10, n)).tolist(),
            (rng.random(n) < 0.3).tolist(),
            rng.integers(1, 1 << rng.integers(4, 40, n)).tolist(),
            rng.choice([1, 4, 64], n).tolist(),
        )
    ]
    assert len(lines) == n and len({len(line) for line in lines}) > 10
    path = tmp_path / "late_error.trc"
    path.write_text("".join(lines) + "R nope\n")
    return path


class TestLimitLaziness:
    """``limit`` stops a streamed census before it reads a later line."""

    def test_streamed_limit_never_parses_the_bad_line(self, bad_after_one_batch):
        streamed = stream_address_trace(bad_after_one_batch, chunk=1000, limit=10)
        assert len(streamed) == 10

    def test_in_memory_limit_still_reads_the_whole_file(self, bad_after_one_batch):
        with pytest.raises(TraceFormatError, match="line 65537"):
            read_address_trace(bad_after_one_batch, limit=10)


def round_robin_placement(variables, num_dbcs):
    lists = [[] for _ in range(num_dbcs)]
    for code, name in enumerate(variables):
        lists[code % num_dbcs].append(name)
    return Placement([tuple(lst) for lst in lists])


class TestStreamedSimulation:
    """Replaying a streamed trace == simulating its materialized twin."""

    @pytest.mark.parametrize("backend", ["reference", "numpy"])
    @pytest.mark.parametrize("ports", [1, 2, 4, 8])
    @pytest.mark.parametrize("chunk", [1, 7, 128, 10_000])
    def test_report_bit_identical(self, trace_file, backend, ports, chunk):
        streamed = stream_address_trace(trace_file, chunk=chunk)
        config = RTMConfig(dbcs=4, tracks_per_dbc=1, domains_per_track=64,
                           ports_per_track=ports)
        placement = round_robin_placement(streamed.variables, config.dbcs)
        mono = simulate(streamed.materialize(), placement, config,
                        backend=backend)
        stream = simulate(streamed, placement, config, backend=backend)
        assert stream == mono  # every counter and every derived float

    @pytest.mark.parametrize("cold", [False, True])
    def test_warm_and_cold_start(self, trace_file, cold):
        streamed = stream_address_trace(trace_file, chunk=37)
        config = RTMConfig(dbcs=2, tracks_per_dbc=1, domains_per_track=64)
        placement = round_robin_placement(streamed.variables, config.dbcs)
        mono = simulate(streamed.materialize(), placement, config,
                        warm_start=not cold)
        stream = simulate(streamed, placement, config, warm_start=not cold)
        assert stream == mono

    def test_unplaced_variable_rejected_up_front(self, trace_file):
        from repro.errors import SimulationError
        from repro.rtm.controller import RTMController

        streamed = stream_address_trace(trace_file, chunk=37)
        config = RTMConfig(dbcs=2, tracks_per_dbc=1, domains_per_track=64)
        partial = Placement([tuple(streamed.variables[:-1]), ()])
        controller = RTMController(config, partial)
        with pytest.raises(SimulationError, match="has no location"):
            controller.execute(streamed)

    def test_controller_state_carries_across_streams(self, trace_file):
        """Chained execute() calls behave the same in both residencies."""
        from repro.rtm.controller import RTMController

        streamed = stream_address_trace(trace_file, chunk=64)
        mono = streamed.materialize()
        config = RTMConfig(dbcs=2, tracks_per_dbc=1, domains_per_track=64)
        placement = round_robin_placement(streamed.variables, config.dbcs)
        a = RTMController(config, placement)
        first_m, second_m = a.execute(mono), a.execute(mono)
        b = RTMController(config, placement)
        first_s, second_s = b.execute(streamed), b.execute(streamed)
        assert (first_s, second_s) == (first_m, second_m)

    def test_streaming_constructor_validates_directly(self, trace_file):
        trace = StreamingTrace(
            str(trace_file), chunk=16, word_bytes=8, max_vars=None,
            min_count=1, limit=None, name="direct",
        )
        assert trace.name == "direct"
        assert trace.num_chunks == -(-len(trace) // 16)
