"""Property-based tests for the trace substrate (liveness, IO, graphs)."""

import os
import tempfile
from collections import Counter

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.compile import trace_fingerprint
from repro.errors import TraceError
from repro.trace import streaming
from repro.trace.graph import AccessGraph
from repro.trace.io import addresses_to_trace, parse_traces, render_traces
from repro.trace.liveness import NEVER, Liveness
from repro.trace.sequence import AccessSequence
from repro.trace.streaming import stream_address_trace
from repro.trace.trace import MemoryTrace

from strategies import access_sequences


@given(seq=access_sequences())
@settings(max_examples=150, deadline=None)
def test_liveness_bounds(seq):
    live = Liveness(seq)
    live.validate()
    for v in seq.variables:
        f, l = live.first(v), live.last(v)
        if live.is_accessed(v):
            assert 1 <= f <= l <= len(seq)
            assert seq[f - 1] == v and seq[l - 1] == v
        else:
            assert f == l == NEVER


@given(seq=access_sequences())
@settings(max_examples=100, deadline=None)
def test_disjointness_symmetric_and_irreflexive_for_live_vars(seq):
    live = Liveness(seq)
    for u in seq.variables:
        for v in seq.variables:
            assert live.disjoint(u, v) == live.disjoint(v, u)
        if live.frequency(u) > 0:
            assert not live.disjoint(u, u)


@given(seq=access_sequences())
@settings(max_examples=100, deadline=None)
def test_graph_weight_conservation(seq):
    g = AccessGraph(seq)
    assert g.total_weight() + g.self_transitions == max(len(seq) - 1, 0)


@given(seq=access_sequences())
@settings(max_examples=100, deadline=None)
def test_graph_degree_is_sum_of_incident_weights(seq):
    g = AccessGraph(seq)
    for v in seq.variables:
        assert g.weighted_degree(v) == sum(g.neighbors(v).values())


@given(seq=access_sequences(min_length=1), ratio=st.floats(0.0, 1.0))
@settings(max_examples=80, deadline=None)
def test_io_roundtrip(seq, ratio):
    trace = MemoryTrace.with_write_ratio(seq, ratio, rng=0)
    (back,) = parse_traces(render_traces([trace]))
    assert back == trace


@given(seq=access_sequences(min_length=1))
@settings(max_examples=80, deadline=None)
def test_restriction_preserves_access_order(seq):
    subset = list(seq.variables)[: max(1, seq.num_variables // 2)]
    local = seq.restricted_to(subset)
    expected = [a for a in seq.accesses if a in set(subset)]
    assert list(local.accesses) == expected


@given(seq=access_sequences(), data=st.data())
@settings(max_examples=150, deadline=None)
def test_restriction_equals_the_name_level_construction(seq, data):
    """Built from remapped codes, the restriction equals the sequence
    rebuilt from the kept access names, as it was built before."""
    subset = data.draw(st.lists(st.sampled_from(seq.variables), min_size=1))
    name = data.draw(st.sampled_from(["", "local"]))
    local = seq.with_name("whole").restricted_to(subset, name=name)
    wanted = set(subset)
    keep_vars = [v for v in seq.variables if v in wanted]
    expected = AccessSequence([a for a in seq.accesses if a in wanted],
                              variables=keep_vars, name=name or "whole")
    assert local.variables == expected.variables
    assert local.codes.tolist() == expected.codes.tolist()
    assert local.name == expected.name


@st.composite
def address_traces(draw):
    """Raw addresses with tied word counts, plus ingest options."""
    word_bytes = draw(st.sampled_from([1, 4, 8]))
    words = draw(st.lists(st.integers(0, 40), min_size=1, max_size=60))
    # A block of distinct words repeated equally often: tied counts, so
    # max_vars must break ties by address in both residencies.
    tied = draw(st.lists(st.integers(0, 40), unique=True, max_size=6))
    words += tied * draw(st.integers(1, 4))
    words = draw(st.permutations(words))
    n = len(words)
    offsets = draw(st.lists(st.integers(0, word_bytes - 1),
                            min_size=n, max_size=n))
    writes = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    opts = {
        "word_bytes": word_bytes,
        "max_vars": draw(st.none() | st.integers(1, 12)),
        "min_count": draw(st.integers(1, 3)),
        "limit": draw(st.none() | st.integers(1, n + 3)),
    }
    addrs = [w * word_bytes + o for w, o in zip(words, offsets)]
    return addrs, writes, opts


def _ingest(build):
    try:
        return build(), None
    except TraceError as exc:
        return None, str(exc)


def _oracle(addrs, writes, opts):
    """The documented mapping, access by access: ``(names, writes)``."""
    words = [a // opts["word_bytes"] for a in addrs[:opts["limit"]]]
    counts = Counter(words)
    kept = sorted(w for w, c in counts.items() if c >= opts["min_count"])
    if opts["max_vars"] is not None:
        kept = sorted(kept, key=lambda w: (-counts[w], w))[:opts["max_vars"]]
    kept = set(kept)
    pairs = [(f"m{w:x}", wr) for w, wr in zip(words, writes) if w in kept]
    return [n for n, _ in pairs], [wr for _, wr in pairs]


@given(case=address_traces(), chunk=st.integers(1, 20),
       batch=st.sampled_from([8, 16, 1 << 16]))
@settings(max_examples=100, deadline=None)
def test_streamed_ingest_equals_in_memory(case, chunk, batch):
    addrs, writes, opts = case
    mono, mono_err = _ingest(
        lambda: addresses_to_trace(addrs, writes, name="t", **opts)
    )
    names, kept_writes = _oracle(addrs, writes, opts)
    assert (mono_err is None) == bool(names)
    if mono is not None:
        assert list(mono.sequence.accesses) == names
        assert mono.variables == tuple(dict.fromkeys(names))
        assert mono.writes.tolist() == kept_writes
    real = streaming._BATCH
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "t.trc")
        with open(path, "w", encoding="utf-8") as f:
            f.writelines(f"{'w' if w else 'r'} 0x{a:x}\n"
                         for a, w in zip(addrs, writes))
        try:
            streaming._BATCH = batch  # several census batches, or one
            streamed, stream_err = _ingest(
                lambda: stream_address_trace(path, chunk=chunk, **opts)
            )
            assert stream_err == mono_err
            if mono is None:
                return
            assert streamed.name == mono.name
            assert streamed.variables == mono.variables
            assert streamed.materialize() == mono
            assert streamed.content_fingerprint == trace_fingerprint(mono)
        finally:
            streaming._BATCH = real
