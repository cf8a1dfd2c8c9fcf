"""Property-based tests for the trace substrate (liveness, IO, graphs)."""

import gzip
import os
import tempfile
from collections import Counter

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.compile import trace_fingerprint
from repro.errors import TraceError, TraceFormatError
from repro.trace import io as trace_io
from repro.trace import streaming
from repro.trace.graph import AccessGraph
from repro.trace.io import (
    _parse_address_line,
    addresses_to_trace,
    iter_address_chunks,
    parse_address_trace,
    parse_traces,
    render_traces,
)
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


_HEX = "0123456789abcdefABCDEF"
_DIRECTIONS = ["r", "w", "read", "write", "ld", "st", "load", "store",
               "rd", "wr"]


def _mixed_case(word):
    flips = st.lists(st.booleans(), min_size=len(word), max_size=len(word))
    return flips.map(lambda up: "".join(
        c.upper() if u else c for c, u in zip(word, up)
    ))


_ADDRESS_FIELDS = st.one_of(
    st.integers(0, 10**20).map(str),
    st.tuples(st.sampled_from(["0x", "0X"]),
              st.text(_HEX, min_size=1, max_size=17)).map("".join),
    st.tuples(st.text(_HEX, min_size=1, max_size=16),
              st.sampled_from("hH")).map("".join),
)
#: Direction words, unknown words and -- a quarter as often -- fields
#: only the per-line rule decides: signs, underscores, non-ASCII (some
#: of it whitespace, a line break or a digit to ``str`` methods).
_OTHER_FIELDS = st.one_of(
    st.sampled_from(_DIRECTIONS).flatmap(_mixed_case),
    st.sampled_from(["foo", "0x", "0xg1", "1.5", "x", "h", "0x1h", "1a",
                     "beef", "wri", "stores", "\x00"]),
    st.sampled_from(_DIRECTIONS).flatmap(_mixed_case),
    st.sampled_from(["-4", "+0x10", "1_000", "0x_ff", "-", "_", "\u00e9",
                     "\x85", "\xa0", "\u2028", "\u0663", "4\u0663"]),
)


@st.composite
def _address_line(draw):
    """One line of a raw trace, with its line ending."""
    kind = draw(st.sampled_from(["fields"] * 8 + ["blank", "comment"]))
    if kind == "fields":
        fields = draw(st.lists(_OTHER_FIELDS, max_size=3))
        if draw(st.integers(0, 9)):  # nine lines in ten have a number
            for number in draw(st.lists(_ADDRESS_FIELDS, min_size=1,
                                        max_size=3)):
                fields.insert(draw(st.integers(0, len(fields))), number)
        seps = draw(st.lists(st.sampled_from([" ", ",", ":", "\t"]),
                             min_size=len(fields), max_size=len(fields)))
        body = "".join(s + f for s, f in zip(seps, fields))
        body += draw(st.sampled_from(["", "", "", "# tick-1_x", " #\u00e9"]))
    else:
        body = {"blank": " ", "comment": "# comment -+_"}[kind]
    return body + draw(st.sampled_from(["\n", "\n", "\r\n", "\r"]))


def _per_line(lines):
    """The oracle: :func:`_parse_address_line` on every line, in order."""
    try:
        pairs = [p for n, raw in enumerate(lines, start=1)
                 if (p := _parse_address_line(raw, n)) is not None]
    except TraceError as exc:
        return type(exc), str(exc)
    if not pairs:
        return TraceFormatError, "address trace contains no accesses"
    return [a for a, _ in pairs], [w for _, w in pairs]


def _outcome(parse):
    try:
        addrs, writes = parse()
    except TraceError as exc:
        return type(exc), str(exc)
    return addrs.tolist(), writes.tolist()


def _chunked(path, chunk):
    chunks = list(iter_address_chunks(path, chunk))
    assert all(a.size == chunk for a, _ in chunks[:-1])
    assert all(a.dtype == np.int64 and w.dtype == bool for a, w in chunks)
    if not chunks:
        raise TraceFormatError("address trace contains no accesses")
    return (np.concatenate([a for a, _ in chunks]),
            np.concatenate([w for _, w in chunks]))


@given(lines=st.lists(_address_line(), min_size=1, max_size=30),
       block=st.sampled_from([1, 2, 3, 7, 16, 64, 1 << 16]),
       chunk=st.sampled_from([1, 3, 1000]))
@settings(max_examples=300, deadline=None)
def test_block_parser_equals_the_per_line_rule(lines, block, chunk):
    """Files, gzip files and text parse as the per-line rule does, with
    lines straddling small blocks."""
    text = "".join(lines)
    real = trace_io._BLOCK_BYTES
    with tempfile.TemporaryDirectory() as tmp:
        plain = os.path.join(tmp, "t.trc")
        packed = os.path.join(tmp, "t.trc.gz")
        with open(plain, "wb") as f:
            f.write(text.encode("utf-8"))
        with open(packed, "wb") as f:
            f.write(gzip.compress(text.encode("utf-8")))
        with open(plain, encoding="utf-8") as f:  # universal newlines
            expected = _per_line(list(f))
        try:
            trace_io._BLOCK_BYTES = block
            assert _outcome(lambda: _chunked(plain, chunk)) == expected
            assert _outcome(lambda: _chunked(packed, chunk)) == expected
            assert _outcome(lambda: parse_address_trace(text)) == _per_line(
                text.splitlines()
            )
        finally:
            trace_io._BLOCK_BYTES = real
