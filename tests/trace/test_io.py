"""Unit tests for the trace file formats (repro.trace.io)."""

import numpy as np
import pytest

from repro.errors import TraceError, TraceFormatError
from repro.trace.io import (
    addresses_to_trace,
    iter_address_chunks,
    iter_address_trace,
    detect_trace_format,
    load_traces,
    parse_address_trace,
    parse_traces,
    read_address_trace,
    read_traces,
    render_traces,
    write_traces,
)
from repro.trace.trace import MemoryTrace


SAMPLE = """
# a comment
trace demo
vars a b c
seq a b a c
writes 0 3
end
"""


class TestParse:
    def test_parse_basic_block(self):
        traces = parse_traces(SAMPLE)
        assert len(traces) == 1
        t = traces[0]
        assert t.name == "demo"
        assert t.sequence.accesses == ("a", "b", "a", "c")
        assert list(t.writes) == [True, False, False, True]

    def test_vars_optional(self):
        (t,) = parse_traces("trace t\nseq x y x\nend\n")
        assert t.variables == ("x", "y")

    def test_default_write_rule_when_no_writes_line(self):
        (t,) = parse_traces("trace t\nseq x y x\nend\n")
        assert list(t.writes) == [True, True, False]

    def test_multiple_blocks(self):
        text = "trace a\nseq x\nend\ntrace b\nseq y y\nend\n"
        traces = parse_traces(text)
        assert [t.name for t in traces] == ["a", "b"]

    def test_seq_continuation_lines(self):
        (t,) = parse_traces("trace t\nseq a b\nseq c a\nend\n")
        assert t.sequence.accesses == ("a", "b", "c", "a")

    def test_comments_and_blanks_ignored(self):
        (t,) = parse_traces("# hi\n\ntrace t # trailing\nseq a\nend\n")
        assert t.name == "t"


class TestParseErrors:
    @pytest.mark.parametrize("text,match", [
        ("seq a\nend\n", "outside"),
        ("trace t\ntrace u\n", "before previous"),
        ("trace t\nseq a\n", "not terminated"),
        ("trace t\nend\n", "empty sequence"),
        ("trace t\nseq a\nwrites 5\nend\n", "out of range"),
        ("trace t\nseq a\nwrites x\nend\n", "integers"),
        ("trace a b\nseq a\nend\n", "one name"),
        ("bogus a\n", "unknown keyword"),
    ])
    def test_malformed_inputs(self, text, match):
        with pytest.raises(TraceFormatError, match=match):
            parse_traces(text)

    def test_errors_carry_line_numbers(self):
        with pytest.raises(TraceFormatError, match="line 3"):
            parse_traces("# comment\ntrace t\nbork\n")

    def test_duplicate_vars_are_format_errors_with_lines(self):
        text = "trace t\nvars a a\nseq a\nend\n"
        with pytest.raises(TraceFormatError, match="lines 1-4.*duplicate"):
            parse_traces(text)

    def test_undeclared_access_is_a_format_error(self):
        text = "trace t\nvars a\nseq a b\nend\n"
        with pytest.raises(TraceFormatError, match="undeclared"):
            parse_traces(text)

    def test_unterminated_block_names_its_opening_line(self):
        with pytest.raises(TraceFormatError, match="line 2.*'t'"):
            parse_traces("# header\ntrace t\nseq a\n")


class TestRoundtrip:
    def test_render_parse_roundtrip(self, fig3_trace):
        text = render_traces([fig3_trace])
        (back,) = parse_traces(text)
        assert back == fig3_trace

    def test_roundtrip_preserves_unaccessed_vars(self):
        t = MemoryTrace.from_accesses(["a"], variables=["a", "ghost"])
        (back,) = parse_traces(render_traces([t]))
        assert back.variables == ("a", "ghost")

    def test_file_roundtrip(self, tmp_path, fig3_trace):
        path = tmp_path / "traces.txt"
        write_traces(path, [fig3_trace, fig3_trace])
        traces = read_traces(path)
        assert traces == [fig3_trace, fig3_trace]

    def test_long_sequences_wrap(self, small_sequence):
        t = MemoryTrace(small_sequence)
        text = render_traces([t], wrap=8)
        assert max(len(line) for line in text.splitlines()) < 120
        (back,) = parse_traces(text)
        assert back == t

    def test_parse_render_parse_identity(self, small_sequence, fig3_trace):
        traces = [MemoryTrace(small_sequence), fig3_trace]
        text = render_traces(traces)
        once = parse_traces(text)
        again = parse_traces(render_traces(once))
        assert once == traces
        assert again == once


ADDR_SAMPLE = """\
# gem5-style lines, CSV rows and bare addresses all mix
1000: R 0x1000 4
1001: W 0x1004 4
1002,r,0x1008
w 0x1000
4104
"""


class TestAddressTraces:
    def test_parse_lines(self):
        addrs, writes = parse_address_trace(ADDR_SAMPLE)
        assert addrs.tolist() == [0x1000, 0x1004, 0x1008, 0x1000, 4104]
        assert writes.tolist() == [False, True, False, True, False]

    def test_hex_beats_trailing_decimal_size(self):
        addrs, _ = parse_address_trace("R 0x2000 8\n")
        assert addrs.tolist() == [0x2000]

    def test_decimal_only_lines(self):
        addrs, _ = parse_address_trace("8192\n8196\n")
        assert addrs.tolist() == [8192, 8196]

    @pytest.mark.parametrize("text,match", [
        ("", "no accesses"),
        ("R W\n", "line 1: no address"),
        ("0x10\nR nope\n", "line 2: no address"),
        ("-4\n", "non-negative"),
        ("R 0x8000000000000000 4\n", "line 1: address must be below 2"),
    ])
    def test_malformed_address_lines(self, text, match):
        with pytest.raises(TraceFormatError, match=match):
            parse_address_trace(text)

    def test_word_granularity_groups_addresses(self):
        addrs = np.array([0, 1, 4, 5, 8])
        t = addresses_to_trace(addrs, word_bytes=4)
        assert t.sequence.accesses == ("m0", "m0", "m1", "m1", "m2")
        t8 = addresses_to_trace(addrs, word_bytes=8)
        assert t8.sequence.accesses == ("m0", "m0", "m0", "m0", "m1")

    def test_default_word_is_the_32_track_word(self):
        t = addresses_to_trace([0, 3, 4])
        assert t.sequence.accesses == ("m0", "m0", "m1")

    def test_cold_filter_drops_rare_words(self):
        addrs = [0, 0, 0, 4, 8, 8]
        t = addresses_to_trace(addrs, word_bytes=4, min_count=2)
        assert set(t.sequence.accesses) == {"m0", "m2"}
        assert len(t) == 5

    def test_working_set_cap_keeps_hottest(self):
        addrs = [0] * 5 + [4] * 3 + [8] * 1
        t = addresses_to_trace(addrs, word_bytes=4, max_vars=2)
        assert set(t.sequence.accesses) == {"m0", "m1"}

    def test_cap_ties_break_by_lower_address(self):
        addrs = [0, 4, 8, 0, 4, 8]
        t = addresses_to_trace(addrs, word_bytes=4, max_vars=2)
        assert set(t.sequence.accesses) == {"m0", "m1"}

    def test_limit_truncates_before_filtering(self):
        addrs = [0, 4, 8, 12]
        t = addresses_to_trace(addrs, word_bytes=4, limit=2)
        assert len(t) == 2

    def test_explicit_writes_survive_mapping(self):
        t = addresses_to_trace([0, 4, 0], writes=[True, False, True],
                               word_bytes=4)
        assert t.writes.tolist() == [True, False, True]

    def test_default_writes_follow_first_access_rule(self):
        t = addresses_to_trace([0, 4, 0], word_bytes=4)
        assert t.writes.tolist() == [True, True, False]

    def test_everything_filtered_raises(self):
        with pytest.raises(TraceError, match="min_count"):
            addresses_to_trace([0, 4, 8], word_bytes=4, min_count=2)

    def test_read_address_trace_names_from_stem(self, tmp_path):
        path = tmp_path / "app.atrc"
        path.write_text("0x10\n0x14\n")
        t = read_address_trace(path)
        assert t.name == "app"
        assert len(t) == 2


class TestLoadTraces:
    def test_detects_native_format(self):
        assert detect_trace_format("# c\ntrace t\nseq a\nend\n") == "trace"
        assert detect_trace_format("0x1000\n") == "addr"
        assert detect_trace_format("1000: R 0x4 4\n") == "addr"

    def test_auto_loads_both_formats(self, tmp_path, fig3_trace):
        native = tmp_path / "n.trc"
        write_traces(native, [fig3_trace])
        assert load_traces(native) == [fig3_trace]
        raw = tmp_path / "r.csv"
        raw.write_text("r,0x0\nw,0x4\n")
        (t,) = load_traces(raw)
        assert t.sequence.accesses == ("m0", "m1")

    def test_ingestion_kwargs_rejected_for_native(self, tmp_path, fig3_trace):
        native = tmp_path / "n.trc"
        write_traces(native, [fig3_trace])
        with pytest.raises(TraceError, match="no ingestion options"):
            load_traces(native, max_vars=4)

    def test_unknown_format_rejected(self, tmp_path):
        with pytest.raises(TraceFormatError, match="unknown trace format"):
            load_traces(tmp_path / "x", format="bogus")


class TestGzipTransparency:
    """Any text trace may arrive gzip-compressed; sniffed by magic bytes."""

    def _gz(self, path, text):
        import gzip

        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write(text)
        return path

    def test_gzipped_address_trace_loads_identically(self, tmp_path):
        text = "0x1000\n0x1008\n0x1000\n"
        plain = tmp_path / "a.trc"
        plain.write_text(text)
        gzed = self._gz(tmp_path / "a2.trc.gz", text)
        (a,) = load_traces(plain)
        (b,) = load_traces(gzed)
        assert np.array_equal(a.sequence.codes, b.sequence.codes)
        assert np.array_equal(a.writes, b.writes)

    def test_gzipped_native_trace_loads(self, tmp_path, fig3_trace):
        native = tmp_path / "n.trc"
        write_traces(native, [fig3_trace])
        gzed = self._gz(tmp_path / "n.trc.gz", native.read_text())
        assert load_traces(gzed) == [fig3_trace]

    def test_magic_bytes_beat_the_extension(self, tmp_path):
        # Gzipped content under a plain name still decompresses.
        misnamed = self._gz(tmp_path / "plain.trc", "0x10\n0x18\n")
        (t,) = load_traces(misnamed)
        assert len(t) == 2

    def test_gz_stem_strips_both_suffixes(self, tmp_path):
        gzed = self._gz(tmp_path / "app.trc.gz", "0x10\n")
        (t,) = load_traces(gzed)
        assert t.name == "app"

    def test_truncated_gzip_is_a_format_error(self, tmp_path):
        path = tmp_path / "bad.trc.gz"
        path.write_bytes(b"\x1f\x8b\x08\x00garbage")
        with pytest.raises(TraceFormatError):
            load_traces(path)

    def test_binary_junk_is_a_format_error(self, tmp_path):
        path = tmp_path / "junk.trc"
        path.write_bytes(bytes(range(256)) * 4)
        with pytest.raises(TraceFormatError, match="not a text trace"):
            load_traces(path)


class TestAddressStreaming:
    """Line-level iteration: the bounded-memory face of the parser."""

    def test_iter_matches_parse(self, tmp_path):
        text = "0x10\nw,0x18\n# comment\n0x10\n"
        path = tmp_path / "s.trc"
        path.write_text(text)
        pairs = list(iter_address_trace(path))
        addrs, writes = parse_address_trace(text)
        assert [a for a, _ in pairs] == list(addrs)
        assert [w for _, w in pairs] == list(writes)

    def test_iter_accepts_line_iterables(self):
        pairs = list(iter_address_trace(["0x10", "0x18"]))
        assert [a for a, _ in pairs] == [0x10, 0x18]

    def test_iter_reports_line_numbers_in_errors(self, tmp_path):
        path = tmp_path / "bad.trc"
        path.write_text("0x10\nnonsense here\n")
        with pytest.raises(TraceFormatError, match="line 2"):
            list(iter_address_trace(path))

    def test_chunked_iteration_is_bounded_and_complete(self, tmp_path):
        path = tmp_path / "c.trc"
        path.write_text("".join(f"0x{8 * i:x}\n" for i in range(10)))
        chunks = list(iter_address_chunks(path, 4))
        assert [len(a) for a, _ in chunks] == [4, 4, 2]
        assert np.concatenate([a for a, _ in chunks]).tolist() == [
            8 * i for i in range(10)
        ]

    def test_chunk_must_be_positive(self, tmp_path):
        with pytest.raises(TraceError, match="chunk"):
            list(iter_address_chunks(["0x10"], 0))

    def test_missing_file_raises_file_not_found(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            list(iter_address_trace(tmp_path / "nope.trc"))

    @pytest.mark.parametrize("text,from_file,from_text", [
        ("5 \u0663\n", [3], [3]),  # a non-ASCII digit is a decimal
        ("0x1\u00a00x2\n", [2], [2]),  # non-ASCII whitespace splits
        ("7 1_000\n0x10 -4\n", [1000, 16], [1000, 16]),
        ("12 0x00000000000000001\n", [1], [1]),  # 17 hex digits
        ("1\r2\n", [1, 2], [1, 2]),
        ("1\x0b2\n", [2], [1, 2]),  # \v breaks lines in text only
    ])
    def test_blocks_the_per_line_rule_decides(self, tmp_path, text,
                                              from_file, from_text):
        path = tmp_path / "f.trc"
        path.write_bytes(text.encode("utf-8"))
        assert [a for a, _ in iter_address_trace(path)] == from_file
        assert parse_address_trace(text)[0].tolist() == from_text
