"""Trace file formats: the native text format and raw address traces.

Native format (one or more blocks per file, in the spirit of
OffsetStone sequence files)::

    # comments and blank lines are ignored
    trace fir_kernel
    vars x0 x1 c0 c1 acc
    seq x0 c0 acc x1 c1 acc
    writes 2 5            # optional: 0-based indices of write accesses
    end

``vars`` is optional; when omitted the variable universe is the order of
first appearance in ``seq``. ``seq`` may be repeated to continue long
sequences. ``writes`` may be repeated as well; without it the default
first-access-is-a-write rule applies.

Address-trace format (gem5 / pintool style): one access per line,
fields separated by whitespace, commas or colons. The address is the
last *hex* field of the line (``0x``-prefixed, or bare hex ending in
``h``) or, when no field is hex, the last decimal field; any field
matching a read/write token (``R``/``W``/``read``/``write``/``ld``/
``st``/``load``/``store``) sets the access direction (default: read).
Other fields (ticks, PCs, sizes, core ids) are ignored, so ``0x1a2b``,
``r 0x1a2b``, ``12345: W 0x1a2b 4`` and CSV rows like ``12345,w,0x1a2b``
all parse. :func:`addresses_to_trace` then maps raw
addresses to placement variables through the RTM geometry: addresses are
grouped at the device's access granularity (``word_bytes``, one variable
location per word — see :class:`repro.rtm.geometry.RTMConfig`), capped
to the hottest ``max_vars`` words (working-set capping) and filtered of
words touched fewer than ``min_count`` times (cold filtering).

Both formats are read gzip-transparently: a file starting with the gzip
magic bytes is decompressed on the fly (gem5 traces ship compressed),
whatever its extension. Address traces additionally *stream*, parsed
with numpy a block at a time: :func:`iter_address_chunks` reads a file
as binary blocks of at most 64 KiB of whole lines (line iterables are
grouped into blocks of the same size), parses each block at once --
one 256-entry byte-code table, field bounds, the address picked per
line, a right-aligned digit gather into int64 -- and re-slices the
results into bounded arrays, so neither the text nor a Python list of
every access is ever resident at once. That is the entry point the
chunked ingestion layer (:mod:`repro.trace.streaming`) and
:func:`load_traces` build on; :func:`iter_address_trace` is a thin
generator of pairs over it.

A block the vectorized rules cannot decide exactly -- a non-ASCII
byte, a line break other than ``\\n`` or ``\\r\\n``, a sign or
underscore outside a comment, a hex field over 15 digits or a decimal
one over 18, or a non-blank line with no address -- falls back to the
per-line rule (:func:`_parse_address_line`) for that block alone,
split as the source splits it (universal newlines for files,
``str.splitlines`` for text) and with true line numbers. All parse
failures raise :class:`~repro.errors.TraceFormatError` with the
offending line number, and only after every chunk of accesses from
earlier lines is yielded.
"""

from __future__ import annotations

import gzip
import io
import os
import re
import zlib
from collections.abc import Callable, Iterable, Iterator, Sequence
from contextlib import ExitStack, contextmanager
from functools import partial

import numpy as np

from repro.errors import TraceError, TraceFormatError
from repro.trace.sequence import AccessSequence
from repro.trace.trace import MemoryTrace

#: Tokens recognized as access-direction markers in address traces.
_READ_TOKENS = frozenset({"r", "read", "ld", "load", "rd"})
_WRITE_TOKENS = frozenset({"w", "write", "st", "store", "wr"})


def parse_traces(text: str) -> list[MemoryTrace]:
    """Parse all trace blocks from ``text`` (native format).

    Malformed input — unknown keywords, out-of-range write indices,
    duplicate or undeclared variables, unterminated blocks — raises
    :class:`~repro.errors.TraceFormatError` naming the offending line
    (for block-level defects, the block's opening line).
    """
    traces: list[MemoryTrace] = []
    state: dict | None = None

    def finish(line_no: int) -> None:
        nonlocal state
        if state is None:
            return
        start = state["start_line"]
        if not state["seq"]:
            raise TraceFormatError(
                f"line {start}: trace {state['name']!r} has an empty sequence"
            )
        try:
            seq = AccessSequence(
                state["seq"], variables=state["vars"] or None, name=state["name"]
            )
        except TraceError as exc:
            # Surface sequence-level defects (duplicate vars, accesses to
            # undeclared variables) as format errors tied to the block,
            # instead of an opaque mid-parse TraceError.
            raise TraceFormatError(
                f"lines {start}-{line_no}: trace {state['name']!r}: {exc}"
            ) from exc
        writes = None
        if state["writes"] is not None:
            writes = np.zeros(len(seq), dtype=bool)
            for idx in state["writes"]:
                if not 0 <= idx < len(seq):
                    raise TraceFormatError(
                        f"line {line_no}: write index {idx} out of range "
                        f"for {len(seq)} accesses"
                    )
                writes[idx] = True
        traces.append(MemoryTrace(seq, writes))
        state = None

    line_no = 0
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        keyword, args = fields[0].lower(), fields[1:]
        if keyword == "trace":
            if state is not None:
                raise TraceFormatError(
                    f"line {line_no}: 'trace' before previous block "
                    f"(opened at line {state['start_line']}) ended"
                )
            if len(args) != 1:
                raise TraceFormatError(f"line {line_no}: 'trace' takes one name")
            state = {"name": args[0], "vars": [], "seq": [], "writes": None,
                     "start_line": line_no}
        elif keyword in ("vars", "seq", "writes", "end"):
            if state is None:
                raise TraceFormatError(
                    f"line {line_no}: {keyword!r} outside a trace block"
                )
            if keyword == "vars":
                state["vars"].extend(args)
            elif keyword == "seq":
                state["seq"].extend(args)
            elif keyword == "writes":
                if state["writes"] is None:
                    state["writes"] = []
                try:
                    state["writes"].extend(int(a) for a in args)
                except ValueError as exc:
                    raise TraceFormatError(
                        f"line {line_no}: write indices must be integers"
                    ) from exc
            else:
                finish(line_no)
        else:
            raise TraceFormatError(f"line {line_no}: unknown keyword {keyword!r}")
    if state is not None:
        raise TraceFormatError(
            f"line {state['start_line']}: trace {state['name']!r} "
            f"not terminated with 'end'"
        )
    return traces


def render_traces(traces: Iterable[MemoryTrace], wrap: int = 16) -> str:
    """Serialize traces to the text format parsed by :func:`parse_traces`."""
    out: list[str] = []
    for trace in traces:
        seq = trace.sequence
        out.append(f"trace {seq.name or 'unnamed'}")
        for chunk in _chunks(list(seq.variables), wrap):
            out.append("vars " + " ".join(chunk))
        for chunk in _chunks(list(seq.accesses), wrap):
            out.append("seq " + " ".join(chunk))
        write_idx = [str(i) for i in np.flatnonzero(trace.writes)]
        for chunk in _chunks(write_idx, wrap):
            out.append("writes " + " ".join(chunk))
        out.append("end")
        out.append("")
    return "\n".join(out)


#: Magic bytes opening every gzip stream (RFC 1952).
_GZIP_MAGIC = b"\x1f\x8b"


def _is_gzipped(path: str | os.PathLike) -> bool:
    """Whether ``path`` starts with the gzip magic (content, not name)."""
    with open(path, "rb") as f:
        return f.read(2) == _GZIP_MAGIC


def open_text(path: str | os.PathLike):
    """Open a trace file as UTF-8 text, decompressing gzip transparently.

    Sniffs the gzip magic bytes rather than trusting the extension, so
    ``trace.trc``, ``trace.trc.gz`` and a compressed file with a plain
    name all work the same.
    """
    if _is_gzipped(path):
        return gzip.open(path, "rt", encoding="utf-8")
    return open(path, "r", encoding="utf-8")


@contextmanager
def _reading(path: str | os.PathLike) -> Iterator[None]:
    """Translate errors raised while reading ``path`` as a trace file.

    Binary files, directories and other unreadable paths become
    :class:`~repro.errors.TraceFormatError`s (the library's clean-exit
    contract); a missing file keeps raising :class:`FileNotFoundError`,
    which callers special-case for friendlier messages.
    """
    try:
        yield
    except FileNotFoundError:
        raise
    except (UnicodeDecodeError, gzip.BadGzipFile, EOFError, zlib.error) as exc:
        raise TraceFormatError(
            f"{os.fspath(path)}: not a text trace file ({exc})"
        ) from exc
    except OSError as exc:
        raise TraceFormatError(f"{os.fspath(path)}: {exc}") from exc


def _read_text(path: str | os.PathLike) -> str:
    """Read a (possibly gzipped) trace file as UTF-8 text."""
    with _reading(path), open_text(path) as f:
        return f.read()


def read_traces(path: str | os.PathLike) -> list[MemoryTrace]:
    """Read all traces from a native-format file."""
    return parse_traces(_read_text(path))


def write_traces(path: str | os.PathLike, traces: Iterable[MemoryTrace]) -> None:
    """Write traces to a file in the text format."""
    with open(path, "w", encoding="utf-8") as f:
        f.write(render_traces(traces))


# -- raw address traces ------------------------------------------------------


def _parse_address(token: str) -> tuple[int, bool] | None:
    """Parse one token as ``(address, is_hex)``; ``None`` if not numeric."""
    t = token.lower()
    try:
        if t.startswith("0x"):
            return int(t, 16), True
        if t.endswith("h") and len(t) > 1:
            return int(t[:-1], 16), True
        return int(t, 10), False
    except ValueError:
        return None


def _parse_address_line(raw: str, line_no: int) -> tuple[int, bool] | None:
    """Parse one trace line as ``(address, is_write)``.

    ``None`` for blank/comment-only lines; a line with no parseable
    address, or with a negative address or one of 2**63 or more (which
    no int64 array holds), raises :class:`~repro.errors.TraceFormatError`
    with its line number. This is the rule the block parser reproduces
    and the path it falls back to.
    """
    line = raw.split("#", 1)[0].strip()
    if not line:
        return None
    fields = [f for f in line.replace(",", " ").replace(":", " ").split() if f]
    addr = None
    addr_is_hex = False
    is_write = False
    for token in fields:
        lowered = token.lower()
        if lowered in _WRITE_TOKENS:
            is_write = True
            continue
        if lowered in _READ_TOKENS:
            continue
        parsed = _parse_address(token)
        if parsed is not None:
            value, is_hex = parsed
            # Hex fields are addresses; decimals (ticks, sizes) only
            # count when the line has no hex field at all.
            if is_hex or not addr_is_hex:
                addr = value
                addr_is_hex = addr_is_hex or is_hex
    if addr is None:
        raise TraceFormatError(
            f"line {line_no}: no address field in {raw.strip()!r}"
        )
    if addr < 0:
        raise TraceFormatError(
            f"line {line_no}: address must be non-negative, got {addr}"
        )
    if addr >= 1 << 63:
        raise TraceFormatError(
            f"line {line_no}: address must be below 2**63, got {addr}"
        )
    return addr, is_write


#: Bytes read per parse block. A block is cut after its last line break,
#: so it is shorter unless a single line is longer. The bound is memory:
#: the parser's temporaries are several times a block's size, and 1 MiB
#: blocks raised the peak RSS of resolving a 300k-line trace from 62 to
#: 71 MiB while parsing no faster than 64 KiB ones.
_BLOCK_BYTES = 1 << 16

#: Byte codes of the block parser: a hex digit's value (0-15), then the
#: other field bytes, then the field separators.
_H, _X, _WORD, _SPACE, _PUNCT, _NEWLINE = range(16, 22)


def _code_table() -> bytes:
    """The 256-entry ``bytes.translate`` table from a byte to its code."""
    table = bytearray([_WORD]) * 256
    for value, digit in enumerate("0123456789abcdef"):
        table[ord(digit)] = table[ord(digit.upper())] = value
    for chars, code in (("hH", _H), ("xX", _X), (" \t\x1f", _SPACE),
                        (",:", _PUNCT), ("\n", _NEWLINE)):
        for c in chars:
            table[ord(c)] = code
    return bytes(table)


_CODES = _code_table()
#: Line breaks of universal newlines or ``str.splitlines`` other than
#: ``\n`` (``\r\n`` is folded to ``\n`` before the search).
_OTHER_BREAKS = tuple(bytes([c]) for c in b"\r\v\f\x1c\x1d\x1e")
#: Characters ``int`` may accept in a number (a sign, or an underscore
#: between digits).
_SIGNS = (b"+", b"-", b"_")
_COMMENT = re.compile(rb"#[^\n]*")
#: Place values of the right-aligned digit gather. Fields of at most 15
#: hex or 18 decimal digits stay below 2**60 and 10**18, so no int64
#: overflows; wider fields fall back.
_MAX_HEX_DIGITS, _MAX_DEC_DIGITS = 15, 18
_DEC_PLACES = np.array([10**k for k in range(17, -1, -1)], dtype=np.int64)
_HEX_PLACES = np.array([0] * 3 + [16**k for k in range(14, -1, -1)],
                       dtype=np.int64)
#: Write words keyed as the block parser keys fields: the little-endian
#: bytes, lower-cased.
_WRITE_KEYS = np.array(
    [int.from_bytes(w.encode(), "little") for w in _WRITE_TOKENS]
)


def _parse_block(data: bytes) -> tuple[np.ndarray, np.ndarray] | None:
    """Parse a block of ``\\n``-ended lines as :func:`_parse_address_line`
    parses each of them.

    Returns the block's ``(addresses, writes)``, or ``None`` when the
    block holds what only the per-line parser decides: a non-ASCII
    byte, a line break other than ``\\n`` or ``\\r\\n``, a sign or
    underscore outside a comment, a hex field of over 15 digits or a
    decimal one of over 18, or a non-blank line with no address.
    """
    if b"\r" in data:
        data = data.replace(b"\r\n", b"\n")
    if not data.isascii() or any(c in data for c in _OTHER_BREAKS):
        return None
    if b"#" in data:
        data = _COMMENT.sub(b"", data)
    if any(c in data for c in _SIGNS):
        return None
    code = np.frombuffer(data.translate(_CODES), dtype=np.uint8)
    # Fields are the runs coded below the separators. The block ends in
    # "\n", so every field ends before it.
    is_field = code < _SPACE
    bounds = np.flatnonzero(np.diff(is_field, prepend=False))
    start, end = bounds[::2], bounds[1::2]
    length = end - start

    # A field's digits: all of it, or what follows 0x or precedes h.
    is_0x = (length >= 3) & (code[start] == 0) & (code[start + 1] == _X)
    is_h = (length >= 2) & (code[end - 1] == _H) & ~is_0x
    first = start + 2 * is_0x
    stop = end - is_h
    n_digits = stop - first
    # The largest code over each field's digits: blank out separators,
    # prefixes and suffixes, then reduce from field start to field start.
    digit_code = code * is_field
    digit_code[first - 1] = 0  # the x of 0x, or a harmless separator
    digit_code[stop] = 0
    top = np.maximum.reduceat(digit_code, start)
    hexa = (is_0x | is_h) & (top < 16)
    dec = ~(is_0x | is_h) & (top < 10)
    wide = (hexa & (n_digits > _MAX_HEX_DIGITS)) | (
        dec & (n_digits > _MAX_DEC_DIGITS)
    )
    if wide.any():
        return None

    # Fields of line i are [cut[i - 1], cut[i]). Per line the highest
    # score names the address: the last hex field, else the last decimal
    # one; a line of non-numeric fields scores -1.
    line_end = np.flatnonzero(code == _NEWLINE)
    cut = np.searchsorted(start, line_end)
    line_first = np.concatenate(([0], cut[:-1]))
    has_fields = cut > line_first
    n = start.size
    index = np.arange(n)
    score = np.where(hexa | dec, index + n * hexa, -1)
    best = np.maximum.reduceat(score, line_first[has_fields])
    if (best < 0).any():
        return None
    if not has_fields.all():
        punct_line = np.searchsorted(line_end, np.flatnonzero(code == _PUNCT))
        if not has_fields[punct_line].all():
            return None  # a line of separators only

    # Write words: a short word's bytes read as one little-endian int64
    # (an unaligned view at every byte offset), lower-cased and cut to
    # the word's length.
    word = np.flatnonzero((length <= 5) & (code[start] == _WORD))
    at = np.ndarray(len(data), "<i8", buffer=data + bytes(8), strides=(1,))
    key = at[start[word]] | 0x2020202020202020
    key &= (1 << 8 * length[word]) - 1
    write_field = word[np.isin(key, _WRITE_KEYS)]
    writes = np.zeros(line_end.size, dtype=bool)
    writes[np.searchsorted(cut, write_field, side="right")] = True

    # Each line's address field, its digits gathered right-aligned into
    # a (lines, width) matrix and weighed by their place values.
    addr = best % max(n, 1)
    width = int(n_digits[addr].max(initial=1))
    cols = stop[addr, None] - np.arange(width, 0, -1)
    digit = code[np.maximum(cols, 0)] * (cols >= first[addr, None])
    values = np.where(hexa[addr], digit @ _HEX_PLACES[-width:],
                      digit @ _DEC_PLACES[-width:])
    return values, writes[has_fields]


def _universal_lines(data: bytes) -> list[str]:
    """A file block's lines as text-mode reading splits them."""
    return io.StringIO(data.decode("utf-8"), newline=None).readlines()


def _file_blocks(f) -> Iterator[tuple[bytes, Callable[[], list[str]]]]:
    """Cut a binary file into whole-line blocks of at most _BLOCK_BYTES.

    Yields ``(data, split)``: the block, ending in ``\\n`` unless it
    ends in a lone ``\\r``, and a callable splitting it into lines. A
    ``\\r`` is a cut point only once the next byte is known not to be
    ``\\n``, so no ``\\r\\n`` is split across blocks.
    """
    rest = b""
    # Top the carried partial line up to a block; a line longer than a
    # block grows by whole blocks until it ends.
    while data := f.read(_BLOCK_BYTES - len(rest) % _BLOCK_BYTES):
        data = rest + data
        cut = max(data.rfind(b"\n"), data.rfind(b"\r", 0, -1)) + 1
        if cut:
            block = data[:cut]
            yield block, partial(_universal_lines, block)
        rest = data[cut:]
    if rest:
        rest += b"\n"
        yield rest, partial(_universal_lines, rest)


def _line_blocks(
    lines: Iterable[str],
) -> Iterator[tuple[bytes | None, Callable[[], list[str]]]]:
    """Group an iterable of lines into blocks of about _BLOCK_BYTES.

    Yields ``(data, split)`` like :func:`_file_blocks`; ``data`` is
    ``None`` when a line holds a ``\\n`` of its own, which would split
    it in the joined block.
    """
    batch: list[str] = []
    size = 0
    for line in lines:
        line = line.removesuffix("\n")
        batch.append(line)
        size += len(line) + 1
        if size >= _BLOCK_BYTES:
            yield _joined_lines(batch)
            batch, size = [], 0
    if batch:
        yield _joined_lines(batch)


def _joined_lines(
    batch: list[str],
) -> tuple[bytes | None, Callable[[], list[str]]]:
    """One block of :func:`_line_blocks`: the lines joined by ``\\n``."""
    text = "\n".join(batch) + "\n"
    data = (text.encode("utf-8", "surrogatepass")
            if text.count("\n") == len(batch) else None)
    return data, lambda: batch


def _parse_lines(lines: list[str], first_line: int):
    """The per-line fallback for one block.

    Yields the block's ``(addresses, writes)``. On a malformed line it
    first yields the accesses of the lines before it and raises only
    when resumed, so a consumer that stops there never sees the error.
    """
    addrs: list[int] = []
    writes: list[bool] = []
    try:
        for line_no, raw in enumerate(lines, start=first_line):
            parsed = _parse_address_line(raw, line_no)
            if parsed is not None:
                addrs.append(parsed[0])
                writes.append(parsed[1])
    except TraceFormatError:
        yield np.array(addrs, dtype=np.int64), np.array(writes, dtype=bool)
        raise
    yield np.array(addrs, dtype=np.int64), np.array(writes, dtype=bool)


def _parsed_blocks(
    source: str | os.PathLike | Iterable[str],
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Parse ``source`` block by block: ``(addresses, writes)`` per block."""
    with ExitStack() as stack:
        if isinstance(source, (str, os.PathLike)):
            stack.enter_context(_reading(source))
            opener = gzip.open if _is_gzipped(source) else open
            blocks = _file_blocks(stack.enter_context(opener(source, "rb")))
        else:
            blocks = _line_blocks(source)
        line_no = 1
        for data, split in blocks:
            parsed = None if data is None else _parse_block(data)
            if parsed is not None:
                yield parsed
                line_no += data.count(b"\n")
            else:
                lines = split()
                yield from _parse_lines(lines, line_no)
                line_no += len(lines)


def _joined(
    parts: list[tuple[np.ndarray, np.ndarray]],
) -> tuple[np.ndarray, np.ndarray]:
    """Concatenate ``(addresses, writes)`` pairs into one fresh pair."""
    return (np.concatenate([a for a, _ in parts]),
            np.concatenate([w for _, w in parts]))


def iter_address_chunks(
    source: str | os.PathLike | Iterable[str], chunk: int
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Stream a raw address trace as bounded numpy array pairs.

    ``source`` is a file path, read gzip-transparently in binary blocks
    of at most 64 KiB of whole lines, or any iterable of lines (an open
    text file, a ``text.splitlines()`` list), grouped into blocks of
    about that size. Each block is parsed at once by
    :func:`_parse_block`; a block it cannot decide exactly (non-ASCII
    bytes, line breaks other than ``\\n`` or ``\\r\\n``, signs or
    underscores, over-wide fields, a malformed line) is parsed line by
    line by :func:`_parse_address_line`, split as the source splits it
    (universal newlines for files, the given lines otherwise) and with
    true line numbers.

    Yields ``(addresses, writes)`` -- int64 and bool arrays of exactly
    ``chunk`` accesses (the last possibly shorter), each freshly
    allocated, so consumers may keep references across steps. A parse
    error surfaces when the chunk holding its line would be yielded:
    every chunk made of earlier lines is yielded first, so a consumer
    that stops early never reads past what it needs.
    """
    if chunk < 1:
        raise TraceError(f"chunk must be >= 1, got {chunk}")
    parts: list[tuple[np.ndarray, np.ndarray]] = []
    held = 0
    for part in _parsed_blocks(source):
        parts.append(part)
        held += part[0].size
        if held < chunk:
            continue
        addrs, writes = _joined(parts)
        full = held - held % chunk
        for i in range(0, full, chunk):
            yield addrs[i:i + chunk].copy(), writes[i:i + chunk].copy()
        parts, held = [(addrs[full:], writes[full:])], held - full
    if held:
        yield _joined(parts)


#: Chunk size of :func:`iter_address_trace` and of full-trace collection.
_PARSE_CHUNK = 1 << 16


def iter_address_trace(
    source: str | os.PathLike | Iterable[str],
) -> Iterator[tuple[int, bool]]:
    """Stream ``(address, is_write)`` pairs from a raw address trace.

    A thin generator over :func:`iter_address_chunks` (same sources,
    same parser): it parses a chunk of accesses at a time, so a
    hundred-million-access trace never has its text (or a Python list
    of its accesses) resident at once, and an error surfaces once the
    pairs of the chunks before its line are yielded. Parse failures
    carry the offending line number, exactly like
    :func:`parse_address_trace`.
    """
    for addrs, writes in iter_address_chunks(source, _PARSE_CHUNK):
        yield from zip(addrs.tolist(), writes.tolist())


def _collect_address_stream(
    source: str | os.PathLike | Iterable[str],
) -> tuple[np.ndarray, np.ndarray]:
    """Materialize a streamed address trace into full arrays."""
    chunks = list(iter_address_chunks(source, _PARSE_CHUNK))
    if not chunks:
        raise TraceFormatError("address trace contains no accesses")
    if len(chunks) == 1:
        return chunks[0]
    return _joined(chunks)


def parse_address_trace(text: str) -> tuple[np.ndarray, np.ndarray]:
    """Parse a raw address trace into ``(addresses, writes)`` arrays.

    See the module docstring for the accepted line shapes. Lines whose
    only content is comments (``#``) or blanks are skipped; a line with
    no parseable address raises :class:`~repro.errors.TraceFormatError`
    with its line number. Lines are ``text.splitlines()``.
    """
    return _collect_address_stream(text.splitlines())


def _select_words(
    uniq: np.ndarray,
    counts: np.ndarray,
    *,
    min_count: int,
    max_vars: int | None,
) -> np.ndarray:
    """Hot-word selection shared by monolithic and streamed ingestion.

    ``uniq`` must be the ascending unique word ids with ``counts``
    aligned (exactly ``np.unique(..., return_counts=True)``'s shape —
    the streamed census reproduces the same pair from its hash-map
    tallies). Returns the kept word ids, ascending: words below
    ``min_count`` dropped, then — if over ``max_vars`` — only the
    hottest kept, ties broken by lower address. Keeping this in one
    place is what makes the chunked two-pass ingestion's variable
    selection bit-identical to the monolithic path.
    """
    keep = uniq[counts >= min_count]
    if max_vars is not None and keep.size > max_vars:
        kept_counts = counts[counts >= min_count]
        # Hottest first; np.argsort is stable, so equal counts keep
        # ascending-address order after the descending-count sort.
        order = np.argsort(-kept_counts, kind="stable")[:max_vars]
        keep = keep[np.sort(order)]
    return keep


def _word_codes(
    uniq: np.ndarray,
    counts: np.ndarray,
    first: np.ndarray,
    *,
    min_count: int,
    max_vars: int | None,
) -> tuple[np.ndarray, np.ndarray, tuple[str, ...]]:
    """The word-to-variable mapping of both ingest residencies.

    ``uniq``/``counts``/``first`` are the ascending unique word ids,
    their access counts and their first-touch positions in the raw
    stream. Returns ``(keep, code_of_keep, variables)``: the kept words
    (ascending), each one's variable code, and the universe — kept
    words in first-touch order (the first-appearance order of the
    filtered stream), named ``m<hex>``.
    """
    keep = _select_words(uniq, counts, min_count=min_count, max_vars=max_vars)
    if keep.size == 0:
        raise TraceError(
            f"no word survives min_count={min_count} over "
            f"{int(counts.sum())} accesses"
        )
    order = np.argsort(first[np.searchsorted(uniq, keep)], kind="stable")
    code_of_keep = np.empty(keep.size, dtype=np.int64)
    code_of_keep[order] = np.arange(keep.size, dtype=np.int64)
    variables = tuple(f"m{int(w):x}" for w in keep[order])
    return keep, code_of_keep, variables


def _encode_words(
    words: np.ndarray, keep: np.ndarray, code_of_keep: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Map raw words to variable codes: ``(codes, selected)``.

    ``selected`` masks the words that survived :func:`_word_codes`;
    ``codes`` holds their codes, in stream order.
    """
    pos = np.searchsorted(keep, words)
    pos[pos == keep.size] = 0
    selected = keep[pos] == words
    return code_of_keep[pos[selected]], selected


def _check_ingest_options(
    word_bytes: int | None,
    config,
    *,
    max_vars: int | None,
    min_count: int,
    limit: int | None,
) -> int:
    """Validate the address-ingest options; returns the word size.

    ``word_bytes`` defaults to the ``word_bytes`` of ``config`` or, with
    neither given, the Table-I device's.
    """
    if word_bytes is None:
        if config is not None:
            word_bytes = config.word_bytes
        else:
            from repro.rtm.geometry import RTMConfig

            word_bytes = RTMConfig(dbcs=1).word_bytes
    if word_bytes < 1:
        raise TraceError(f"word_bytes must be >= 1, got {word_bytes}")
    if min_count < 1:
        raise TraceError(f"min_count must be >= 1, got {min_count}")
    if max_vars is not None and max_vars < 1:
        raise TraceError(f"max_vars must be >= 1, got {max_vars}")
    if limit is not None and limit < 1:
        raise TraceError(f"limit must be >= 1, got {limit}")
    return word_bytes


def addresses_to_trace(
    addresses: Sequence[int] | np.ndarray,
    writes: Sequence[bool] | np.ndarray | None = None,
    *,
    word_bytes: int | None = None,
    config=None,
    max_vars: int | None = None,
    min_count: int = 1,
    limit: int | None = None,
    name: str = "addrtrace",
) -> MemoryTrace:
    """Map raw addresses to a placement trace through the RTM geometry.

    ``word_bytes`` is the access granularity: addresses in the same
    ``word_bytes``-sized word collapse to one variable (one DBC location
    holds one word). It defaults to the ``word_bytes`` of ``config`` (an
    :class:`~repro.rtm.geometry.RTMConfig`) or, with neither given, the
    Table-I device's 32-track / 4-byte word. ``limit`` truncates the raw
    access stream first; then words accessed fewer than ``min_count``
    times are dropped (cold filtering) and, if ``max_vars`` is given,
    only the hottest ``max_vars`` words are kept (working-set capping,
    ties broken by lower address). Variables are named ``m<hex word
    index>`` in first-touch order.
    """
    word_bytes = _check_ingest_options(
        word_bytes, config, max_vars=max_vars, min_count=min_count,
        limit=limit,
    )
    addrs = np.asarray(addresses, dtype=np.int64)
    if addrs.size == 0:
        raise TraceError("cannot build a trace from zero addresses")
    mask: np.ndarray | None
    if writes is None:
        mask = None  # fall back to the first-access-is-a-write rule
    else:
        mask = np.asarray(writes, dtype=bool)
        if mask.shape != addrs.shape:
            raise TraceError(
                f"writes mask has shape {mask.shape}, expected {addrs.shape}"
            )
    if limit is not None:
        addrs = addrs[:limit]
        mask = mask[:limit] if mask is not None else None
    words = addrs // word_bytes
    uniq, first, rank, counts = np.unique(
        words, return_index=True, return_inverse=True, return_counts=True
    )
    keep, code_of_keep, variables = _word_codes(
        uniq, counts, first, min_count=min_count, max_vars=max_vars
    )
    # Each word's rank in uniq comes from the same sort: one gather maps
    # ranks to codes, -1 for the words dropped.
    code_of_rank = np.full(uniq.size, -1, dtype=np.int64)
    code_of_rank[np.searchsorted(uniq, keep)] = code_of_keep
    codes = code_of_rank[rank]
    selected = codes >= 0
    codes = codes[selected]
    codes.setflags(write=False)  # adopted by the sequence without a copy
    if mask is not None:
        mask = mask[selected]
    seq = AccessSequence.from_codes(variables, codes, name=name)
    return MemoryTrace(seq, mask)


def trace_name_for(path: str | os.PathLike) -> str:
    """Default trace name for a file: its stem, minus a ``.gz`` suffix."""
    base = os.path.basename(os.fspath(path))
    if base.lower().endswith(".gz"):
        base = base[:-3]
    return os.path.splitext(base)[0] or base


def read_address_trace(
    path: str | os.PathLike, name: str | None = None, **kwargs
) -> MemoryTrace:
    """Read a raw address-trace file and map it to a placement trace.

    The file is parsed block by block (gzip-transparently, see
    :func:`iter_address_chunks`); keyword arguments are forwarded to
    :func:`addresses_to_trace` and the trace name defaults to the
    file's stem.
    """
    addrs, writes = _collect_address_stream(path)
    if name is None:
        name = trace_name_for(path)
    return addresses_to_trace(addrs, writes, name=name, **kwargs)


def _format_of_lines(lines: Iterable[str]) -> str:
    """:func:`detect_trace_format`'s rule; reads no line past the first
    meaningful one."""
    for raw in lines:
        line = raw.split("#", 1)[0].strip()
        if line:
            return "trace" if line.split()[0].lower() == "trace" else "addr"
    return "trace"


def detect_trace_format(text: str) -> str:
    """Classify ``text`` as ``'trace'`` (native) or ``'addr'`` (raw).

    The native format's first meaningful line must open a block with the
    ``trace`` keyword; anything else is treated as an address trace.
    """
    return _format_of_lines(text.splitlines())


def sniff_trace_format(path: str | os.PathLike) -> str:
    """:func:`detect_trace_format` for a file, reading only up to the
    first meaningful line — the whole file is never resident, so address
    traces of any length sniff in O(1) memory."""
    with _reading(path), open_text(path) as f:
        return _format_of_lines(f)


def load_traces(
    path: str | os.PathLike, format: str = "auto", **kwargs
) -> list[MemoryTrace]:
    """Read traces from ``path`` in either supported format.

    ``format`` is ``'trace'`` (native), ``'addr'`` (raw addresses) or
    ``'auto'`` (sniffed via :func:`sniff_trace_format`, which reads at
    most one meaningful line). Native files are read whole; address
    files stream through :func:`iter_address_chunks`. Keyword arguments
    apply to address ingestion only and are rejected for native files.
    """
    if format not in ("auto", "trace", "addr"):
        raise TraceFormatError(
            f"unknown trace format {format!r}; choose auto, trace or addr"
        )
    if format == "auto":
        format = sniff_trace_format(path)
    if format == "trace":
        if kwargs:
            raise TraceError(
                f"native trace files take no ingestion options, "
                f"got {sorted(kwargs)}"
            )
        return parse_traces(_read_text(path))
    return [read_address_trace(path, **kwargs)]


def _chunks(items: list[str], size: int) -> Iterable[list[str]]:
    for i in range(0, len(items), size):
        yield items[i : i + size]
