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
whatever its extension. Address traces additionally *stream*:
:func:`iter_address_trace` parses one line at a time and
:func:`iter_address_chunks` batches the stream into bounded numpy
arrays, so neither the text nor a Python list of every access is ever
resident at once — the entry point the chunked ingestion layer
(:mod:`repro.trace.streaming`) and :func:`load_traces` build on.

All parse failures raise :class:`~repro.errors.TraceFormatError` with
the offending line number.
"""

from __future__ import annotations

import gzip
import os
import zlib
from collections.abc import Iterable, Iterator, Sequence
from contextlib import ExitStack, contextmanager

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
    address raises :class:`~repro.errors.TraceFormatError` with its
    line number.
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
    return addr, is_write


def iter_address_trace(
    source: str | os.PathLike | Iterable[str],
) -> Iterator[tuple[int, bool]]:
    """Stream ``(address, is_write)`` pairs from a raw address trace.

    ``source`` is a file path — read gzip-transparently via
    :func:`open_text` — or any iterable of lines (an open file, a
    ``text.splitlines()`` list). One line is parsed at a time, so a
    hundred-million-access trace never has its text (or a Python list
    of accesses) resident at once. Parse failures carry the offending
    line number, exactly like :func:`parse_address_trace`.
    """
    with ExitStack() as stack:
        if isinstance(source, (str, os.PathLike)):
            stack.enter_context(_reading(source))
            source = stack.enter_context(open_text(source))
        for line_no, raw in enumerate(source, start=1):
            parsed = _parse_address_line(raw, line_no)
            if parsed is not None:
                yield parsed


#: Batch size used when a full-trace collection streams through the
#: chunked parser anyway (bounds transient Python-object overhead).
_PARSE_CHUNK = 1 << 16


def iter_address_chunks(
    source: str | os.PathLike | Iterable[str], chunk: int
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Batch :func:`iter_address_trace` into bounded numpy array pairs.

    Yields ``(addresses, writes)`` — int64 and bool arrays of length
    ``chunk`` (the last one possibly shorter). Each yielded pair is
    freshly allocated, so consumers may keep references across steps.
    """
    if chunk < 1:
        raise TraceError(f"chunk must be >= 1, got {chunk}")
    addrs: list[int] = []
    mask: list[bool] = []
    for addr, is_write in iter_address_trace(source):
        addrs.append(addr)
        mask.append(is_write)
        if len(addrs) == chunk:
            yield np.asarray(addrs, dtype=np.int64), np.asarray(mask, dtype=bool)
            addrs, mask = [], []
    if addrs:
        yield np.asarray(addrs, dtype=np.int64), np.asarray(mask, dtype=bool)


def _collect_address_stream(
    source: str | os.PathLike | Iterable[str],
) -> tuple[np.ndarray, np.ndarray]:
    """Materialize a streamed address trace into full arrays."""
    chunks = list(iter_address_chunks(source, _PARSE_CHUNK))
    if not chunks:
        raise TraceFormatError("address trace contains no accesses")
    if len(chunks) == 1:
        return chunks[0]
    return (np.concatenate([a for a, _ in chunks]),
            np.concatenate([w for _, w in chunks]))


def parse_address_trace(text: str) -> tuple[np.ndarray, np.ndarray]:
    """Parse a raw address trace into ``(addresses, writes)`` arrays.

    See the module docstring for the accepted line shapes. Lines whose
    only content is comments (``#``) or blanks are skipped; a line with
    no parseable address raises :class:`~repro.errors.TraceFormatError`
    with its line number.
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
    uniq, first, counts = np.unique(
        words, return_index=True, return_counts=True
    )
    keep, code_of_keep, variables = _word_codes(
        uniq, counts, first, min_count=min_count, max_vars=max_vars
    )
    codes, selected = _encode_words(words, keep, code_of_keep)
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

    The file is parsed line-by-line (gzip-transparently); keyword
    arguments are forwarded to :func:`addresses_to_trace` and the trace
    name defaults to the file's stem.
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
    files stream through :func:`iter_address_trace`. Keyword arguments
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
