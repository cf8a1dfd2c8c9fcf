"""Chunked streaming ingestion: bounded-memory traces for huge files.

:func:`stream_address_trace` is the two-pass chunked counterpart of
:func:`repro.trace.io.addresses_to_trace` for on-disk address traces.
Pass one (the *census*) streams the file through
:func:`~repro.trace.io.iter_address_chunks`, tallying per-word access
counts and first-touch positions in O(unique words) memory while
spilling the parsed ``(word, is_write)`` stream to a binary scratch
file, so the text is parsed exactly once. The census then goes through
the *same* mapping core as the in-memory path
(:func:`~repro.trace.io._word_codes`: hot-word selection, first-touch
order, ``m<hex>`` names). Pass two re-reads the binary spill and maps
each block through :func:`~repro.trace.io._encode_words`, writing the
final ``codes``/``writes`` spill that :meth:`StreamingTrace.chunks`
serves fixed-size :class:`~repro.trace.trace.TraceChunk`\\ s from.

The resulting :class:`StreamingTrace` is *bit-identical in content* to
the monolithic :class:`~repro.trace.trace.MemoryTrace` the in-memory
path would build — same variable universe (first-appearance order of
the filtered stream, ``m<hex>`` names), same codes, same write mask —
which :attr:`StreamingTrace.content_fingerprint` certifies: it equals
``trace_fingerprint`` of the materialized trace, so the experiment
store's content-addressed cell keys do not depend on residency mode.
A streamed trace has no ``sequence`` or ``writes``: it speaks only the
replay protocol of :mod:`repro.trace.trace` (``variables``, ``len()``,
``chunks()``, ``placement_sequence()``), and :meth:`materialize` builds
the in-memory twin when the whole arrays are wanted.

Peak memory is O(chunk + unique words), never O(accesses): codes and
write masks live in a temp file (9 bytes per access) that is deleted
with the trace. Pickling drops spill ownership — workers re-open the
creator's spill when it still exists and rebuild it from the source
file otherwise — so streaming programs survive the matrix runner's
process pool.
"""

from __future__ import annotations

import hashlib
import os
import tempfile
import weakref
from collections.abc import Iterator

import numpy as np

from repro.errors import TraceError, TraceFormatError
from repro.trace.io import (
    _check_ingest_options,
    _encode_words,
    _word_codes,
    iter_address_chunks,
    trace_name_for,
)
from repro.trace.sequence import AccessSequence
from repro.trace.trace import MemoryTrace, TraceChunk

#: Batch size (accesses) for the census text parse and binary passes.
#: A multiple of 8 so per-batch ``np.packbits`` stays byte-aligned with
#: packing the whole mask at once (no cross-batch bit carry needed).
_BATCH = 1 << 16


def _census(source, word_bytes: int, limit: int | None, spill_path: str):
    """Pass one: tally words, spill the parsed stream to binary.

    Returns ``(uniq, counts, first_seen, n_raw)`` — ascending unique
    word ids, aligned access counts and first-touch stream positions,
    and the (possibly ``limit``-truncated) raw access count. The spill
    file receives interleaved ``_BATCH``-sized blocks of int64 words
    followed by their bool writes, re-read by :func:`_raw_blocks`.
    """
    uniq = np.empty(0, dtype=np.int64)
    counts = np.empty(0, dtype=np.int64)
    first = np.empty(0, dtype=np.int64)
    n_raw = 0
    with open(spill_path, "wb") as spill:
        for addrs, mask in iter_address_chunks(source, _BATCH):
            if limit is not None:
                room = limit - n_raw
                if room <= 0:
                    break
                addrs, mask = addrs[:room], mask[:room]
            words = addrs // word_bytes
            spill.write(words.tobytes())
            spill.write(mask.tobytes())
            u, idx, c = np.unique(
                words, return_index=True, return_counts=True
            )
            f = idx + n_raw
            n_raw += words.size
            # Merge this batch's tallies into the running sorted census.
            cat = np.concatenate([uniq, u])
            order = np.argsort(cat, kind="stable")
            cat = cat[order]
            catc = np.concatenate([counts, c])[order]
            catf = np.concatenate([first, f])[order]
            uniq, starts = np.unique(cat, return_index=True)
            counts = np.add.reduceat(catc, starts)
            first = np.minimum.reduceat(catf, starts)
            if limit is not None and n_raw >= limit:
                break
    return uniq, counts, first, n_raw


def _raw_blocks(spill_path: str, n_raw: int):
    """Re-read the census spill: yields ``(words, writes)`` per block."""
    with open(spill_path, "rb") as f:
        done = 0
        while done < n_raw:
            n = min(_BATCH, n_raw - done)
            words = np.frombuffer(f.read(8 * n), dtype=np.int64)
            mask = np.frombuffer(f.read(n), dtype=bool)
            if words.size != n or mask.size != n:
                raise TraceError("census spill truncated mid-read")
            yield words, mask
            done += n


class StreamingTrace:
    """A disk-backed trace replayed in bounded-memory chunks.

    Built by :func:`stream_address_trace`; content-equal to the
    monolithic ingestion of the same file (see the module docstring).
    Iterate :meth:`chunks` to replay, :meth:`placement_sequence` to
    hand placement policies a (windowed) materialized sequence, and
    :meth:`materialize` to get the full in-memory twin.
    """

    def __init__(
        self,
        path: str,
        *,
        chunk: int,
        word_bytes: int,
        max_vars: int | None,
        min_count: int,
        limit: int | None,
        name: str,
        window: int | None = None,
    ):
        self.path = path
        self.chunk = chunk
        self.word_bytes = word_bytes
        self.max_vars = max_vars
        self.min_count = min_count
        self.limit = limit
        self.window = window
        self._name = name
        self._spill_path: str | None = None
        self._spill_owner = False
        self._finalizer = None
        self._build()

    # -- construction --------------------------------------------------------

    def _new_spill(self) -> str:
        fd, path = tempfile.mkstemp(prefix="repro-stream-", suffix=".spill")
        os.close(fd)
        return path

    def _build(self) -> None:
        """Run both passes; leaves the final codes/writes spill on disk."""
        raw_path = self._new_spill()
        try:
            uniq, counts, first, n_raw = _census(
                self.path, self.word_bytes, self.limit, raw_path
            )
            if n_raw == 0:
                raise TraceFormatError("address trace contains no accesses")
            keep, code_of_keep, variables = _word_codes(
                uniq, counts, first,
                min_count=self.min_count, max_vars=self.max_vars,
            )
            length = int(counts[np.searchsorted(uniq, keep)].sum())

            spill_path = self._new_spill()
            h = hashlib.sha256()
            h.update("\x00".join(variables).encode())
            h.update(b"|")
            writes_off = 8 * length
            with open(spill_path, "r+b") as out:
                out.truncate(writes_off + length)
                codes_at, writes_at = 0, writes_off
                for words, mask in _raw_blocks(raw_path, n_raw):
                    codes, selected = _encode_words(words, keep, code_of_keep)
                    w = mask[selected]
                    out.seek(codes_at)
                    out.write(codes.tobytes())
                    codes_at += 8 * codes.size
                    out.seek(writes_at)
                    out.write(w.tobytes())
                    writes_at += w.size
                    h.update(codes.tobytes())
                if codes_at != 8 * length:  # pragma: no cover - invariant
                    raise TraceError("streamed census/spill length mismatch")
                # Fingerprint tail: "|" + packbits(writes). _BATCH is a
                # multiple of 8, so per-block packbits concatenates to
                # exactly np.packbits(whole mask).
                h.update(b"|")
                done = 0
                while done < length:
                    n = min(_BATCH, length - done)
                    out.seek(writes_off + done)
                    mask = np.frombuffer(out.read(n), dtype=bool)
                    h.update(np.packbits(mask).tobytes())
                    done += n
            self._spill_path = spill_path
            self._spill_owner = True
            self._finalizer = weakref.finalize(
                self, _remove_quietly, spill_path
            )
        finally:
            _remove_quietly(raw_path)
        self._variables = variables
        self._length = length
        self._fingerprint = h.hexdigest()

    def _ensure_spill(self) -> str:
        """The final spill's path, rebuilding it after a cross-process move.

        An unpickled copy points at its creator's spill; when that file
        is gone (different machine, creator exited) the trace rebuilds
        from the source file and verifies the content fingerprint, so a
        changed file can never silently stand in for the original.
        """
        if self._spill_path is not None and os.path.exists(self._spill_path):
            return self._spill_path
        expected = self._fingerprint
        self._build()
        if self._fingerprint != expected:
            raise TraceError(
                f"{self.path}: trace content changed since it was first "
                f"ingested (fingerprint mismatch)"
            )
        return self._spill_path

    # -- protocol ------------------------------------------------------------

    def __len__(self) -> int:
        return self._length

    def __repr__(self) -> str:
        return (
            f"<StreamingTrace {self._name!r}: {len(self)} accesses in "
            f"{self.num_chunks} chunks of {self.chunk}>"
        )

    def __getstate__(self):
        state = self.__dict__.copy()
        # The receiver must never delete the creator's spill.
        state["_spill_owner"] = False
        state["_finalizer"] = None
        return state

    def __setstate__(self, state):
        self.__dict__.update(state)

    # -- accessors -----------------------------------------------------------

    @property
    def name(self) -> str:
        return self._name

    @property
    def variables(self) -> tuple[str, ...]:
        return self._variables

    @property
    def num_chunks(self) -> int:
        return -(-len(self) // self.chunk)

    @property
    def content_fingerprint(self) -> str:
        """Hex SHA-256 equal to ``trace_fingerprint(self.materialize())``."""
        return self._fingerprint

    # -- streaming -----------------------------------------------------------

    def chunks(self) -> Iterator[TraceChunk]:
        """Yield the trace as fixed-size read-only :class:`TraceChunk`\\ s."""
        spill = self._ensure_spill()
        length = len(self)
        writes_off = 8 * length
        with open(spill, "rb") as f:
            start = 0
            while start < length:
                n = min(self.chunk, length - start)
                f.seek(8 * start)
                codes = np.frombuffer(f.read(8 * n), dtype=np.int64)
                f.seek(writes_off + start)
                mask = np.frombuffer(f.read(n), dtype=bool)
                if codes.size != n or mask.size != n:
                    raise TraceError("trace spill truncated mid-read")
                codes.setflags(write=False)
                mask.setflags(write=False)
                yield TraceChunk(start=start, codes=codes, writes=mask)
                start += n

    def _read_codes(self, count: int) -> np.ndarray:
        spill = self._ensure_spill()
        with open(spill, "rb") as f:
            codes = np.frombuffer(f.read(8 * count), dtype=np.int64)
        if codes.size != count:
            raise TraceError("trace spill truncated mid-read")
        codes.setflags(write=False)
        return codes

    def placement_sequence(self, window: int | None = None) -> AccessSequence:
        """A materialized :class:`AccessSequence` for placement policies.

        Policies are whole-sequence functions, so this transiently
        materializes the codes — 8 bytes per access, far below what the
        text parse would cost. ``window`` caps it to the first ``window``
        accesses (the variable universe stays the full one, so every
        variable still receives a location); it defaults to the trace's
        own ``window`` attribute, and with no window at all the full
        sequence is used — which is what keeps streamed placements
        bit-identical to monolithic ones.
        """
        if window is None:
            window = self.window
        if window is not None and window < 1:
            raise TraceError(f"window must be >= 1, got {window}")
        count = len(self) if window is None else min(window, len(self))
        codes = self._read_codes(count)
        return AccessSequence.from_codes(
            self.variables, codes, name=self._name
        )

    def materialize(self) -> MemoryTrace:
        """The full in-memory :class:`MemoryTrace` twin (tests, small files)."""
        length = len(self)
        spill = self._ensure_spill()
        with open(spill, "rb") as f:
            codes = np.frombuffer(f.read(8 * length), dtype=np.int64)
            mask = np.frombuffer(f.read(length), dtype=bool)
        codes.setflags(write=False)
        mask.setflags(write=False)
        seq = AccessSequence.from_codes(self.variables, codes, name=self._name)
        return MemoryTrace(seq, mask)


def _remove_quietly(path: str) -> None:
    try:
        os.remove(path)
    except OSError:
        pass


def stream_address_trace(
    path: str | os.PathLike,
    *,
    chunk: int,
    word_bytes: int | None = None,
    config=None,
    max_vars: int | None = None,
    min_count: int = 1,
    limit: int | None = None,
    name: str | None = None,
    window: int | None = None,
) -> StreamingTrace:
    """Two-pass chunked ingestion of an on-disk address trace.

    The streaming counterpart of
    :func:`~repro.trace.io.addresses_to_trace` — same geometry mapping,
    hot-word census and naming, identical resulting content (see the
    module docstring) — with O(chunk + unique words) peak memory.
    ``chunk`` fixes the :class:`TraceChunk` size served by
    :meth:`StreamingTrace.chunks`; ``window``, when given, becomes the
    trace's default placement window (see
    :meth:`StreamingTrace.placement_sequence`).
    """
    if chunk < 1:
        raise TraceError(f"chunk must be >= 1, got {chunk}")
    if window is not None and window < 1:
        raise TraceError(f"window must be >= 1, got {window}")
    word_bytes = _check_ingest_options(
        word_bytes, config, max_vars=max_vars, min_count=min_count,
        limit=limit,
    )
    path = os.fspath(path)
    if name is None:
        name = trace_name_for(path)
    return StreamingTrace(
        path,
        chunk=int(chunk),
        word_bytes=int(word_bytes),
        max_vars=max_vars,
        min_count=int(min_count),
        limit=limit,
        name=name,
        window=window,
    )
